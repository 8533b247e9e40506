"""State evolution specialized to (sub)sampled proximal-free gradient descent.

Tracks ridge-penalized gradient descent on the linear model through its
Gaussian limit: per-signal-class decomposition matrices M (how the centered
iterate loads on the signal and on fresh Gaussian innovations),
per-sample-coordinate covariance tables for the prediction-side process,
and the correction-coefficient tables coupling the two sides.  A class is a
group of signal coordinates sharing one law: every coordinate is its own
class in ``gd_se``, and ``gd_se_homogeneous`` is the one-class case.  For
losses with constant curvature the whole recursion is closed-form and runs
with no Monte Carlo at all.  Otherwise expectations are Monte Carlo averages
with common random numbers across outer steps, taken per sample coordinate
by the averaging driver of ``state_evolution``: its path sampler draws the
paths in sub-blocks of bounded size, one stream per path column, so a run
at a shorter horizon repeats the steps it shares, and every sample enters
the standard errors.  Sample coordinates draw independent paths, so a class
average's standard error combines the per-coordinate ones exactly.

Only the algebra is this module's own, as it cross-checks the general
engine: the scale from ``ensembles.profile_weights``, the column-stream keys,
the PSD floor (read with ``u_cov_se``) and the range checks from
``state_evolution``, the rate and mask checks from ``programs.gd_inputs``.
"""

import itertools
import math

import numpy as np

from .ensembles import profile_weights
from .errors import ConfigError, NumericalError
from .programs import gd_inputs
from .seeds import DOMAIN_SE, child_sequence
from .state_evolution import (_BLOCK, DEFAULT_MC, PSD_FLOOR, _column_draws,
                              _draw_paths, _int_in, _mc_average, _sub_blocks,
                              psd_factors)

NESTED_SUM_MAX_GAP = 8


class GdSeState:
    """Gaussian-limit state for gradient descent, per signal class.

    m_matrix[c] decomposes the centered estimate track: column t holds the
    loadings of iterate t on the signal direction (row 0) and on each fresh
    innovation (rows 1..t); unit diagonal, zero below.  u_cov[k] is the
    covariance of the prediction-side Gaussian path at sample coordinate k
    (u_cov_se[k] its first-order error), v_cov[c] the innovation covariance
    (row/col 0 reserved for the signal).  w_pred (m, C) loads the classes
    onto the sample coordinates (through u_cov and the f-tables); w_sig
    (C, m) averages them back into classes (through the g-tables and
    v_cov).  mu0 is None when the classes carry no per-coordinate signal.
    """

    def __init__(self, loss, eta, lam, mu0, mu0_sq, xi, masks, w_pred, w_sig,
                 T, mc, seed):
        self.loss = loss
        self.eta = float(eta)
        self.lam = float(lam)
        self.mu0 = mu0
        self.xi = xi
        self.masks = masks
        self.w_sig = w_sig
        self.T = int(T)
        self.mc = int(mc)
        self.seed = seed
        self.quadratic = bool(getattr(loss, "quadratic", False))
        m, c = w_pred.shape
        self.m_matrix = np.zeros((c, T + 1, T + 1))
        self.m_matrix[:, 0, 0] = 1.0
        self.v_cov = np.zeros((c, T + 1, T + 1))
        self.v_cov[:, 0, 0] = mu0_sq
        self.v_cov_se = np.zeros((c, T + 1, T + 1))
        self.u_cov = np.zeros((m, T, T))
        self.u_cov_se = np.zeros((m, T, T))
        self.f_tables = []   # step t -> (t-1, m)
        self.g_tables = []   # step t -> (t, C)
        self.g_tables_se = []
        # quadratic path: per-step affine loading of the corrected path
        self.alphas = [None] if self.quadratic else None
        self.betas = [None] if self.quadratic else None
        self.w_det = [None] if self.quadratic else None

    def to_json_dict(self):
        return {
            "homogeneous": self.mu0 is None,
            "quadratic": self.quadratic,
            "T": self.T,
            "mc": self.mc,
            "seed": self.seed,
            "eta": self.eta,
            "lam": self.lam,
            "m_matrix": self.m_matrix.tolist(),
            "u_cov": self.u_cov.tolist(),
            "u_cov_se": self.u_cov_se.tolist(),
            "v_cov": self.v_cov.tolist(),
            "v_cov_se": self.v_cov_se.tolist(),
            "f_tables": [np.asarray(f).tolist() for f in self.f_tables],
            "g_tables": [np.asarray(g).tolist() for g in self.g_tables],
            "g_tables_se": [np.asarray(g).tolist() for g in self.g_tables_se],
        }


class GdLaw:
    """Key parameters at one step: per-coordinate bias factor and variance."""

    def __init__(self, t, bias, variance):
        self.t = t
        self.bias = bias
        self.variance = variance


def _average(state, t, n_stats, stat):
    """Monte Carlo means and SEs, each (n_stats, m), of statistics of the
    prediction-side paths through step t at every sample coordinate.

    ``stat(pvals, wvals)`` yields the n_stats statistics of a piece of b
    paths, each (b, m), from the masked loss slopes and curvatures of the
    correction recursion, 1-indexed by step.  The paths are drawn in
    sub-blocks, one stream per path column (``_column_draws``, which draws
    the next sub-block's columns ahead on the strip pool's helper), and
    mixed by ``_draw_paths``: both coefficient routes share samples
    whatever the sub-block size or the thread that drew them, and so do
    shorter horizons.
    """
    eta, f_tables, masks, xi, loss = (state.eta, state.f_tables, state.masks,
                                      state.xi, state.loss)
    m = xi.shape[0]
    factors = psd_factors(state.u_cov[:, :t, :t], f"prediction side, step {t}",
                          state.u_cov_se[:, :t, :t])

    def fill(n):
        vals = np.empty((n_stats, m, n))
        for lo, hi in _sub_blocks(n, m * (t + 1)):
            u = _draw_paths(columns.take(), factors, np.zeros(m), hi - lo)
            pvals, wvals = [None], [None]
            for tau in range(1, t + 1):
                phi = np.array(u[..., tau])
                ftab = f_tables[tau - 1]
                for r in range(1, tau):
                    phi += eta * ftab[r - 1] * pvals[r]
                pvals.append(masks[tau - 1] * loss.d1(xi - phi))
                wvals.append(masks[tau - 1] * loss.d2(xi - phi))
            for i, x in enumerate(stat(pvals, wvals)):
                vals[i, :, lo:hi] = x.T
        return vals.reshape(n_stats * m, n)

    with _column_draws(child_sequence(state.seed, DOMAIN_SE, 0), t, m,
                       n_stats * m, state.mc) as columns:
        mean, se = _mc_average(n_stats * m, state.mc, _BLOCK, fill)
    return mean.reshape(n_stats, m), se.reshape(n_stats, m)


def _d_recursion(s, t, wvals, f_tables, eta):
    """D[tau] = d(corrected path col tau)/d(raw path col s), tau = s..t."""
    d = {s: np.ones_like(wvals[t])}
    for tau in range(s + 1, t + 1):
        ftab = f_tables[tau - 1]
        acc = 0.0
        for r in range(s, tau):
            acc = acc + ftab[r - 1] * wvals[r] * d[r]
        d[tau] = -eta * acc
    return d[t]


def gd_se(loss, eta, lam, mu0, xi, masks, profile, T, mc_samples=DEFAULT_MC,
          seed=0):
    """Run the four-stage recursion to horizon T, one class per signal
    coordinate.

    masks: None (full sample) or (T, m) 0/1 array; profile: un-normalized
    per-entry second moments of the m x n design, weighted by profile / n
    (``ensembles.profile_weights``).  With constant-curvature losses every
    quantity is exact (no sampling).
    """
    mu0 = np.asarray(mu0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    weights = profile_weights(profile, xi.shape[0], mu0.shape[0])
    return _run(loss, eta, lam, mu0, mu0**2, xi, masks, weights, weights.T, T,
                mc_samples, seed)


def gd_se_homogeneous(loss, eta, lam, mu0_sq_mean, xi, phi, T,
                      mc_samples=DEFAULT_MC, seed=0):
    """One-class recursion: full sample, constant per-entry second moment.

    mu0_sq_mean is the mean squared signal entry; phi the ratio of sample
    to signal dimensions.  All signal coordinates form one class, so the
    signal-side tables carry one value per step pair; agrees with gd_se
    under a constant profile.
    """
    xi = np.asarray(xi, dtype=float)
    m = xi.shape[0]
    if not (math.isfinite(mu0_sq_mean) and mu0_sq_mean >= 0
            and math.isfinite(phi) and phi > 0):
        raise ConfigError("need mu0_sq_mean >= 0 and phi > 0")
    return _run(loss, eta, lam, None, [mu0_sq_mean], xi, None, np.ones((m, 1)),
                np.full((1, m), phi / m), T, mc_samples, seed)


def _run(loss, eta, lam, mu0, mu0_sq, xi, masks, w_pred, w_sig, T, mc, seed):
    """The step loop behind both entry points; ``masks`` as for
    ``build_gd_ridge``, whose input checks it shares."""
    T = _int_in(T, 1, None, "horizon")
    mc = _int_in(mc, 2, None, "mc_samples")
    m = xi.shape[0]
    masks = gd_inputs(eta, lam, masks, T, m)
    state = GdSeState(loss, eta, lam, mu0, mu0_sq, xi, masks, w_pred, w_sig,
                      T, mc, seed)
    mm, vc, uc = state.m_matrix, state.v_cov, state.u_cov
    for t in range(1, T + 1):
        # prediction-side covariance row t, and its error |M| V_se |M|^T
        pairs = ((uc, vc, mm), (state.u_cov_se, state.v_cov_se, np.abs(mm)))
        for s in range(1, t + 1):
            for cov, v, load in pairs:
                col = w_pred @ np.einsum("li,lij,lj->l", load[:, :t, t - 1],
                                         v[:, :t, :t], load[:, :t, s - 1])
                cov[:, t - 1, s - 1] = cov[:, s - 1, t - 1] = col
        # coupling coefficients into the prediction side
        ftab = np.stack([w_pred @ mm[:, s, t - 1] for s in range(1, t)]) \
            if t > 1 else np.zeros((0, m))
        state.f_tables.append(ftab)

        step = _quadratic_step if state.quadratic else _mc_step
        g_t, g_se, v_new = step(state, t)
        state.g_tables.append(g_t)
        state.g_tables_se.append(g_se)
        for s in range(1, t + 1):
            vc[:, t, s] = v_new[s - 1]
            vc[:, s, t] = v_new[s - 1]
        # iterate decomposition column t
        for r in range(t):
            acc = (eta * lam if r == 0 else 0.0) + (1.0 - eta * lam) * mm[:, r, t - 1]
            for s in range(r + 1, t + 1):
                acc = acc + g_t[s - 1] * mm[:, r, s - 1]
            mm[:, r, t] = acc
        mm[:, t, t] = 1.0
    return state


def _quadratic_step(state, t):
    """Exact step for constant-curvature losses: the corrected path is
    affine in the raw Gaussian path, so all expectations are closed-form."""
    eta, masks, xi = state.eta, state.masks, state.xi
    c1 = float(state.loss.d1(0.0))
    c2 = float(state.loss.d2(0.0))
    m = xi.shape[0]
    ftab = state.f_tables[t - 1]
    # affine representation of the corrected path column t
    alpha = np.zeros((t + 1, m))
    alpha[t] = 1.0
    beta = np.zeros(m)
    for r in range(1, t):
        p_det_r = masks[r - 1] * (c1 + c2 * (xi - state.betas[r]))
        beta += eta * ftab[r - 1] * p_det_r
        for rho in range(1, r + 1):
            alpha[rho] += -eta * c2 * ftab[r - 1] * masks[r - 1] * state.alphas[r][rho]
    state.alphas.append(alpha)
    state.betas.append(beta)
    w_t = masks[t - 1] * c2
    state.w_det.append(w_t)
    g_t = np.stack([-eta * (state.w_sig @ (w_t * alpha[s]))
                    for s in range(1, t + 1)])
    g_se = np.zeros_like(g_t)
    p_det_t = masks[t - 1] * (c1 + c2 * (xi - beta))
    v_new = []
    for s in range(1, t + 1):
        alpha_s, beta_s = state.alphas[s], state.betas[s]
        p_det_s = masks[s - 1] * (c1 + c2 * (xi - beta_s))
        cross = np.einsum("rk,pk,krp->k", alpha[1:], alpha_s[1:],
                          state.u_cov[:, :t, :s])
        ev = p_det_t * p_det_s + c2**2 * masks[t - 1] * masks[s - 1] * cross
        v_new.append(eta**2 * (state.w_sig @ ev))
    return g_t, g_se, v_new


def _mc_step(state, t):
    """Monte Carlo step: sample prediction-side paths, run the correction
    recursion, differentiate it, and average per sample coordinate.  A class
    average weighs independent coordinates, so its SE combines theirs."""
    eta, wts = state.eta, state.w_sig
    wts_sq = wts**2

    def stat(pvals, wvals):
        for s in range(1, t + 1):
            yield wvals[t] * _d_recursion(s, t, wvals, state.f_tables, eta)
        for s in range(1, t + 1):
            yield pvals[t] * pvals[s]

    mean, se = _average(state, t, 2 * t, stat)
    g_t = np.stack([-eta * (wts @ mean[s]) for s in range(t)])
    g_se = np.stack([eta * np.sqrt(wts_sq @ se[s]**2) for s in range(t)])
    v_new = [eta**2 * (wts @ mean[t + s]) for s in range(t)]
    for s in range(1, t + 1):
        state.v_cov_se[:, t, s] = state.v_cov_se[:, s, t] = \
            eta**2 * np.sqrt(wts_sq @ se[t + s - 1]**2)
    return g_t, g_se, v_new


def g_coefficient_nested_sum(state, s, t):
    """Coupling coefficient by the explicit chain expansion over index paths
    s = c_0 < c_1 < ... < c_p = t, regenerated on the same sample stream as
    the recursion route (identical samples, different algebra)."""
    t = _int_in(t, 1, state.T, "step t")
    s = _int_in(s, 1, t, "step s")
    if t - s > NESTED_SUM_MAX_GAP:
        raise ConfigError(
            f"t - s = {t - s} exceeds the combinatorial cost guard "
            f"({NESTED_SUM_MAX_GAP})")
    eta = state.eta
    ftab = state.f_tables

    def braces(wvals):
        if s == t:
            return np.ones_like(wvals[t])
        total = 0.0
        for p_minus_1 in range(t - s):
            for mids in itertools.combinations(range(s + 1, t), p_minus_1):
                chain = (s,) + mids + (t,)
                p = len(chain) - 1
                prod = (-eta) ** p
                for i in range(p):
                    prod = prod * ftab[chain[i + 1] - 1][chain[i] - 1] * wvals[chain[i]]
                total = total + prod
        return total

    if state.quadratic:
        wv = state.w_det
        return -eta * (state.w_sig @ (wv[t] * braces(wv)))
    mean, _ = _average(state, t, 1, lambda _, wvals: [wvals[t] * braces(wvals)])
    return -eta * (state.w_sig @ mean[0])


def gd_key_params(state, t):
    """Bias factor and innovation variance of the centered estimate at step t."""
    t = _int_in(t, 0, state.T, "step")
    bias = -state.m_matrix[:, 0, t]
    if t == 0:
        return GdLaw(0, bias, np.zeros_like(bias))
    load = state.m_matrix[:, 1 : t + 1, t]
    var = np.einsum("ls,lsr,lr->l", load, state.v_cov[:, 1 : t + 1, 1 : t + 1],
                    load)
    low = float(var.min(initial=0.0))
    if low < PSD_FLOOR:
        raise NumericalError(f"variance {low:.3e} below floor at step {t}")
    return GdLaw(t, bias, np.clip(var, 0.0, None))
