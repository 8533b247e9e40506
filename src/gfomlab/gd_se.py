"""State evolution specialized to (sub)sampled proximal-free gradient descent.

Tracks ridge-penalized gradient descent on the linear model through its
Gaussian limit: per-signal-coordinate decomposition matrices M (how the
centered iterate loads on the signal and on fresh Gaussian innovations),
per-sample-coordinate covariance tables for the prediction-side process,
and the correction-coefficient tables coupling the two sides.  For losses
with constant curvature the whole recursion is closed-form and runs with
no Monte Carlo at all; otherwise expectations are Monte Carlo averages
with common random numbers across outer steps.
"""

import itertools
import json
import math

import numpy as np
from numpy.random import Generator, Philox

from .ensembles import profile_weights
from .errors import ConfigError, NumericalError
from .seeds import DOMAIN_SE, child_sequence
from .state_evolution import psd_factors

VAR_FLOOR = -1e-10
DEFAULT_MC = 20000
_N_BLOCKS = 10
NESTED_SUM_MAX_GAP = 8


def _block_sizes(mc):
    # fixed block layout so regenerated streams align sample for sample
    size = -(-mc // _N_BLOCKS)
    out = []
    left = mc
    while left > 0:
        out.append(min(size, left))
        left -= out[-1]
    return out


class GdSeState:
    """Gaussian-limit state for gradient descent, per coordinate.

    m_matrix[l] decomposes the centered estimate track: column t holds the
    loadings of iterate t on the signal direction (row 0) and on each fresh
    innovation (rows 1..t); unit diagonal, zero below.  u_cov[k] is the
    covariance of the prediction-side Gaussian path at sample coordinate k;
    v_cov[l] the innovation covariance (row/col 0 reserved for the signal).
    """

    def __init__(self, loss, eta, lam, mu0, xi, masks, weights, T, mc, seed,
                 homogeneous=False, phi=None):
        self.loss = loss
        self.eta = float(eta)
        self.lam = float(lam)
        self.mu0 = mu0
        self.xi = np.asarray(xi, dtype=float)
        self.masks = masks
        self.weights = weights
        self.T = int(T)
        self.mc = int(mc)
        self.seed = seed
        self.homogeneous = homogeneous
        self.phi = phi
        self.quadratic = bool(getattr(loss, "quadratic", False))
        m = self.xi.shape[0]
        c = 1 if homogeneous else (None if mu0 is None else len(mu0))
        self.m_matrix = np.zeros((c, T + 1, T + 1))
        self.m_matrix[:, 0, 0] = 1.0
        self.v_cov = np.zeros((c, T + 1, T + 1))
        self.v_cov_se = np.zeros((c, T + 1, T + 1))
        ck = 1 if homogeneous else m
        self.u_cov = np.zeros((ck, T, T))
        self.f_tables = []   # step t -> (t-1,) scalars or (t-1, m)
        self.g_tables = []   # step t -> (t,) scalars or (t, n)
        self.g_tables_se = []
        self.alphas = None   # quadratic path: per-step loading of Phi on the path
        self.betas = None
        self.w_det = None

    @property
    def n_coords(self):
        return self.m_matrix.shape[0]

    def to_json_dict(self):
        return {
            "homogeneous": self.homogeneous,
            "quadratic": self.quadratic,
            "T": self.T,
            "mc": self.mc,
            "seed": self.seed,
            "eta": self.eta,
            "lam": self.lam,
            "m_matrix": self.m_matrix.tolist(),
            "u_cov": self.u_cov.tolist(),
            "v_cov": self.v_cov.tolist(),
            "v_cov_se": self.v_cov_se.tolist(),
            "f_tables": [np.asarray(f).tolist() for f in self.f_tables],
            "g_tables": [np.asarray(g).tolist() for g in self.g_tables],
            "g_tables_se": [np.asarray(g).tolist() for g in self.g_tables_se],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class GdLaw:
    """Key parameters at one step: per-coordinate bias factor and variance."""

    def __init__(self, t, bias, variance):
        self.t = t
        self.bias = bias
        self.variance = variance


class GdEntryLaw:
    """Normal descriptor for one centered estimate coordinate."""

    def __init__(self, mean, variance, coefficients):
        self.mean = mean
        self.variance = variance
        self.sd = math.sqrt(variance)
        self.coefficients = coefficients


def _phi_pass(u, eta, f_tables, masks, xi, loss):
    """Correction recursion on sampled paths u (b, m, t) -> per-step
    corrected values, masked loss slopes P and curvatures W (1-indexed)."""
    t = u.shape[-1]
    pvals = [None]
    wvals = [None]
    for tau in range(1, t + 1):
        phi = np.array(u[..., tau - 1])
        ftab = f_tables[tau - 1]
        for r in range(1, tau):
            phi += eta * ftab[r - 1] * pvals[r]
        pvals.append(masks[tau - 1] * loss.d1(xi - phi))
        wvals.append(masks[tau - 1] * loss.d2(xi - phi))
    return pvals, wvals


def _d_recursion(s, t, wvals, f_tables, eta):
    """D[tau] = d(corrected path col tau)/d(raw path col s), tau = s..t."""
    d = {s: np.ones_like(wvals[t]) if hasattr(wvals[t], "shape") else 1.0}
    for tau in range(s + 1, t + 1):
        ftab = f_tables[tau - 1]
        acc = 0.0
        for r in range(s, tau):
            acc = acc + ftab[r - 1] * wvals[r] * d[r]
        d[tau] = -eta * acc
    return d[t]


def gd_se(loss, eta, lam, mu0, xi, masks, profile, T, mc_samples=DEFAULT_MC,
          seed=0, normalization="inv_sqrt_n"):
    """Run the four-stage recursion to horizon T.

    masks: None (full sample) or (T, m) 0/1 array; profile: un-normalized
    per-entry second moments of the m x n design.  With constant-curvature
    losses every quantity is exact (no sampling).
    """
    mu0 = np.asarray(mu0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n, m = mu0.shape[0], xi.shape[0]
    if eta < 0 or lam < 0:
        raise ConfigError("eta and lambda must be >= 0")
    if T < 1:
        raise ConfigError("horizon must be >= 1")
    if masks is None:
        masks = np.ones((T, m))
    else:
        masks = np.asarray(masks, dtype=float)
        if masks.shape != (T, m):
            raise ConfigError(f"masks must have shape ({T}, {m})")
    weights = profile_weights(profile, m, n, normalization)
    state = GdSeState(loss, eta, lam, mu0, xi, masks, weights, T,
                      mc_samples, seed)
    state.v_cov[:, 0, 0] = mu0**2
    if state.quadratic:
        state.alphas = [None]
        state.betas = [None]
        state.w_det = [None]
    blocks = _block_sizes(int(mc_samples))
    seed_seq = child_sequence(seed, DOMAIN_SE, 0)
    mm, vc, uc = state.m_matrix, state.v_cov, state.u_cov

    for t in range(1, T + 1):
        # prediction-side covariance row t from the iterate decomposition
        for s in range(1, t + 1):
            q = np.einsum("li,lij,lj->l", mm[:, :t, t - 1], vc[:, :t, :t],
                          mm[:, :t, s - 1])
            col = weights @ q
            uc[:, t - 1, s - 1] = col
            uc[:, s - 1, t - 1] = col
        # coupling coefficients into the prediction side
        ftab = np.stack([weights @ mm[:, s, t - 1] for s in range(1, t)]) \
            if t > 1 else np.zeros((0, m))
        state.f_tables.append(ftab)

        if state.quadratic:
            g_t, g_se, v_new = _quadratic_step(state, t)
        else:
            g_t, g_se, v_new = _mc_step(state, t, blocks, seed_seq)
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
    g_t = np.stack([-eta * (state.weights.T @ (w_t * alpha[s]))
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
        v_new.append(eta**2 * (state.weights.T @ ev))
    return g_t, g_se, v_new


def _mc_step(state, t, blocks, seed_seq):
    """Monte Carlo step: sample prediction-side paths, run the correction
    recursion, differentiate it, and average.  Standard errors come from
    the spread of per-block means."""
    eta, masks, xi, loss = state.eta, state.masks, state.xi, state.loss
    m = xi.shape[0]
    wts = state.weights
    factors = psd_factors(state.u_cov[:, :t, :t], f"prediction side, step {t}")
    gen = Generator(Philox(seed_seq))
    g_sum = np.zeros((t, m))
    p_sum = np.zeros((t, m))
    g_blocks = [[] for _ in range(t)]
    p_blocks = [[] for _ in range(t)]
    count = 0
    for b in blocks:
        e = gen.standard_normal((b, m, state.T))[..., :t]
        u = np.einsum("kij,bkj->bki", factors, e)
        pvals, wvals = _phi_pass(u, eta, state.f_tables, masks, xi, loss)
        for s in range(1, t + 1):
            d_t = _d_recursion(s, t, wvals, state.f_tables, eta)
            gv = wvals[t] * d_t
            pv = pvals[t] * pvals[s]
            g_sum[s - 1] += gv.sum(axis=0)
            p_sum[s - 1] += pv.sum(axis=0)
            g_blocks[s - 1].append(gv.mean(axis=0))
            p_blocks[s - 1].append(pv.mean(axis=0))
        count += b
    g_t, g_se, v_new = [], [], []
    nb = len(blocks)
    for s in range(1, t + 1):
        g_t.append(-eta * (wts.T @ (g_sum[s - 1] / count)))
        ga = np.stack([-eta * (wts.T @ bm) for bm in g_blocks[s - 1]])
        g_se.append(ga.std(axis=0, ddof=1) / math.sqrt(nb) if nb > 1 else 0 * ga[0])
        v_new.append(eta**2 * (wts.T @ (p_sum[s - 1] / count)))
        pa = np.stack([eta**2 * (wts.T @ bm) for bm in p_blocks[s - 1]])
        state.v_cov_se[:, t, s] = pa.std(axis=0, ddof=1) / math.sqrt(nb) \
            if nb > 1 else 0.0
        state.v_cov_se[:, s, t] = state.v_cov_se[:, t, s]
    return np.stack(g_t), np.stack(g_se), v_new


def g_coefficient_nested_sum(state, s, t):
    """Coupling coefficient by the explicit chain expansion over index paths
    s = c_0 < c_1 < ... < c_p = t, regenerated on the same sample stream as
    the recursion route (identical samples, different algebra)."""
    if state.homogeneous:
        raise ConfigError("nested-sum route needs the per-coordinate state")
    if not 1 <= s <= t <= state.T:
        raise ConfigError(f"need 1 <= s <= t <= {state.T}")
    if t - s > NESTED_SUM_MAX_GAP:
        raise ConfigError(
            f"t - s = {t - s} exceeds the combinatorial cost guard "
            f"({NESTED_SUM_MAX_GAP})")
    eta = state.eta
    ftab = state.f_tables

    def braces(wvals):
        if s == t:
            return 1.0 if np.isscalar(wvals[t]) else np.ones_like(wvals[t])
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
        return -eta * (state.weights.T @ (wv[t] * braces(wv)))
    blocks = _block_sizes(state.mc)
    gen = Generator(Philox(child_sequence(state.seed, DOMAIN_SE, 0)))
    m = state.xi.shape[0]
    factors = psd_factors(state.u_cov[:, :t, :t], f"prediction side, step {t}")
    acc = np.zeros(m)
    count = 0
    for b in blocks:
        e = gen.standard_normal((b, m, state.T))[..., :t]
        u = np.einsum("kij,bkj->bki", factors, e)
        _, wvals = _phi_pass(u, state.eta, ftab, state.masks, state.xi,
                             state.loss)
        acc += (wvals[t] * braces(wvals)).sum(axis=0)
        count += b
    return -eta * (state.weights.T @ (acc / count))


def gd_key_params(state, t):
    """Bias factor and innovation variance of the centered estimate at step t."""
    if not 0 <= t <= state.T:
        raise ConfigError(f"step {t} outside 0..{state.T}")
    bias = -state.m_matrix[:, 0, t]
    if t == 0:
        return GdLaw(0, bias, np.zeros_like(bias))
    load = state.m_matrix[:, 1 : t + 1, t]
    var = np.einsum("ls,lsr,lr->l", load, state.v_cov[:, 1 : t + 1, 1 : t + 1],
                    load)
    low = float(var.min(initial=0.0))
    if low < VAR_FLOOR:
        raise NumericalError(f"variance {low:.3e} below floor at step {t}")
    return GdLaw(t, bias, np.clip(var, 0.0, None))


def gd_entrywise_law(state, ell, t):
    """Normal descriptor for (estimate - signal) at signal coordinate ell."""
    if state.homogeneous:
        raise ConfigError("homogeneous state has no per-coordinate signal")
    if not 0 <= ell < state.n_coords:
        raise ConfigError(f"coordinate {ell} outside range")
    law = gd_key_params(state, t)
    return GdEntryLaw(mean=float(law.bias[ell] * state.mu0[ell]),
                      variance=float(law.variance[ell]),
                      coefficients=np.array(state.m_matrix[ell, :, t]))


def gd_se_homogeneous(loss, eta, lam, mu0_sq_mean, xi, phi, T,
                      mc_samples=DEFAULT_MC, seed=0):
    """Scalarized recursion: full sample, constant per-entry second moment.

    mu0_sq_mean is the mean squared signal entry; phi the ratio of sample
    to signal dimensions.  Tables carry one value per (step pair) instead
    of one per coordinate; agrees with gd_se under a constant profile.
    """
    xi = np.asarray(xi, dtype=float)
    m = xi.shape[0]
    if mu0_sq_mean < 0 or phi <= 0:
        raise ConfigError("need mu0_sq_mean >= 0 and phi > 0")
    if eta < 0 or lam < 0:
        raise ConfigError("eta and lambda must be >= 0")
    masks = np.ones((T, m))
    state = GdSeState(loss, eta, lam, None, xi, masks, None, T, mc_samples,
                      seed, homogeneous=True, phi=phi)
    state.v_cov[0, 0, 0] = mu0_sq_mean
    quadratic = state.quadratic
    if quadratic:
        state.alphas = [None]
        state.betas = [None]
        state.w_det = [None]
    blocks = _block_sizes(int(mc_samples))
    seed_seq = child_sequence(seed, DOMAIN_SE, 0)
    mm = state.m_matrix[0]
    vc = state.v_cov[0]
    uc = state.u_cov[0]
    c1 = float(loss.d1(0.0)) if quadratic else None
    c2 = float(loss.d2(0.0)) if quadratic else None

    for t in range(1, T + 1):
        for s in range(1, t + 1):
            val = mm[:t, t - 1] @ vc[:t, :t] @ mm[:t, s - 1]
            uc[t - 1, s - 1] = val
            uc[s - 1, t - 1] = val
        ftab = np.array([mm[s, t - 1] for s in range(1, t)])
        state.f_tables.append(ftab)
        if quadratic:
            alpha = np.zeros(t + 1)
            alpha[t] = 1.0
            beta = np.zeros(m)
            for r in range(1, t):
                beta += eta * ftab[r - 1] * (c1 + c2 * (xi - state.betas[r]))
                alpha[1 : r + 1] += -eta * c2 * ftab[r - 1] * state.alphas[r][1 : r + 1]
            state.alphas.append(alpha)
            state.betas.append(beta)
            state.w_det.append(c2)
            g_t = np.array([-eta * phi * c2 * alpha[s] for s in range(1, t + 1)])
            g_se = np.zeros_like(g_t)
            p_det_t = c1 + c2 * (xi - beta)
            v_new = []
            for s in range(1, t + 1):
                p_det_s = c1 + c2 * (xi - state.betas[s])
                cross = state.alphas[t][1:] @ uc[:t, :s] @ state.alphas[s][1:]
                v_new.append(eta**2 * phi * (np.mean(p_det_t * p_det_s) + c2**2 * cross))
        else:
            factors = psd_factors(uc[None, :t, :t], f"homogeneous step {t}")[0]
            gen = Generator(Philox(seed_seq))
            gb = [[] for _ in range(t)]
            pb = [[] for _ in range(t)]
            for b in blocks:
                e = gen.standard_normal((b, m, T))[..., :t]
                u = np.einsum("ij,bkj->bki", factors, e)
                pvals, wvals = _phi_pass(u, eta, state.f_tables, masks, xi, loss)
                for s in range(1, t + 1):
                    d_t = _d_recursion(s, t, wvals, state.f_tables, eta)
                    gb[s - 1].append(float((wvals[t] * d_t).mean()))
                    pb[s - 1].append(float((pvals[t] * pvals[s]).mean()))
            nb = len(blocks)
            g_t = np.array([-eta * phi * np.mean(gb[s - 1]) for s in range(1, t + 1)])
            g_se = np.array([eta * phi * np.std(gb[s - 1], ddof=1) / math.sqrt(nb)
                             if nb > 1 else 0.0 for s in range(1, t + 1)])
            v_new = [eta**2 * phi * np.mean(pb[s - 1]) for s in range(1, t + 1)]
            for s in range(1, t + 1):
                state.v_cov_se[0, t, s] = eta**2 * phi * np.std(pb[s - 1], ddof=1) \
                    / math.sqrt(nb) if nb > 1 else 0.0
                state.v_cov_se[0, s, t] = state.v_cov_se[0, t, s]
        state.g_tables.append(g_t)
        state.g_tables_se.append(g_se)
        for s in range(1, t + 1):
            vc[t, s] = v_new[s - 1]
            vc[s, t] = v_new[s - 1]
        for r in range(t):
            acc = (eta * lam if r == 0 else 0.0) + (1.0 - eta * lam) * mm[r, t - 1]
            for s in range(r + 1, t + 1):
                acc += g_t[s - 1] * mm[r, s - 1]
            mm[r, t] = acc
        mm[t, t] = 1.0
    return state


def gd_law_to_csv(state, path, steps=None):
    """CSV rows (coordinate, t, bias, variance) at 17 significant digits."""
    steps = range(state.T + 1) if steps is None else steps
    lines = ["coordinate,t,bias,variance"]
    for t in steps:
        law = gd_key_params(state, t)
        for ell in range(state.n_coords):
            lines.append(f"{ell},{t},{law.bias[ell]:.17g},{law.variance[ell]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
