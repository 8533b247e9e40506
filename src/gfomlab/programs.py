"""Row-separate nonlinearities and named iteration programs.

A RowFunction consumes, per coordinate, the row of past iterate values for
that coordinate and returns one number; it carries an analytic first partial
for every history column because state-evolution coefficients are built from
those derivatives.  A partial that does not vary over the samples (a
weight, a 1, a 0, a quadratic loss's curvature) may be returned as an (R,)
row instead of a (..., R) array: every consumer broadcasts it, and the
limit-law engines carry such rows as rows until they meet a factor that
does vary, so constants are never pushed through whole sample planes.
Values are always (..., R) arrays.  Programs bundle the per-step functions
with an initialization: symmetric programs update

    z^(t) = A mat_fns[t](z-history) + add_fns[t](z-history),

asymmetric programs update, in order within a step,

    u^(t) = A u_mat_fns[t](v-history) + u_add_fns[t](u-history)
    v^(t) = A^T v_mat_fns[t](u-history incl. u^(t)) + v_add_fns[t](v-history).

Both are one recursion over sides; the side table (``Track``) writes that
wiring once, for the executors and the limit-law builders alike.

Each derivative rule has one owner: ``column_map`` builds every map of one
history column together with its partial (that column's derivative, 0 in
every other), and ``central_difference`` is the one finite-difference probe
that checks analytic partials and stands in for them where none exist.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .erm import logistic_dloss_x, sigmoid, dsmoothed_sign, smoothed_sign, default_logit_clamp
from .errors import ConfigError


def _sel(param, rows):
    return param if rows is None else np.asarray(param)[rows]


@dataclass
class RowFunction:
    """One row-separate map history_row -> value with analytic partials.

    ``fn(hist, rows)`` takes hist of shape (..., R, arity) (last axis =
    iterate index) and returns (..., R); ``dfn(hist, rows, which)`` is the
    first partial in history column ``which``: (..., R), or any shape that
    broadcasts to it, such as the (R,) row of a partial that does not vary
    over the samples (see _row).  ``rows`` selects which
    coordinates the R-axis refers to (None = the full native row set);
    functions with ``row_constant=True`` ignore it.
    """

    arity: int
    fn: callable
    dfn: callable
    row_constant: bool = True

    def eval(self, row, history_row):
        h = np.asarray(history_row, dtype=float).reshape(1, self.arity)
        rows = None if self.row_constant else np.asarray([row])
        return float(self.fn(h, rows)[0])

    def partial(self, row, history_row, which):
        if not 0 <= which < self.arity:
            raise ConfigError(f"partial index {which} outside arity {self.arity}")
        h = np.asarray(history_row, dtype=float).reshape(1, self.arity)
        rows = None if self.row_constant else np.asarray([row])
        return float(np.broadcast_to(self.dfn(h, rows, which), h.shape[:-1])[0])

    def __call__(self, hist, rows=None):
        return self.fn(np.asarray(hist, dtype=float), rows)


def _row(h):
    """The (R,) shape of a partial over the rows of a (..., R, arity)
    history that does not vary over the samples."""
    return h.shape[-2:-1]


def zero_row_function(arity):
    return RowFunction(
        arity=arity,
        fn=lambda h, rows: np.zeros(h.shape[:-1]),
        dfn=lambda h, rows, which: np.zeros(_row(h)),
    )


def constant_rows(values, arity):
    """Per-row constants, ignoring the history entirely."""
    values = np.asarray(values, dtype=float)
    return RowFunction(
        arity=arity,
        fn=lambda h, rows: np.broadcast_to(_sel(values, rows), h.shape[:-1]).copy(),
        dfn=lambda h, rows, which: np.zeros(_row(h)),
        row_constant=False,
    )


def column_map(arity, col, g, dg, row_constant=True):
    """g applied to history column ``col``: fn is ``g(h[..., col], rows)``
    and the partial is ``dg(h[..., col], rows)`` in column ``col`` (which
    may return a row, see RowFunction), a row of 0 in every other (g, dg
    vectorized over arrays)."""
    if not 0 <= col < arity:
        raise ConfigError("column outside arity")

    def dfn(h, rows, which):
        if which != col:
            return np.zeros(_row(h))
        return np.asarray(dg(h[..., col], rows), dtype=float)

    return RowFunction(
        arity=arity,
        fn=lambda h, rows: np.asarray(g(h[..., col], rows), dtype=float),
        dfn=dfn,
        row_constant=row_constant,
    )


def pick_iterate(arity, col):
    """Identity on history column ``col``."""
    return column_map(arity, col, lambda x, rows: x.copy(),
                      lambda x, rows: np.ones(x.shape[-1:]))


def scalar_map(arity, col, g, dg):
    """g applied to history column ``col`` (g, dg vectorized over arrays)."""
    return column_map(arity, col, lambda x, rows: g(x), lambda x, rows: dg(x))


def tanh_map(arity, col):
    return scalar_map(arity, col, np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)


def prox_column(prox, eta, t):
    """prox_eta of the last column of an arity-t history: the estimate
    mu^(t-1) = prox_eta(v^(t-1)) of the proximal-gradient programs."""
    return scalar_map(t, t - 1, lambda v: prox.apply(eta, v), lambda v: prox.dapply(eta, v))


def fixed_order_sum(cols, coefs, out=None):
    """sum_j coefs[j] * cols[j], summed in one order whatever the memory
    layout: the even-indexed terms left to right, then the odd-indexed
    ones, then the two sums.  Each term is rounded before it is added.
    ``out``, when given, receives the result."""
    total = np.multiply(cols[0], coefs[0], out=out)
    if len(cols) == 1:
        return total
    sums = [total, np.multiply(cols[1], coefs[1])]
    term = np.empty_like(sums[1])
    for j in range(2, len(cols)):
        sums[j % 2] += np.multiply(cols[j], coefs[j], out=term)
    sums[0] += sums[1]
    return sums[0]


def affine_combination(arity, weights, intercept=0.0):
    """sum_j weights[j] * h_j + intercept; intercept may vary per row."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (arity,):
        raise ConfigError("weights must have one entry per history column")
    intercept = np.asarray(intercept, dtype=float)
    per_row = intercept.ndim > 0

    def fn(h, rows):
        out = fixed_order_sum([h[..., j] for j in range(arity)], weights)
        return out + (_sel(intercept, rows) if per_row else float(intercept))

    return RowFunction(
        arity=arity,
        fn=fn,
        dfn=lambda h, rows, which: np.full(_row(h), weights[which]),
        row_constant=not per_row,
    )


class Track(NamedTuple):
    """One side of an iteration.

    At step t the update functions ``mat_fns[t-1]`` read the history of side
    ``source`` through step t-1+offset (arity t+offset), and their values are
    multiplied by A, or by A^T when offset is 1; the additive functions
    ``add_fns[t-1]`` (None for a corrected iteration) read the side's own
    history through step t-1.  ``x0`` is the side's step-0 value.
    """

    source: str
    offset: int
    mat_fns: list
    add_fns: list | None
    x0: np.ndarray


def symmetric_tracks(mat_fns, add_fns, z0):
    """The side table of a one-matrix iteration: z reads itself."""
    return {"z": Track("z", 0, mat_fns, add_fns, np.asarray(z0, dtype=float))}


def asymmetric_tracks(u_mat_fns, u_add_fns, v_mat_fns, v_add_fns, u0, v0):
    """The side table of a two-sided iteration, in update order: u reads the
    v-history through A, then v reads the u-history including u^(t) through
    A^T."""
    return {"u": Track("v", 0, u_mat_fns, u_add_fns, np.asarray(u0, dtype=float)),
            "v": Track("u", 1, v_mat_fns, v_add_fns, np.asarray(v0, dtype=float))}


def check_tracks(tracks, T, memory=None):
    """ConfigError unless every side has T functions of each role with the
    arities its table entry fixes, and either every side has additive
    functions or none has.  ``memory`` (corrected iterations) maps each side
    to T tables, the one of step t of shape (t-1+offset, the side's width);
    they are returned as float arrays."""
    if len({tr.add_fns is None for tr in tracks.values()}) > 1:
        raise ConfigError("either every side has additive functions or none has")
    tables = {}
    for name, tr in tracks.items():
        for role, fns, offset in (("update", tr.mat_fns, tr.offset),
                                  ("additive", tr.add_fns, 0)):
            if fns is None:
                continue
            arities = [f.arity for f in fns]
            if arities != list(range(1 + offset, T + 1 + offset)):
                raise ConfigError(f"side {name} needs {T} {role} functions of "
                                  f"arities {1 + offset}..{T + offset}, got {arities}")
        if memory is not None:
            tables[name] = [np.asarray(c, dtype=float) for c in memory[name]]
            shapes = [c.shape for c in tables[name]]
            want = [(t - 1 + tr.offset, tr.x0.shape[0]) for t in range(1, T + 1)]
            if shapes != want:
                raise ConfigError(f"side {name} memory tables have shapes {shapes}, "
                                  f"not {want}")
    return None if memory is None else tables


@dataclass
class SymmetricProgram:
    T: int
    mat_fns: list    # multiplied by A; entry t-1 consumes columns 0..t-1
    add_fns: list
    z0: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=float)
        check_tracks(self.tracks(), self.T)

    def tracks(self):
        return symmetric_tracks(self.mat_fns, self.add_fns, self.z0)

    @property
    def n(self):
        return self.z0.shape[0]


@dataclass
class AsymmetricProgram:
    T: int
    u_mat_fns: list  # on v-history, arity t
    u_add_fns: list  # on u-history, arity t
    v_mat_fns: list  # on u-history including u^(t), arity t+1
    v_add_fns: list  # on v-history, arity t
    u0: np.ndarray
    v0: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        check_tracks(self.tracks(), self.T)

    def tracks(self):
        return asymmetric_tracks(self.u_mat_fns, self.u_add_fns, self.v_mat_fns,
                                 self.v_add_fns, self.u0, self.v0)

    @property
    def m(self):
        return self.u0.shape[0]

    @property
    def n(self):
        return self.v0.shape[0]


# ---------------------------------------------------------------------------
# named builders

def build_power_iteration(T, z0):
    """Unnormalized power iteration: z^(t) = A z^(t-1)."""
    if T < 1:
        raise ConfigError("horizon must be >= 1")
    return SymmetricProgram(
        T=T,
        mat_fns=[pick_iterate(t, t - 1) for t in range(1, T + 1)],
        add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        z0=z0,
    )


def build_tanh_iteration(T, z0):
    """z^(t) = A tanh(z^(t-1)): the bounded-update test program."""
    return SymmetricProgram(
        T=T,
        mat_fns=[tanh_map(t, t - 1) for t in range(1, T + 1)],
        add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        z0=z0,
    )


def _curvature(loss, xi, u, rows):
    """loss.d2(xi - u) at the rows' noise ``xi``.  A quadratic loss has the
    same curvature everywhere, so for one this is the (R,) row loss.d2(xi)."""
    return loss.d2(_sel(xi, rows) if loss.quadratic else _sel(xi, rows) - u)


def build_pgd_linear(loss, prox, eta, mu0, xi, T):
    """Proximal gradient for the linear model as an asymmetric program.

    v-track carries the pre-prox point: mu^(t) = prox_eta(v^(t)), with
    u^(t) = A (mu^(t-1) - mu0) and
    v^(t) = A^T [eta L'(xi - u^(t))] + mu^(t-1).
    The estimate is recovered through meta["mu_from_v"].
    """
    check_step(eta)
    mu0 = np.asarray(mu0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    m, n = xi.shape[0], mu0.shape[0]

    def centered_estimate(t):
        # prox(v^(t-1)) - mu0, feeding the u-update
        return column_map(t, t - 1, lambda v, rows: prox.apply(eta, v) - _sel(mu0, rows),
                          lambda v, rows: prox.dapply(eta, v), row_constant=False)

    def grad_rows(t):
        # eta L'(xi_k - u_k^(t)) entering through A^T
        return column_map(t + 1, t, lambda u, rows: eta * loss.d1(_sel(xi, rows) - u),
                          lambda u, rows: -eta * _curvature(loss, xi, u, rows),
                          row_constant=False)

    u_mat = [constant_rows(-mu0, 1)] + [centered_estimate(t) for t in range(2, T + 1)]
    v_add = [zero_row_function(1)] + [prox_column(prox, eta, t) for t in range(2, T + 1)]
    return AsymmetricProgram(
        T=T,
        u_mat_fns=u_mat,
        u_add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        v_mat_fns=[grad_rows(t) for t in range(1, T + 1)],
        v_add_fns=v_add,
        u0=np.zeros(m),
        v0=np.zeros(n),
        meta={"mu_from_v": lambda v: prox.apply(eta, v)},
    )


def check_step(eta):
    """ConfigError unless the proximal step ``eta`` is a finite number > 0."""
    if not (math.isfinite(eta) and eta > 0):
        raise ConfigError(f"eta must be a finite number > 0, got {eta!r}")


def check_rates(*rates):
    """ConfigError unless each (name, value) pair holds a finite number
    >= 0."""
    for name, value in rates:
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")


def gd_inputs(eta, lam, masks, T, m):
    """Check gradient descent's rates (eta = 0 freezes every track, which
    degenerate-law checks use) and return its (T, m) subsample masks as
    floats: all ones when ``masks`` is None."""
    check_rates(("eta", eta), ("lambda", lam))
    if masks is None:
        return np.ones((T, m))
    masks = np.asarray(masks, dtype=float)
    if masks.shape != (T, m):
        raise ConfigError(f"masks must have shape ({T}, {m})")
    return masks


def build_gd_ridge(loss, eta, lam, mu0, xi, subsample_masks, T):
    """(Stochastic) gradient descent with ridge penalty, centered tracks.

    v^(t) = mu^(t) - mu0 with v^(0) = -mu0; u^(t) = A v^(t-1);
    v^(t) = A^T [eta s^(t-1) L'(xi - u^(t))] + (1 - eta lam) v^(t-1)
            - eta lam mu0.
    subsample_masks: None (full sample) or (T, m) 0/1 array.
    """
    mu0 = np.asarray(mu0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    masks = gd_inputs(eta, lam, subsample_masks, T, xi.shape[0])

    def grad_rows(t):
        mask = masks[t - 1]
        return column_map(
            t + 1, t, lambda u, rows: eta * _sel(mask, rows) * loss.d1(_sel(xi, rows) - u),
            lambda u, rows: -eta * _sel(mask, rows) * _curvature(loss, xi, u, rows),
            row_constant=False)

    def decay(t):
        w = np.zeros(t)
        w[t - 1] = 1.0 - eta * lam
        return affine_combination(t, w, intercept=-eta * lam * mu0)

    return AsymmetricProgram(
        T=T,
        u_mat_fns=[pick_iterate(t, t - 1) for t in range(1, T + 1)],
        u_add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        v_mat_fns=[grad_rows(t) for t in range(1, T + 1)],
        v_add_fns=[decay(t) for t in range(1, T + 1)],
        u0=np.zeros_like(xi),
        v0=-mu0,
        meta={"mu_from_v": lambda v: v + mu0},
    )


def _dlogistic_dmargin(x, z, sigma):
    # d/dz of -s(z) sigmoid(-s(z) x), s = smoothed_sign(., sigma)
    s = smoothed_sign(z, sigma)
    sig = sigmoid(-s * x)
    return dsmoothed_sign(z, sigma) * (-sig + s * x * sig * (1.0 - sig))


def build_logistic(prox, eta, sigma, mu0, xi, T, clamp=None):
    """Smoothed logistic PGD as an asymmetric program.

    Step 1 pushes the fixed signal through A so that u^(1) = A mu0 is the
    clean margin; later steps score u^(t) = A mu^(t-1) against it.  The
    score (first loss argument) is clamped to [-clamp, clamp], default
    20 log n.
    """
    check_rates(("eta", eta), ("sigma", sigma))
    mu0 = np.asarray(mu0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    m, n = xi.shape[0], mu0.shape[0]
    if clamp is None:
        clamp = default_logit_clamp(n)
    if not clamp > 0:
        raise ConfigError(f"clamp must be > 0, got {clamp!r}")

    def grad_rows(t):
        # -eta dL_sigma/dx at x = clip(u^(t)), margin-plus-noise z = u^(1) + xi
        def fn(h, rows):
            x = np.clip(h[..., t], -clamp, clamp) if t > 1 else np.zeros(h.shape[:-1])
            return -eta * logistic_dloss_x(x, h[..., 1], _sel(xi, rows), sigma)

        def dfn(h, rows, which):
            x = np.clip(h[..., t], -clamp, clamp) if t > 1 else np.zeros(h.shape[:-1])
            z = h[..., 1] + _sel(xi, rows)
            if which == t and t > 1:
                s = smoothed_sign(z, sigma)
                sig = sigmoid(-s * x)
                inside = (np.abs(h[..., t]) < clamp).astype(float)
                return -eta * (s * s * sig * (1.0 - sig)) * inside
            if which == 1:
                return -eta * _dlogistic_dmargin(x, z, sigma)
            return np.zeros(_row(h))

        return RowFunction(arity=t + 1, fn=fn, dfn=dfn, row_constant=False)

    estimates = [prox_column(prox, eta, t) for t in range(2, T + 1)]
    u_mat = [constant_rows(mu0, 1)] + estimates
    v_add = [zero_row_function(1)] + estimates
    return AsymmetricProgram(
        T=T,
        u_mat_fns=u_mat,
        u_add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        v_mat_fns=[grad_rows(t) for t in range(1, T + 1)],
        v_add_fns=v_add,
        u0=np.zeros(m),
        v0=np.zeros(n),
        meta={"mu_from_v": lambda v: prox.apply(eta, v)},
    )


# ---------------------------------------------------------------------------
# asymmetric -> symmetric embedding

def _block_row_function(arity, m, n, top, cols_top, bottom, cols_bottom):
    """Embed half-space row functions into the (m+n)-row space.

    ``top`` acts on rows < m reading embedded history columns ``cols_top``;
    ``bottom`` on rows >= m reading ``cols_bottom``; the other half is 0.
    """
    halves = [(f, np.asarray(cols, dtype=int), lower)
              for f, cols, lower in ((top, cols_top, False), (bottom, cols_bottom, True))
              if f is not None]

    def value(h, rows, which=None):
        # the value, or with ``which`` the partial in embedded column which
        idx = np.arange(m + n) if rows is None else np.asarray(rows)
        out = np.zeros(h.shape[:-1])
        for f, cols, lower in halves:
            pos = np.nonzero((idx >= m) == lower)[0]
            hits = None if which is None else np.nonzero(cols == which)[0]
            if pos.size == 0 or (hits is not None and hits.size == 0):
                continue
            sub = np.take(np.take(h, pos, axis=-2), cols, axis=-1)
            sub_rows = None if f.row_constant else idx[pos] - (m if lower else 0)
            out[..., pos] = (f.fn(sub, sub_rows) if hits is None
                             else f.dfn(sub, sub_rows, int(hits[0])))
        return out

    return RowFunction(arity=arity, fn=value, dfn=value, row_constant=False)


def symmetrize(prog, m, n):
    """Embed an asymmetric program into a symmetric one over R^(m+n).

    With the block matrix [[0, A], [A^T, 0]], the embedded run interleaves
    the two tracks: u^(t) occupies the top of column 2t, v^(t) the bottom of
    column 2t+1 (step 1 injects v^(0) as a constant).  Track-for-track the
    embedded run equals the direct asymmetric run exactly.
    """
    if prog.m != m or prog.n != n:
        raise ConfigError(f"program dims ({prog.m}, {prog.n}) != ({m}, {n})")
    T = prog.T
    mat_fns = [zero_row_function(1)]
    add_fns = [constant_rows(np.concatenate([np.zeros(m), prog.v0]), 1)]
    for t in range(1, T + 1):
        u_cols = [2 * s for s in range(t)]           # u^(0..t-1)
        v_cols = [2 * s + 1 for s in range(t)]       # v^(0..t-1)
        u_cols_cur = u_cols + [2 * t]                # u^(0..t)
        mat_fns.append(_block_row_function(
            2 * t, m, n, top=None, cols_top=None,
            bottom=prog.u_mat_fns[t - 1], cols_bottom=v_cols))
        add_fns.append(_block_row_function(
            2 * t, m, n, top=prog.u_add_fns[t - 1], cols_top=u_cols,
            bottom=None, cols_bottom=None))
        mat_fns.append(_block_row_function(
            2 * t + 1, m, n, top=prog.v_mat_fns[t - 1], cols_top=u_cols_cur,
            bottom=None, cols_bottom=None))
        add_fns.append(_block_row_function(
            2 * t + 1, m, n, top=None, cols_top=None,
            bottom=prog.v_add_fns[t - 1], cols_bottom=v_cols))
    return SymmetricProgram(
        T=2 * T + 1,
        mat_fns=mat_fns,
        add_fns=add_fns,
        z0=np.concatenate([prog.u0, np.zeros(n)]),
    )


def embed_matrix(a):
    """[[0, A], [A^T, 0]] for an m x n matrix A (already normalized)."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    out = np.zeros((m + n, m + n))
    out[:m, m:] = a
    out[m:, :m] = a.T
    return out


def extract_embedded_tracks(z_iterates, m, n, T):
    """(u, v) histories from an embedded trajectory's iterate matrix."""
    z = np.asarray(z_iterates)
    u = np.zeros((T + 1, m))
    v = np.zeros((T + 1, n))
    u[0] = z[0][:m]
    v[0] = z[1][m:]
    for t in range(1, T + 1):
        u[t] = z[2 * t][:m]
        v[t] = z[2 * t + 1][m:]
    return u, v


# ---------------------------------------------------------------------------
# derivative consistency

def central_difference(f, x, which, step):
    """(f(x + step e) - f(x - step e)) / (2 step), e moving column ``which``
    (the last axis of x); f sees perturbed copies, never x itself."""
    up = np.array(x)
    up[..., which] += step
    dn = np.array(x)
    dn[..., which] -= step
    return (f(up) - f(dn)) / (2.0 * step)


def check_partials(rf, rng, probes=100, rows_count=None, rel_tol=1e-5, scale=1.5):
    """Max violation of |FD - partial| <= rel_tol * max(1, |partial|).

    Central differences with step 1e-5 * max(1, |x|) at ``probes`` random
    history points; returns the worst signed violation (<= 0 means pass).
    """
    worst = -np.inf
    for _ in range(probes):
        h = rng.normal(scale=scale, size=rf.arity)
        row = 0 if rf.row_constant else int(rng.integers(rows_count))
        for which in range(rf.arity):
            fd = central_difference(lambda x: rf.eval(row, x), h, which,
                                    1e-5 * max(1.0, abs(h[which])))
            an = rf.partial(row, h, which)
            worst = max(worst, abs(fd - an) - rel_tol * max(1.0, abs(an)))
    return worst


def validate_program(prog, seed=0, probes=100):
    """FD-check every row function of a program; raises ConfigError on fail."""
    rng = np.random.default_rng(seed)
    tracks = prog.tracks()
    for name, tr in tracks.items():
        # update functions read the source side's rows, additive ones the
        # side's own
        groups = [("mat", tr.mat_fns, tracks[tr.source].x0.shape[0]),
                  ("add", tr.add_fns, tr.x0.shape[0])]
        for role, fns, rows_count in groups:
            for t, rf in enumerate(fns, start=1):
                bad = check_partials(rf, rng, probes=probes, rows_count=rows_count)
                if bad > 0:
                    raise ConfigError(f"{name}_{role}[{t}] partials off by {bad:.3e} "
                                      "beyond tolerance")
