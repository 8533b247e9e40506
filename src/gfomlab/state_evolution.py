"""Gaussian-limit predictions for the iteration families.

The limiting description of an iteration at a coordinate is a centered
Gaussian path (one value per step, plus the deterministic step-0 value)
with a covariance table built step by step, together with a history
transform.  Corrected iterations read their entrywise limits directly off
the Gaussian paths; uncorrected iterations read them off the transform
applied to the paths.  All expectations over path laws are Monte Carlo
averages using common random numbers across outer steps, so runs at
different horizons agree exactly on the steps they share.

Memory.  The Monte Carlo averages accumulate in fixed blocks (_BLOCK
samples per step of the recursion, _PREDICT_BLOCK per read-out).  The
paths of a block are drawn and pushed through the history transform in
sub-blocks along the sample axis, each a multiple of _SUB_ALIGN samples
holding at most _SUB_BLOCK_BYTES (1 MiB) of path values; a block that
fits stays whole, and so does the first block under ``fd_check``, whose
probe averages over it.  The transform's intermediates are thus sized by
the budget, not by the coordinate count, up to 2048 path values per
sample (R (p+1) floats), where one _SUB_ALIGN sub-block fills the budget.
What still grows with the coordinates is the buffer of per-sample
statistics of one block: (b, R) per statistic for heterogeneous laws
((b, 1) for homogeneous ones) and (b, coordinates) in the read-out.  The
statistics reach the accumulators exactly as an unsplit block's would:
normals come sequentially from the same streams, every per-sample
operation acts row by row, and the one BLAS product whose rows depend on
the shape of the call runs on whole blocks.  So the sub-block size never
changes the accumulation layout or a single output byte.
"""

import json

import numpy as np
from numpy.random import Generator, Philox

from .ensembles import profile_weights
from .errors import ConfigError, NumericalError
from .programs import RowFunction, SymmetricProgram
from .seeds import DOMAIN_PREDICT, DOMAIN_SE, child_sequence, fixed_child

PSD_FLOOR = -1e-10
DEFAULT_MC = 20000
_BLOCK = 4096
_PREDICT_BLOCK = 16384
# path values of one sub-block, in bytes
_SUB_BLOCK_BYTES = 1 << 20
# sub-blocks hold a multiple of this many samples: BLAS matrix-vector
# kernels treat the last (row count mod 4) rows of a call differently
_SUB_ALIGN = 64


def _sel(param, rows):
    return param if rows is None else np.asarray(param)[rows]


def _sub_blocks(b, row_values):
    """(lo, hi) sample ranges splitting a b-sample block whose paths hold
    ``row_values`` floats per sample into pieces within the byte budget
    (or of _SUB_ALIGN samples when a single one exceeds it)."""
    size = _SUB_BLOCK_BYTES // (8 * max(1, row_values))
    size = max(_SUB_ALIGN, size - size % _SUB_ALIGN)
    return [(lo, min(lo + size, b)) for lo in range(0, b, size)]


def _draw_paths(gens, factors, x0, b):
    """(b, R, p+1) Gaussian paths over the R rows of ``x0``.

    Column 0 holds x0; columns 1..p hold standard normals mixed by
    ``factors`` ((1 or R, p, p); None when p = 0).  One generator draws all
    p columns at once, otherwise generator q draws column q.  Each call
    continues the streams, so a block drawn in sub-blocks gets the same
    variates as one drawn whole.
    """
    r = x0.shape[0]
    p = 0 if factors is None else factors.shape[-1]
    paths = np.empty((b, r, p + 1))
    paths[..., 0] = x0
    if p:
        if len(gens) == 1:
            g = gens[0].standard_normal((b, r, p))
        else:
            g = np.stack([gq.standard_normal((b, r)) for gq in gens], axis=-1)
        if factors.shape[0] == 1:
            paths[..., 1:] = np.einsum("ij,brj->bri", factors[0], g)
        else:
            paths[..., 1:] = np.einsum("rij,brj->bri", factors, g)
    return paths


def _rows_identical(w):
    return bool(np.all(w == w[:1, :]))


class GaussianLawTable:
    """Per-coordinate Gaussian path law.

    ``cov`` has shape (C, T, T) over steps 1..T with C = 1 when every
    coordinate shares the same table; ``x0`` holds the deterministic step-0
    values.  ``cov_se`` carries the Monte Carlo standard error of each entry.
    """

    def __init__(self, x0, T, homogeneous):
        self.x0 = np.asarray(x0, dtype=float)
        self.T = T
        self.homogeneous = homogeneous
        c = 1 if homogeneous else self.x0.shape[0]
        self.cov = np.zeros((c, T, T))
        self.cov_se = np.zeros((c, T, T))

    @property
    def coords(self):
        return self.x0.shape[0]

    def coord_cov(self, k):
        return self.cov[0 if self.homogeneous else k]

    def factors(self, t, coords=None):
        """(C', t, t) matrices M with M M^T = leading covariance block.

        Eigenvalues in [PSD_FLOOR, 0) are clipped to 0; anything below the
        floor raises NumericalError.
        """
        if self.homogeneous or coords is None:
            block = self.cov[:, :t, :t]
        else:
            block = self.cov[np.asarray(coords), :t, :t]
        vals, vecs = np.linalg.eigh(block)
        low = float(vals.min(initial=0.0))
        if low < PSD_FLOOR:
            where = np.unravel_index(int(np.argmin(vals)), vals.shape)
            raise NumericalError(
                f"covariance block through step {t} has eigenvalue {low:.3e} "
                f"below the PSD floor (coordinate slot {where[0]})"
            )
        return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


class HistoryTransform:
    """Correction recursion from Gaussian path columns to iterate columns.

    Output column j is

        path_j + sum_s coeffs[j-1][s-1] * inner_s(out cols) + outer_j(out cols)

    where inner_s reads out columns 0..s-1 (0..s when inner_uses_current)
    and the correction sum runs over s <= j-1 (s <= j when
    corr_includes_current).  ``raw=True`` turns the transform into the
    identity: no corrections, no outer terms; the inner functions are then
    evaluated directly on the paths.
    """

    def __init__(self, inner_fns, outer_fns, inner_uses_current,
                 corr_includes_current, width, raw=False, coeffs=None):
        self.inner_fns = list(inner_fns)
        self.outer_fns = None if outer_fns is None else list(outer_fns)
        self.inner_uses_current = inner_uses_current
        self.corr_includes_current = corr_includes_current
        self.width = width
        self.raw = raw
        self.coeffs = [] if coeffs is None else [np.asarray(c, dtype=float) for c in coeffs]

    def n_corr(self, j):
        if self.raw:
            return 0
        return j if self.corr_includes_current else j - 1

    def row_constant(self):
        ok = all(f.row_constant for f in self.inner_fns)
        if self.outer_fns is not None:
            ok = ok and all(f.row_constant for f in self.outer_fns)
        return ok

    def coeffs_constant(self):
        return all(c.size == 0 or np.ptp(c, axis=1).max() == 0.0 for c in self.coeffs)

    def apply(self, hist, rows=None):
        hist = np.asarray(hist, dtype=float)
        if self.raw:
            return hist.copy()
        out, _, _ = _forward(self, hist, rows, inner_upto=0, with_partials=False)
        return out


def _forward(tr, paths, rows, inner_upto, with_partials):
    """Forward pass of a transform on path arrays (..., R, C+1).

    Returns (out, inner, dinner): out is the (..., R, C+1) history of
    output columns, filled column by column; row functions read views of
    its leading columns.  inner[s] is inner_s evaluated on the transformed
    history, dinner[(s, q)] its total derivative in path column q obtained
    by chaining through the recursion.  inner is filled at least up to
    ``inner_upto``.
    """
    C = paths.shape[-1] - 1
    inc = 1 if tr.inner_uses_current else 0
    base = paths.shape[:-1]
    out = np.empty(paths.shape)
    out[..., 0] = paths[..., 0]
    inner, dinner, J = {}, {}, {}

    def compute_inner(s):
        if s in inner:
            return
        sl = out[..., : s + inc]
        inner[s] = np.asarray(tr.inner_fns[s - 1].fn(sl, rows), dtype=float)
        if with_partials:
            for w in range(1, s + inc):
                dw = tr.inner_fns[s - 1].dfn(sl, rows, w)
                if not np.any(dw):
                    continue
                for q in range(1, w + 1):
                    jwq = J.get((w, q))
                    if jwq is not None:
                        dinner[(s, q)] = dinner.get((s, q), 0.0) + dw * jwq

    for j in range(1, C + 1):
        col = out[..., j]
        col[...] = paths[..., j]
        jcol = {j: np.ones(base)} if with_partials else None
        for r in range(1, tr.n_corr(j) + 1):
            compute_inner(r)
            cv = _sel(tr.coeffs[j - 1][r - 1], rows)
            col += cv * inner[r]
            if with_partials:
                for q in range(1, r + inc):
                    d = dinner.get((r, q))
                    if d is not None:
                        jcol[q] = jcol.get(q, 0.0) + cv * d
        if not tr.raw and tr.outer_fns is not None:
            sl = out[..., :j]
            col += tr.outer_fns[j - 1].fn(sl, rows)
            if with_partials:
                for w in range(1, j):
                    dw = tr.outer_fns[j - 1].dfn(sl, rows, w)
                    if not np.any(dw):
                        continue
                    for q in range(1, w + 1):
                        jwq = J.get((w, q))
                        if jwq is not None:
                            jcol[q] = jcol.get(q, 0.0) + dw * jwq
        if with_partials:
            for q, val in jcol.items():
                J[(j, q)] = val
    for s in range(1, inner_upto + 1):
        compute_inner(s)
    return out, inner, dinner


class _MeanAccumulator:
    """Streaming mean/SE around a first-batch shift.

    Accumulating deviations from the first sample keeps the variance free
    of catastrophic cancellation, so constant samples report SE exactly 0.
    """

    def __init__(self, dim):
        self.shift = None
        self.sum = np.zeros(dim)
        self.sumsq = np.zeros(dim)
        self.count = 0

    def add(self, samples):
        if self.shift is None:
            self.shift = np.array(samples[0], dtype=float)
        dev = samples - self.shift
        self.sum += dev.sum(axis=0)
        self.sumsq += np.square(dev).sum(axis=0)
        self.count += samples.shape[0]

    def mean(self):
        return self.shift + self.sum / self.count

    def se(self):
        if self.count < 2:
            return np.zeros_like(self.sum)
        var = (self.sumsq - self.sum**2 / self.count) / (self.count - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.count)


class _SideEngine:
    """Monte Carlo driver building one Gaussian law.

    ``weights`` rows index this law's coordinates; its columns index the
    path process the expectations average over.  When the path process
    collapses (row-constant functions, constant step-0 value, constant
    correction vectors) a single representative path is simulated.
    """

    def __init__(self, weights, law_x0, path_x0, transform, T, mc,
                 seed_seq, coeffs_constant, fd_check):
        self.w = np.asarray(weights, dtype=float)
        self.rowsums = self.w.sum(axis=1)
        self.hom = _rows_identical(self.w)
        self.law = GaussianLawTable(law_x0, T, homogeneous=self.hom)
        self.path_x0 = np.asarray(path_x0, dtype=float)
        self.tr = transform
        self.T = T
        self.mc = int(mc)
        if self.mc < 2:
            raise ConfigError("need at least 2 Monte Carlo samples")
        self.seed_seq = seed_seq
        # one stream per path column: draws for column j never depend on the
        # horizon, so a run at T' <= T reuses exactly the same variates
        self.col_seqs = [fixed_child(seed_seq, j) for j in range(1, T + 1)]
        self.fd_check = fd_check
        self.fd_gap = 0.0
        self.coeffs_constant = coeffs_constant
        self.path_collapsed = bool(
            transform.row_constant()
            and coeffs_constant
            and (self.path_x0.size == 0 or np.ptp(self.path_x0) == 0.0)
        )
        self.path_law = None  # wired by the orchestrator

    def _sample_stat(self, x):
        # per-sample part of the aggregation of (b, R) row statistics; the
        # matrix-vector kernels keep rows exact on _SUB_ALIGN multiples
        if self.path_collapsed:
            return x[:, :1]
        if self.hom:
            return (x @ self.w[0])[:, None]
        return x

    def _agg(self, stats):
        # a BLAS matrix product's rows depend on the row count and thread
        # split of the call, so the heterogeneous product runs on whole blocks
        if self.path_collapsed or self.hom:
            return stats
        return stats @ self.w.T

    def _extract(self, acc):
        mean, se = acc.mean(), acc.se()
        k = self.w.shape[0]
        if self.path_collapsed:
            return self.rowsums * mean[0], self.rowsums * se[0]
        if self.hom:
            return np.full(k, mean[0]), np.full(k, se[0])
        return mean, se

    def step(self, t, n_path_cols):
        """Advance the law to row t; returns per-earlier-step coefficient
        vectors [(vec, se), ...] for path columns 1..n_path_cols."""
        p = n_path_cols
        r_draw = 1 if self.path_collapsed else self.path_x0.shape[0]
        x0 = self.path_x0[:1] if self.path_collapsed else self.path_x0
        rows = np.array([0]) if self.path_collapsed else None
        factors = self.path_law.factors(p) if p > 0 else None
        dim = 1 if (self.path_collapsed or self.hom) else self.w.shape[0]
        coeff_acc = [_MeanAccumulator(dim) for _ in range(p)]
        prod_acc = [_MeanAccumulator(dim) for _ in range(t)]
        # fresh generators per outer step = common random numbers across steps
        gens = [Generator(Philox(s)) for s in self.col_seqs[:p]]
        probe = self.fd_check and p > 0
        remaining = self.mc
        while remaining > 0:
            b = min(_BLOCK, remaining)
            remaining -= b
            # per-sample statistics of the whole block, in accumulator order;
            # raw row statistics where _agg needs the whole block
            stats = np.empty((p + t, b, 1 if dim == 1 else r_draw))
            # the finite-difference probe averages over the whole first block
            pieces = [(0, b)] if probe else _sub_blocks(b, r_draw * (p + 1))
            for lo, hi in pieces:
                paths = _draw_paths(gens, factors, x0, hi - lo)
                _, inner, dinner = _forward(self.tr, paths, rows, inner_upto=t,
                                            with_partials=True)
                et = inner[t]
                for s in range(1, p + 1):
                    d = dinner.get((t, s))
                    d = np.zeros_like(et) if d is None else np.broadcast_to(d, et.shape)
                    stats[s - 1, lo:hi] = self._sample_stat(d)
                for tau in range(1, t + 1):
                    stats[p + tau - 1, lo:hi] = self._sample_stat(et * inner[tau])
                if probe:
                    self._fd_probe(paths, rows, t, p, dinner)
            probe = False
            for acc, block in zip(coeff_acc + prod_acc, stats):
                acc.add(self._agg(block))
        for tau in range(1, t + 1):
            mvec, svec = self._extract(prod_acc[tau - 1])
            cm = mvec[:1] if self.hom else mvec
            cs = svec[:1] if self.hom else svec
            self.law.cov[:, t - 1, tau - 1] = cm
            self.law.cov[:, tau - 1, t - 1] = cm
            self.law.cov_se[:, t - 1, tau - 1] = cs
            self.law.cov_se[:, tau - 1, t - 1] = cs
        return [self._extract(coeff_acc[s - 1]) for s in range(1, p + 1)]

    def _fd_probe(self, paths, rows, t, p, dinner):
        # cross-check chained partials against central differences on one block
        h = 1e-4
        for s in range(1, p + 1):
            up = np.array(paths)
            up[..., s] += h
            dn = np.array(paths)
            dn[..., s] -= h
            _, iu, _ = _forward(self.tr, up, rows, inner_upto=t, with_partials=False)
            _, idn, _ = _forward(self.tr, dn, rows, inner_upto=t, with_partials=False)
            fd = (iu[t] - idn[t]) / (2.0 * h)
            an = dinner.get((t, s), 0.0)
            gap = float(np.max(np.abs(np.mean(fd - an, axis=0))))
            self.fd_gap = max(self.fd_gap, gap)


class SeRecord:
    """Everything needed to read out one iteration's Gaussian limit."""

    def __init__(self, kind, mc, seed, fd_gap=None, law=None, transform=None,
                 coeff_se=None, onsager=None, onsager_se=None,
                 u_law=None, v_law=None, u_transform=None, v_transform=None,
                 u_coeff_se=None, v_coeff_se=None,
                 u_onsager=None, v_onsager=None,
                 u_onsager_se=None, v_onsager_se=None, collapsed=None):
        self.kind = kind
        self.mc = mc
        self.seed = seed
        self.fd_gap = fd_gap
        self.law = law
        self.transform = transform
        self.coeff_se = coeff_se
        self.onsager = onsager
        self.onsager_se = onsager_se
        self.u_law = u_law
        self.v_law = v_law
        self.u_transform = u_transform
        self.v_transform = v_transform
        self.u_coeff_se = u_coeff_se
        self.v_coeff_se = v_coeff_se
        self.u_onsager = u_onsager
        self.v_onsager = v_onsager
        self.u_onsager_se = u_onsager_se
        self.v_onsager_se = v_onsager_se
        self.collapsed = collapsed or {}

    @property
    def symmetric(self):
        return self.law is not None

    def side(self, name):
        """(law, transform) pair for reading out one track."""
        table = {
            "z": (self.law, self.transform),
            "u": (self.u_law, self.u_transform),
            "v": (self.v_law, self.v_transform),
        }
        if name not in table or table[name][0] is None:
            raise ConfigError(f"record has no side {name!r}")
        return table[name]

    def to_json_dict(self):
        def law_dict(law):
            if law is None:
                return None
            return {
                "x0": law.x0.tolist(),
                "homogeneous": law.homogeneous,
                "cov": law.cov.tolist(),
                "cov_se": law.cov_se.tolist(),
            }

        def coeff_list(cs):
            if cs is None:
                return None
            return [np.asarray(c).tolist() for c in cs]

        return {
            "kind": self.kind,
            "mc": self.mc,
            "seed": self.seed,
            "fd_gap": self.fd_gap,
            "collapsed": self.collapsed,
            "law": law_dict(self.law),
            "u_law": law_dict(self.u_law),
            "v_law": law_dict(self.v_law),
            "memory_coeffs": coeff_list(None if self.transform is None
                                        else self.transform.coeffs),
            "onsager": coeff_list(self.onsager),
            "u_onsager": coeff_list(self.u_onsager),
            "v_onsager": coeff_list(self.v_onsager),
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _weights_for(profile, m, n, normalization):
    w = profile_weights(profile, m, n, normalization)
    if not np.all(np.isfinite(w)) or w.min() < 0:
        raise ConfigError("profile must be finite and nonnegative")
    return w


def _sym_setup(z0_default, z0, T, T_max):
    z0 = np.asarray(z0_default if z0 is None else z0, dtype=float)
    T = T_max if T is None else int(T)
    if not 1 <= T <= T_max:
        raise ConfigError(f"horizon {T} outside 1..{T_max}")
    return z0, T


def se_symmetric(prog, profile, z0=None, T=None, mc_samples=DEFAULT_MC, seed=0,
                 normalization="inv_sqrt_n", fd_check=False):
    """Gaussian law + history transform for a symmetric (uncorrected) program.

    ``profile`` holds un-normalized per-entry second moments; with the
    default normalization the effective weights are profile / n.
    """
    n = prog.n
    z0, T = _sym_setup(prog.z0, z0, T, prog.T)
    w = _weights_for(profile, n, n, normalization)
    transform = HistoryTransform(prog.mat_fns, prog.add_fns,
                                 inner_uses_current=False,
                                 corr_includes_current=False, width=n)
    eng = _SideEngine(w, law_x0=z0, path_x0=z0, transform=transform,
                      T=T, mc=mc_samples, seed_seq=child_sequence(seed, DOMAIN_SE, 0),
                      coeffs_constant=_rows_identical(w), fd_check=fd_check)
    eng.path_law = eng.law
    coeff_se = []
    for t in range(1, T + 1):
        vecs = eng.step(t, n_path_cols=t - 1)
        transform.coeffs.append(
            np.stack([v for v, _ in vecs]) if vecs else np.zeros((0, n)))
        coeff_se.append(
            np.stack([s for _, s in vecs]) if vecs else np.zeros((0, n)))
    return SeRecord("gfom_symmetric", mc_samples, seed,
                    fd_gap=eng.fd_gap if fd_check else None,
                    law=eng.law, transform=transform, coeff_se=coeff_se,
                    collapsed={"z": eng.path_collapsed})


def amp_se_symmetric(fns, profile, z0, T=None, mc_samples=DEFAULT_MC, seed=0,
                     normalization="inv_sqrt_n", fd_check=False):
    """Gaussian law + memory coefficients for a corrected symmetric iteration."""
    z0, T = _sym_setup(z0, None, T, len(fns))
    n = z0.shape[0]
    w = _weights_for(profile, n, n, normalization)
    transform = HistoryTransform(fns, None, inner_uses_current=False,
                                 corr_includes_current=False, width=n, raw=True)
    eng = _SideEngine(w, law_x0=z0, path_x0=z0, transform=transform,
                      T=T, mc=mc_samples, seed_seq=child_sequence(seed, DOMAIN_SE, 0),
                      coeffs_constant=True, fd_check=fd_check)
    eng.path_law = eng.law
    onsager, onsager_se = [], []
    for t in range(1, T + 1):
        vecs = eng.step(t, n_path_cols=t - 1)
        onsager.append(np.stack([v for v, _ in vecs]) if vecs else np.zeros((0, n)))
        onsager_se.append(np.stack([s for _, s in vecs]) if vecs else np.zeros((0, n)))
    return SeRecord("amp_symmetric", mc_samples, seed,
                    fd_gap=eng.fd_gap if fd_check else None,
                    law=eng.law, transform=transform,
                    onsager=onsager, onsager_se=onsager_se,
                    collapsed={"z": eng.path_collapsed})


def _asym_drive(u_inner, u_outer, v_inner, v_outer, u0, v0, weights, T, mc,
                seed, fd_check, raw):
    """Shared two-sided recursion; returns engines and both transforms.

    v_transform maps v-paths to v-iterate columns (correction sum includes
    the current step, inner functions read strictly earlier columns);
    u_transform maps u-paths to u-iterate columns (corrections exclude the
    current step, inner functions read through the current column).
    """
    w = np.asarray(weights, dtype=float)
    m, n = w.shape
    v_tr = HistoryTransform(u_inner, v_outer, inner_uses_current=False,
                            corr_includes_current=True, width=n, raw=raw)
    u_tr = HistoryTransform(v_inner, u_outer, inner_uses_current=True,
                            corr_includes_current=False, width=m, raw=raw)
    cols_ident = _rows_identical(w.T)
    rows_ident = _rows_identical(w)
    u_eng = _SideEngine(w, law_x0=u0, path_x0=v0, transform=v_tr, T=T, mc=mc,
                        seed_seq=child_sequence(seed, DOMAIN_SE, 0),
                        coeffs_constant=True if raw else cols_ident,
                        fd_check=fd_check)
    v_eng = _SideEngine(w.T, law_x0=v0, path_x0=u0, transform=u_tr, T=T, mc=mc,
                        seed_seq=child_sequence(seed, DOMAIN_SE, 1),
                        coeffs_constant=True if raw else rows_ident,
                        fd_check=fd_check)
    u_eng.path_law = v_eng.law
    v_eng.path_law = u_eng.law
    u_tab, u_tab_se, v_tab, v_tab_se = [], [], [], []
    for t in range(1, T + 1):
        fvecs = u_eng.step(t, n_path_cols=t - 1)
        u_tab.append(np.stack([v for v, _ in fvecs]) if fvecs else np.zeros((0, m)))
        u_tab_se.append(np.stack([s for _, s in fvecs]) if fvecs else np.zeros((0, m)))
        if not raw:
            u_tr.coeffs.append(u_tab[-1])
        gvecs = v_eng.step(t, n_path_cols=t)
        v_tab.append(np.stack([v for v, _ in gvecs]))
        v_tab_se.append(np.stack([s for _, s in gvecs]))
        if not raw:
            v_tr.coeffs.append(v_tab[-1])
    fd = max(u_eng.fd_gap, v_eng.fd_gap) if fd_check else None
    collapsed = {"u": v_eng.path_collapsed, "v": u_eng.path_collapsed}
    return u_eng, v_eng, u_tr, v_tr, u_tab, u_tab_se, v_tab, v_tab_se, fd, collapsed


def se_asymmetric(prog, profile, u0=None, v0=None, T=None,
                  mc_samples=DEFAULT_MC, seed=0, normalization="inv_sqrt_m",
                  fd_check=False):
    """Gaussian laws + history transforms for an asymmetric program."""
    u0 = np.asarray(prog.u0 if u0 is None else u0, dtype=float)
    v0 = np.asarray(prog.v0 if v0 is None else v0, dtype=float)
    T = prog.T if T is None else int(T)
    if not 1 <= T <= prog.T:
        raise ConfigError(f"horizon {T} outside 1..{prog.T}")
    w = _weights_for(profile, prog.m, prog.n, normalization)
    (u_eng, v_eng, u_tr, v_tr, _, u_se, _, v_se, fd,
     collapsed) = _asym_drive(prog.u_mat_fns, prog.u_add_fns,
                              prog.v_mat_fns, prog.v_add_fns,
                              u0, v0, w, T, mc_samples, seed,
                              fd_check, raw=False)
    return SeRecord("gfom_asymmetric", mc_samples, seed, fd_gap=fd,
                    u_law=u_eng.law, v_law=v_eng.law,
                    u_transform=u_tr, v_transform=v_tr,
                    u_coeff_se=u_se, v_coeff_se=v_se, collapsed=collapsed)


def amp_se_asymmetric(u_fns, v_fns, profile, u0, v0, T=None,
                      mc_samples=DEFAULT_MC, seed=0,
                      normalization="inv_sqrt_m", fd_check=False):
    """Laws + memory coefficient tables for a corrected asymmetric iteration."""
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    w = _weights_for(profile, u0.shape[0], v0.shape[0], normalization)
    if len(u_fns) != len(v_fns):
        raise ConfigError("update function lists must have equal length")
    T = len(u_fns) if T is None else int(T)
    if not 1 <= T <= len(u_fns):
        raise ConfigError(f"horizon {T} outside 1..{len(u_fns)}")
    (u_eng, v_eng, u_tr, v_tr, u_tab, u_se, v_tab, v_se, fd,
     collapsed) = _asym_drive(u_fns, None, v_fns, None, u0, v0, w,
                              T, mc_samples, seed, fd_check, raw=True)
    return SeRecord("amp_asymmetric", mc_samples, seed, fd_gap=fd,
                    u_law=u_eng.law, v_law=v_eng.law,
                    u_transform=u_tr, v_transform=v_tr,
                    u_onsager=u_tab, v_onsager=v_tab,
                    u_onsager_se=u_se, v_onsager_se=v_se, collapsed=collapsed)


class AmpFromGfom:
    """Corrected-iteration ingredients induced by an uncorrected program."""

    def __init__(self, kind, fns=None, onsager=None, u_fns=None, v_fns=None,
                 u_onsager=None, v_onsager=None):
        self.kind = kind
        self.fns = fns
        self.onsager = onsager
        self.u_fns = u_fns
        self.v_fns = v_fns
        self.u_onsager = u_onsager
        self.v_onsager = v_onsager


def _compose_with_transform(rf, transform, arity):
    """rf applied to the transformed history (partials: central differences;
    these composites drive iterations, they are not state-evolution inputs)."""

    def fn(h, rows):
        return rf.fn(transform.apply(h, rows), rows)

    def dfn(h, rows, which):
        x = np.asarray(h, dtype=float)
        step = 1e-6 * max(1.0, float(np.max(np.abs(x[..., which]), initial=0.0)))
        up = np.array(x)
        up[..., which] += step
        dn = np.array(x)
        dn[..., which] -= step
        return (fn(up, rows) - fn(dn, rows)) / (2.0 * step)

    return RowFunction(arity=arity, fn=fn, dfn=dfn, row_constant=False)


def gfom_to_amp(prog, record):
    """Translate an uncorrected program into the corrected iteration that
    reproduces it pathwise: compose each update with the history transform
    and reuse the transform's correction vectors as memory coefficients."""
    if isinstance(prog, SymmetricProgram):
        if record.kind != "gfom_symmetric":
            raise ConfigError("record was not built from a symmetric program")
        if len(record.transform.coeffs) < prog.T:
            raise ConfigError("record horizon shorter than the program's")
        fns = [_compose_with_transform(prog.mat_fns[t - 1], record.transform, t)
               for t in range(1, prog.T + 1)]
        return AmpFromGfom("symmetric", fns=fns,
                           onsager=[np.array(c) for c in record.transform.coeffs[:prog.T]])
    if record.kind != "gfom_asymmetric":
        raise ConfigError("record was not built from an asymmetric program")
    if len(record.u_transform.coeffs) < prog.T:
        raise ConfigError("record horizon shorter than the program's")
    u_fns = [_compose_with_transform(prog.u_mat_fns[t - 1], record.v_transform, t)
             for t in range(1, prog.T + 1)]
    v_fns = [_compose_with_transform(prog.v_mat_fns[t - 1], record.u_transform, t + 1)
             for t in range(1, prog.T + 1)]
    return AmpFromGfom("asymmetric", u_fns=u_fns, v_fns=v_fns,
                       u_onsager=[np.array(c) for c in record.u_transform.coeffs[:prog.T]],
                       v_onsager=[np.array(c) for c in record.v_transform.coeffs[:prog.T]])


def predict_entrywise(record, coords, psi, side="z", t=None,
                      n_paths=DEFAULT_MC, seed=0):
    """Predicted E[psi(iterate_coordinate)] at step t with MC standard errors.

    Returns (means, ses) aligned with ``coords``.  For corrected-iteration
    records the transform is the identity and the prediction reads the raw
    Gaussian path; otherwise the history transform is applied first.
    """
    law, transform = record.side(side)
    if t is None:
        t = law.T
    if not 1 <= t <= law.T:
        raise ConfigError(f"step {t} outside 1..{law.T}")
    coords = np.asarray(coords, dtype=int)
    if coords.size and (coords.min() < 0 or coords.max() >= law.coords):
        raise ConfigError("coordinate outside range")
    collapsed = record.collapsed.get(side, False)
    sel = np.array([0]) if collapsed else coords
    factors = law.factors(t, coords=sel)
    gens = [Generator(Philox(child_sequence(seed, DOMAIN_PREDICT, 0)))]
    x0 = law.x0[sel]
    acc = [_MeanAccumulator(1) for _ in sel]
    remaining = int(n_paths)
    while remaining > 0:
        b = min(_PREDICT_BLOCK, remaining)
        remaining -= b
        vals = np.empty((b, len(sel)))
        for lo, hi in _sub_blocks(b, len(sel) * (t + 1)):
            out = transform.apply(_draw_paths(gens, factors, x0, hi - lo), rows=sel)
            vals[lo:hi] = psi(out[..., t])
        for i in range(len(sel)):
            acc[i].add(vals[:, i : i + 1])
    means = np.array([a.mean()[0] for a in acc])
    ses = np.array([a.se()[0] for a in acc])
    if collapsed:
        return np.full(len(coords), means[0]), np.full(len(coords), ses[0])
    return means, ses
