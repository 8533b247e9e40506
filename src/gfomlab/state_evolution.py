"""Gaussian-limit predictions for the iteration families.

The limiting description of an iteration at a coordinate is a centered
Gaussian path (one value per step, plus the deterministic step-0 value)
with a covariance table built step by step, together with a history
transform.  Corrected iterations read their entrywise limits directly off
the Gaussian paths; uncorrected iterations read them off the transform
applied to the paths.  All expectations over path laws are Monte Carlo
averages using common random numbers across outer steps, so runs at
different horizons agree exactly on the steps they share.  Paths are drawn
through factors of the covariance blocks (psd_factors), which clip negative
eigenvalues down to min(PSD_FLOOR, -4 ||SE||_F) per coordinate slot: Monte
Carlo noise in a nearly singular law is clipped, a larger deficit raises.

Memory.  Every Monte Carlo average in the package, here and in ``gd_se``,
sums its samples one way.  It accumulates in fixed blocks (_BLOCK samples
per step of a recursion, _PREDICT_BLOCK per read-out) and holds no
per-block buffer.  _leaf_schedule lists the leaves of numpy's pairwise-sum
tree over each block: a node of more than one leaf of samples splits where
numpy splits it (half, rounded down to a multiple of 8), left before right,
and a leaf of about _SUB_BLOCK_BYTES (1 MiB) of statistics (in the
read-out, of normals), never fewer than numpy's unsplit 128-sample block,
is summed by numpy itself.  _MeanAccumulator.fold adds a leaf and closes
the nodes it completes, so only the open nodes' sums are held, and each row
total has the bytes of numpy's sum over the whole block row.  The
recursions and ``gd_se`` run one average at a time through _mc_average.
The read-out runs all the (side, step) cells it is asked for in one pass
over its stream, always advancing the cell furthest behind, so a bounded
tape of normals serves them all (see predict_entrywise).  The recursion's
rows are its statistics per class of identical weight rows: a coordinate's
law depends on the weights only through its own row, so a constant or
two-block profile keeps one or two rows per statistic, however many
coordinates it has.  A leaf's paths are mixed by _draw_paths, the package's
one Gaussian path sampler (``gd_se`` uses it too), from the normal columns
it is handed: in the engines and ``gd_se``, one stream per column from
_column_generators, the one owner of the column-stream keys, mixed into one
path buffer that every sub-block of a step reuses; in the read-out, strided
views of the columns of the one prediction stream, mixed straight from its
tape with no copy to planes (the mixing is elementwise, so the layout moves
no byte).  Who draws: every stream here is read in order, and each knows
its pieces before the first is drawn (an average's sub-blocks from _leaves
and _sub_blocks, the read-out's stream from its total length).  So
_DrawAhead has the strip pool's helper (``ensembles._strip_pool``) draw the
next pieces into a small ring while the caller mixes and transforms the
current one.  A piece that the helper has not begun when the caller needs
it (one CPU, or the helper busy) the caller draws itself, through the same
function and in the same order, so no byte depends on who drew it.  The
read-out holds one workspace per call (paths and a leaf's statistics, each
sized for the largest sub-block or leaf of any cell) and reuses it for
every leaf of every cell, so no leaf hands its buffers back to the
allocator, which would trim them and fault them in again for the next.
The history transform overwrites the paths it is given, column by column
(see _forward), so no second set of planes holds the transformed history;
a caller that needs its paths afterwards passes a copy.  Every path array
is stored as column planes: one contiguous (samples, R) block per path
column, handed out as a (samples, R, p+1) view, so each per-column
operation streams through memory.  Partials
that do not vary over the samples stay (R,) rows through the chain rule
(see _forward) and are broadcast to planes only where a plane is
consumed.  The sampler mixes the normal draws into the planes with
explicit multiply-adds summed in one fixed order
(``programs.fixed_order_sum``), whatever the layout, which up to 7 columns
is the order numpy's einsum took here.  The paths are pushed through the
history transform in sub-blocks along the sample axis, each holding at most
_SUB_BLOCK_BYTES of path values: a multiple of _SUB_ALIGN samples while one
fits, else of 8 samples.  A leaf that fits stays whole.  The transform's
intermediates are thus sized by the budget, not by the coordinate count, up
to 16384 path values per sample (R (p+1) floats), where one 8-sample
sub-block fills the budget.  The finite-difference probe of ``fd_check`` is
a pass of its own after a step's average: it redraws the step's first block
whole from the same column streams, so it sees the variates the average saw
and changes no byte of the law.  The statistics reach the accumulators
exactly as an unsplit block's would: normals come sequentially from the
same streams, every per-sample operation acts row by row, and the
matrix-vector products that weigh a class run on pieces of a multiple of 8
samples, save a block's last, so BLAS computes every row the same way.  So
neither the sub-block nor the leaf size changes an output byte, and neither
does the BLAS thread count.
"""

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .ensembles import _strip_pool, profile_weights
from .errors import ConfigError, NumericalError
from .programs import (RowFunction, SymmetricProgram, _sel, asymmetric_tracks,
                       central_difference, check_tracks, fixed_order_sum,
                       symmetric_tracks)
from .seeds import DOMAIN_PREDICT, DOMAIN_SE, child_sequence, fixed_child

PSD_FLOOR = -1e-10
DEFAULT_MC = 20000
_BLOCK = 4096
_PREDICT_BLOCK = 16384
# path values of one sub-block, in bytes
_SUB_BLOCK_BYTES = 1 << 20
# sub-blocks hold a multiple of this many samples while one fits, else of 8:
# BLAS matrix-vector kernels treat the last (row count mod 4) rows differently
_SUB_ALIGN = 64
# the read-out's stream is drawn ahead in pieces of this many normals, into a
# ring of this many pieces (512 KiB): a 768 KiB ring of 3 pieces ran no
# faster and raised the process's peak RSS by 0.2 MB more
_TAPE_PIECE = 1 << 14
_TAPE_SLOTS = 4


def _sub_blocks(b, row_values):
    """(lo, hi) sample ranges splitting a b-sample block whose paths hold
    ``row_values`` floats per sample into pieces within the byte budget:
    multiples of _SUB_ALIGN samples while one fits, else of 8 (or 8 samples
    when a single one exceeds it)."""
    size = _SUB_BLOCK_BYTES // (8 * max(1, row_values))
    size = max(8, size - size % (_SUB_ALIGN if size >= _SUB_ALIGN else 8))
    return [(lo, min(lo + size, b)) for lo in range(0, b, size)]


def _planes(shape, buf=None):
    """An uninitialised array of ``shape`` (..., C) stored as C contiguous
    planes: the (..., C) view of a (C, ...) buffer, so column j is one
    contiguous block.  The buffer is the head of the flat array ``buf``
    when one is given, else a new one."""
    block = shape[-1:] + shape[:-1]
    block = np.empty(block) if buf is None else buf[:math.prod(block)].reshape(block)
    return np.moveaxis(block, 0, -1)


def _mix(out, factors, cols):
    """Write sum_j factors[:, i, j] * cols[j] into out[..., i] for the p
    (b, R) draws ``cols``, factors (1 or R, p, p) and (b, R, p) planes
    ``out``, summing through ``fixed_order_sum``.  Up to p = 7 that order is
    the one numpy's einsum takes on these operands, so the bytes equal
    ``einsum("rij,brj->bri", factors, cols)``; from p = 8 einsum switches
    to a fused multiply-add kernel and agrees to rounding only."""
    fac = np.ascontiguousarray(np.moveaxis(factors, 0, -1))   # (p, p, 1 or R)
    for i in range(len(cols)):
        fixed_order_sum(cols, fac[i], out=out[..., i])


def _draw_paths(cols, factors, x0, b, buf=None):
    """(b, R, p+1) Gaussian paths over the R rows of ``x0``, stored as
    column planes (see _planes; in ``buf`` when given).

    Column 0 holds x0; columns 1..p hold the p (b, R) standard-normal
    arrays ``cols`` mixed by ``factors`` ((1 or R, p, p); None when p = 0)
    through _mix.  The engines hand it one stream's draws per column, the
    read-out contiguous copies of the columns of one stream's draws.
    """
    r = x0.shape[0]
    p = 0 if factors is None else factors.shape[-1]
    paths = _planes((b, r, p + 1), buf)
    paths[..., 0] = x0
    if p:
        _mix(paths[..., 1:], factors, cols)
    return paths


def _column_generators(seq, p):
    """One Philox generator per path column j = 1..p, keyed
    ``fixed_child(seq, j)``: column j's draws never depend on the horizon,
    so a run at T' <= T reuses exactly the same variates."""
    return [Generator(Philox(fixed_child(seq, j))) for j in range(1, p + 1)]


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_in(value, lo, hi, name):
    """``value`` as an int; ConfigError unless it is an integer in lo..hi,
    or >= lo when ``hi`` is None (a bool is not)."""
    if not _is_int(value) or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ConfigError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _coordinates(coords, width):
    """``coords`` as an int array; ConfigError unless it is a 1-D sequence
    of non-bool integers in 0..width-1."""
    items = np.asarray(coords, dtype=object)
    if items.ndim != 1 or not all(_is_int(k) for k in items):
        raise ConfigError(f"coordinates must be a 1-D list of integers, got {coords!r}")
    out = items.astype(int)
    if out.size and (out.min() < 0 or out.max() >= width):
        raise ConfigError("coordinate outside range")
    return out


def psd_factors(cov_block, context, se_block=None):
    """(C, t, t) matrices M with M M^T = each (t, t) slice of ``cov_block``.

    Negative eigenvalues at or above a slot's floor are clipped to 0;
    anything below it raises NumericalError naming ``context`` and the
    coordinate slot.  The floor is PSD_FLOOR, lowered to -4 ||SE||_F when
    ``se_block`` gives the slot's Monte Carlo standard errors, so sampling
    noise in a nearly singular law is clipped, not fatal.
    """
    vals, vecs = np.linalg.eigh(cov_block)
    floor = PSD_FLOOR
    if se_block is not None:
        floor = np.minimum(PSD_FLOOR, -4.0 * np.linalg.norm(
            se_block, axis=(-2, -1)))[..., None]
    bad = vals < floor
    if bad.any():
        where = np.unravel_index(int(np.argmin(np.where(bad, vals, np.inf))),
                                 vals.shape)
        raise NumericalError(
            f"{context}: covariance eigenvalue {vals[where]:.3e} below the PSD "
            f"floor (coordinate slot {where[0]})")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


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

    def factors(self, t, coords=None):
        """(C', t, t) matrices M with M M^T = leading covariance block,
        floored by its standard errors (see ``psd_factors``)."""
        sel = slice(None) if self.homogeneous or coords is None else np.asarray(coords)
        return psd_factors(self.cov[sel, :t, :t],
                           f"covariance block through step {t}",
                           self.cov_se[sel, :t, :t])


class HistoryTransform:
    """Correction recursion from Gaussian path columns to iterate columns.

    Output column j is

        path_j + sum_s coeffs[j-1][s-1] * inner_s(out cols) + outer_j(out cols)

    where inner_s reads out columns 0..s-1 (0..s when inner_uses_current)
    and the correction sum runs over s <= j-1 (s <= j when
    corr_includes_current).  A transform without outer functions
    (``outer_fns`` None, a corrected iteration's) is the identity: no
    corrections, no outer terms; the inner functions are then evaluated
    directly on the paths.
    """

    def __init__(self, inner_fns, outer_fns, inner_uses_current,
                 corr_includes_current, coeffs=None):
        self.inner_fns = list(inner_fns)
        self.outer_fns = None if outer_fns is None else list(outer_fns)
        self.inner_uses_current = inner_uses_current
        self.corr_includes_current = corr_includes_current
        self.coeffs = [] if coeffs is None else [np.asarray(c, dtype=float) for c in coeffs]

    def n_corr(self, j):
        if self.outer_fns is None:
            return 0
        return j if self.corr_includes_current else j - 1

    def row_constant(self):
        ok = all(f.row_constant for f in self.inner_fns)
        if self.outer_fns is not None:
            ok = ok and all(f.row_constant for f in self.outer_fns)
        return ok

    def apply(self, hist, rows=None):
        """The output columns of the path history ``hist``, as new column
        planes (see _planes); ``hist`` is left as it was."""
        hist = np.asarray(hist, dtype=float)
        out = _planes(hist.shape)
        out[...] = hist
        return _forward(self, out, rows, inner_upto=0, with_partials=False)[0]


def _forward(tr, paths, rows, inner_upto, with_partials):
    """Forward pass of a transform on the float path array ``paths``
    (..., R, C+1), in place.

    Returns (out, inner, dinner): out is ``paths`` itself, its columns
    overwritten one by one with the output columns, so a caller that needs
    its paths afterwards passes a copy.  Column j is overwritten only when
    it is computed, from raw path j and the columns before it, which are
    final by then: every row function reads columns < j (<= j - 1 + inc),
    views of out's leading columns.  A transform without outer functions
    leaves ``paths`` as it is.  inner[s] is inner_s evaluated on the
    transformed history, dinner[(s, q)] its total derivative in path column
    q obtained by chaining through the recursion.  inner is filled at least
    up to ``inner_upto``.

    A partial that does not vary over the samples may be an (R,) row (see
    ``programs.RowFunction``).  The chain starts from a row of ones and
    keeps products and sums of rows as rows, so a dinner entry is a plane
    only where a sample-varying partial entered it.  Elementwise IEEE
    arithmetic gives the same bits whatever the broadcast shape.
    """
    C = paths.shape[-1] - 1
    inc = 1 if tr.inner_uses_current else 0
    out = paths
    inner, dinner, J = {}, {}, {}

    def chain(f, sl, acc):
        # acc[q] += df/d(out w) * J[w, q] for the columns w >= 1 f reads
        for w in range(1, sl.shape[-1]):
            dw = f.dfn(sl, rows, w)
            if not np.any(dw):
                continue
            for q in range(1, w + 1):
                jwq = J.get((w, q))
                if jwq is not None:
                    acc[q] = acc.get(q, 0.0) + dw * jwq
        return acc

    def compute_inner(s):
        if s in inner:
            return
        sl = out[..., : s + inc]
        inner[s] = np.asarray(tr.inner_fns[s - 1].fn(sl, rows), dtype=float)
        if with_partials:
            for q, d in chain(tr.inner_fns[s - 1], sl, {}).items():
                dinner[(s, q)] = d

    for j in range(1, C + 1):
        col = out[..., j]
        jcol = {j: np.ones(paths.shape[-2:-1])} if with_partials else None
        for r in range(1, tr.n_corr(j) + 1):
            compute_inner(r)
            cv = _sel(tr.coeffs[j - 1][r - 1], rows)
            col += cv * inner[r]
            if with_partials:
                for q in range(1, r + inc):
                    d = dinner.get((r, q))
                    if d is not None:
                        jcol[q] = jcol.get(q, 0.0) + cv * d
        if tr.outer_fns is not None:
            sl = out[..., :j]
            col += tr.outer_fns[j - 1].fn(sl, rows)
            if with_partials:
                chain(tr.outer_fns[j - 1], sl, jcol)
        if with_partials:
            for q, val in jcol.items():
                J[(j, q)] = val
    for s in range(1, inner_upto + 1):
        compute_inner(s)
    return out, inner, dinner


def _leaf_schedule(b, leaf, closes=1):
    """The leaves of numpy's pairwise-sum tree over a b-sample block, left
    to right, as (samples, closes) pairs.

    A node of more than ``leaf`` samples splits where numpy splits it (half,
    rounded down to a multiple of 8); ``closes`` counts the nodes a leaf
    completes, the block's root (its addition to the running sums) included.
    """
    if b <= leaf:
        return [(b, closes)]
    half = b // 2 - (b // 2) % 8
    return _leaf_schedule(half, leaf, 0) + _leaf_schedule(b - half, leaf, closes + 1)


def _leaves(total, block, leaf):
    """_leaf_schedule over every ``block``-sample block of ``total`` samples."""
    for lo in range(0, total, block):
        yield from _leaf_schedule(min(block, total - lo), leaf)


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
        self._open = []   # (sum, sumsq, samples) of the open tree nodes

    def fold(self, vals, closes):
        """Add one leaf of a _leaf_schedule: the C-contiguous (dim, n)
        statistics ``vals``, one coordinate per row, which it overwrites.

        Numpy sums the leaf's rows; then each of the ``closes`` nodes adds
        its left sum to its right one, and the block's root adds into the
        running sums.  So each row total has the bytes a (b, 1) column's
        sums would have.
        """
        if self.shift is None:
            self.shift = np.array(vals[:, 0], dtype=float)
        vals -= self.shift[:, None]
        total = vals.sum(axis=1)
        np.square(vals, out=vals)
        node = (total, vals.sum(axis=1), vals.shape[1])
        for _ in range(closes):
            if not self._open:
                self.sum += node[0]
                self.sumsq += node[1]
                self.count += node[2]
                return
            left = self._open.pop()
            node = tuple(x + y for x, y in zip(left, node))
        self._open.append(node)

    def mean(self):
        return self.shift + self.sum / self.count

    def se(self):
        if self.count < 2:
            return np.zeros_like(self.sum)
        var = (self.sumsq - self.sum**2 / self.count) / (self.count - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.count)


def _leaf_size(row_values):
    """Samples per leaf whose statistics or normals hold ``row_values``
    floats per sample: about _SUB_BLOCK_BYTES, never fewer than numpy's
    unsplit 128-sample block."""
    return max(128, _SUB_BLOCK_BYTES // (8 * max(1, row_values)))


def _mc_average(dim, total, block, fill):
    """(mean, se) of ``dim`` statistics over ``total`` samples that
    ``fill(n)`` returns n at a time, one statistic per row of a C-contiguous
    (dim, n) buffer it may overwrite.

    The samples come in blocks of ``block``, each summed down numpy's
    pairwise tree (_leaf_schedule) to leaves of _leaf_size(dim) samples.
    """
    acc = _MeanAccumulator(dim)
    for n, closes in _leaves(total, block, _leaf_size(dim)):
        acc.fold(fill(n), closes)
    return acc.mean(), acc.se()


class _DrawAhead:
    """``count`` pieces of Gaussian streams that are read in order, drawn
    by ``draw(i, slot)`` into slot i % ``slots`` of a ring and handed to
    the caller, in order, by ``take``, as ``view(i, slot)``.  The caller
    holds that slot until it calls ``release`` or takes the next piece.

    A task on the strip pool's helper (ensembles._strip_pool) draws the
    pieces after the one the caller holds while a slot is free, and returns
    when none is, so it never waits on the caller.  A piece that no one has
    begun when the caller takes it (one CPU, or the helper busy) the caller
    draws itself, through the same ``draw``.  One thread draws at a time,
    always the next piece, so each stream is read in the order one thread
    would read it and no byte depends on who drew it.  Leaving the ``with``
    block waits for a draw in flight, and a task still queued then returns
    at once, so a caller that fails leaves no draw behind.
    """

    def __init__(self, count, slots, draw, view):
        self.count, self.slots, self.draw, self.view = count, slots, draw, view
        self.drawn = self.taken = 0
        self.drawing = self.queued = self.closed = self.held = False
        self.error = None
        self.cond = threading.Condition()
        self.helpers = _strip_pool()[0]
        self.task = None

    def __enter__(self):
        self._start()
        return self

    def __exit__(self, *exc):
        with self.cond:
            self.closed = True
            while self.drawing:
                self.cond.wait()
        if self.task is not None:
            self.task.cancel()

    def _free(self):
        # under the lock: the next piece may be drawn into a slot the caller
        # does not hold (it holds that of the last piece taken until it
        # releases it or takes the next)
        limit = self.taken + self.slots - self.held
        return (not (self.drawing or self.closed) and self.error is None
                and self.drawn < min(self.count, limit))

    def _start(self):
        with self.cond:
            if self.helpers is not None and not self.queued and self._free():
                self.queued = True
                self.task = self.helpers.submit(self._produce)

    def _produce(self):
        while True:
            with self.cond:
                if not self._free():
                    self.queued = False
                    return
                self.drawing = True
            self._draw()

    def _draw(self):
        # draw the next piece, claimed by setting ``drawing``; an error is
        # kept for take to raise on the caller
        i, error = self.drawn, None
        try:
            self.draw(i, i % self.slots)
        except BaseException as exc:
            error = exc
            raise
        finally:
            with self.cond:
                self.drawing = False
                self.drawn += error is None
                if error is not None:
                    self.error = error
                self.cond.notify_all()

    def take(self):
        """The next piece, drawn: view(i, slot)."""
        i = self.taken
        with self.cond:
            self.taken, self.held = i + 1, True
            while self.drawing and self.drawn == i:   # the helper draws it
                self.cond.wait()
            if self.error is not None:
                raise self.error
            inline = self.drawn == i
            if inline:
                self.drawing = True
        if inline:
            self._draw()
        self._start()
        return self.view(i, i % self.slots)

    def release(self):
        """Hand back the slot of the piece last taken."""
        with self.cond:
            self.held = False
        self._start()


def _column_draws(seq, p, r, dim, total):
    """A _DrawAhead over the p normal columns of every sub-block of a
    ``total``-sample average of ``dim`` statistics (see _mc_average) over
    paths of ``r`` rows: take() gives the next sub-block's p (b, r)
    columns, column j drawn from its own stream (_column_generators), into
    the other of two draw buffers while the caller works on this one."""
    gens = _column_generators(seq, p)
    sizes = [hi - lo for n, _ in _leaves(total, _BLOCK, _leaf_size(dim))
             for lo, hi in _sub_blocks(n, r * (p + 1))]
    draws = np.empty((2, p, max(sizes), r))

    def draw(i, slot):
        for g, d in zip(gens, draws[slot]):
            g.standard_normal(out=d[:sizes[i]])

    return _DrawAhead(len(sizes) if p else 0, 2, draw,
                      lambda i, slot: list(draws[slot, :, :sizes[i]]))


class _SideEngine:
    """Monte Carlo driver building one Gaussian law.

    ``weights`` rows index this law's coordinates; its columns index the
    path process the expectations average over.  A coordinate's law depends
    on the weights only through its own row, so the expectations are taken
    once per class of identical rows.  When the path process collapses
    (row-constant functions, a path law of one class, constant step-0
    value) a single representative path is simulated.
    """

    def __init__(self, weights, law_x0, transform, T, mc, seed_seq, fd_check):
        w = np.asarray(weights, dtype=float)
        # + 0.0 turns -0.0 into +0.0: rows equal in value share a class, and
        # no class row or row sum carries a signed zero
        self.rowsums = w.sum(axis=1) + 0.0
        # class of each coordinate, numbered by first occurrence; a dict of
        # row bytes holds one key per class, where np.unique(axis=0) would
        # copy and sort the whole table
        first = {}
        firsts, self.cls = np.unique(
            np.array([first.setdefault((row + 0.0).tobytes(), i)
                      for i, row in enumerate(w)], dtype=int),
            return_inverse=True)
        self.class_rows = w[firsts]
        self.class_rows += 0.0
        self.law = GaussianLawTable(law_x0, T, homogeneous=len(firsts) == 1)
        self.tr = transform
        self.mc = mc
        self.seed_seq = seed_seq
        self.fd_check = fd_check
        self.fd_gap = 0.0
        self.path_law = self.path_collapsed = None  # set by wire

    def wire(self, path_law):
        """Draw paths from ``path_law``.  They collapse to one row when the
        law has one class (its engine's weight rows are all equal, so the
        correction vectors it builds for the transform are constant), the
        transform's functions are row-constant and the law's step-0 value
        is constant."""
        self.path_law = path_law
        self.path_collapsed = bool(path_law.homogeneous and self.tr.row_constant()
                                   and np.ptp(path_law.x0) == 0.0)

    def _sample_stat(self, x, out):
        """Write the (classes, b) statistics of the (b, R) row statistics
        ``x``, which may be a broadcast view, into ``out``: one
        matrix-vector product per class, on a C-contiguous (b, R) copy, so
        BLAS sees the operands of a plane and rounds each row as it would
        there."""
        if self.path_collapsed:
            out[0] = x[:, 0]
            return
        x = np.ascontiguousarray(x)
        for c, row in enumerate(self.class_rows):
            out[c] = x @ row

    def _extract(self, stats):
        """(statistics, classes) table -> (statistics, coordinates)."""
        if self.path_collapsed:
            return stats * self.rowsums
        return stats[:, self.cls]

    def step(self, t, n_path_cols):
        """Advance the law to row t; returns the (n_path_cols, coordinates)
        coefficient table for path columns 1..n_path_cols and its SEs."""
        p = n_path_cols
        x0 = self.path_law.x0[:1] if self.path_collapsed else self.path_law.x0
        rows = np.array([0]) if self.path_collapsed else None
        factors = self.path_law.factors(p) if p > 0 else None
        k = 1 if self.path_collapsed else self.class_rows.shape[0]
        r = x0.shape[0]
        # one path buffer, as large as the largest sub-block, which _forward
        # transforms in place
        piece = _sub_blocks(min(_BLOCK, self.mc), r * (p + 1))[0][1]
        buf = np.empty(piece * r * (p + 1))

        def fill(n):
            # rows: the p coefficient statistics, then the t products
            vals = np.empty((p + t, k, n))
            for lo, hi in _sub_blocks(n, r * (p + 1)):
                paths = _draw_paths(columns.take() if p else [], factors, x0,
                                    hi - lo, buf)
                _, inner, dinner = _forward(self.tr, paths, rows, inner_upto=t,
                                            with_partials=True)
                et = inner[t]
                for s in range(1, p + 1):
                    self._sample_stat(np.broadcast_to(dinner.get((t, s), 0.0), et.shape),
                                      vals[s - 1, :, lo:hi])
                for tau in range(1, t + 1):
                    self._sample_stat(et * inner[tau], vals[p + tau - 1, :, lo:hi])
            return vals.reshape((p + t) * k, n)

        # fresh generators per outer step = common random numbers across steps
        with _column_draws(self.seed_seq, p, r, (p + t) * k, self.mc) as columns:
            avg = _mc_average((p + t) * k, self.mc, _BLOCK, fill)
        if self.fd_check and p > 0:
            # the probe redraws the step's first block whole
            b = min(_BLOCK, self.mc)
            cols = [g.standard_normal((b, x0.shape[0]))
                    for g in _column_generators(self.seed_seq, p)]
            self._fd_probe(_draw_paths(cols, factors, x0, b), rows, t, p)
        mean, se = (self._extract(a.reshape(p + t, k)) for a in avg)
        c = self.law.cov.shape[0]
        self.law.cov[:, t - 1, :t] = self.law.cov[:, :t, t - 1] = mean[p:, :c].T
        self.law.cov_se[:, t - 1, :t] = self.law.cov_se[:, :t, t - 1] = se[p:, :c].T
        return mean[:p], se[:p]

    def _fd_probe(self, paths, rows, t, p):
        # cross-check chained partials against central differences on one
        # block; the differences copy the paths, which the chained pass then
        # transforms in place
        def inner_t(x):
            return _forward(self.tr, x, rows, inner_upto=t, with_partials=False)[1][t]

        fds = [central_difference(inner_t, paths, s, 1e-4) for s in range(1, p + 1)]
        _, _, dinner = _forward(self.tr, paths, rows, inner_upto=t,
                                with_partials=True)
        for s, fd in enumerate(fds, start=1):
            an = dinner.get((t, s), 0.0)
            gap = float(np.max(np.abs(np.mean(fd - an, axis=0))))
            self.fd_gap = max(self.fd_gap, gap)


@dataclass
class Side:
    """One track of a limit: its Gaussian path law, the history transform
    from paths to iterates, the per-step coefficient tables with their Monte
    Carlo standard errors, and whether its paths collapse to one row.

    For an uncorrected program ``coeffs`` is ``transform.coeffs`` (the
    correction vectors); for a corrected iteration, whose transform is the
    identity, it holds the memory coefficients.
    """

    law: GaussianLawTable
    transform: HistoryTransform
    coeffs: list
    coeffs_se: list
    collapsed: bool

    def to_json_dict(self):
        return {
            "x0": self.law.x0.tolist(),
            "homogeneous": self.law.homogeneous,
            "cov": self.law.cov.tolist(),
            "cov_se": self.law.cov_se.tolist(),
            "coeffs": [c.tolist() for c in self.coeffs],
            "coeffs_se": [c.tolist() for c in self.coeffs_se],
            "collapsed": self.collapsed,
        }


@dataclass
class SeRecord:
    """Everything needed to read out one iteration's Gaussian limit:
    ``sides`` maps "z" (symmetric) or "u" and "v" (two-sided) to a Side."""

    kind: str
    mc: int
    seed: int
    fd_gap: float
    sides: dict

    def side(self, name):
        if name not in self.sides:
            raise ConfigError(f"record has no side {name!r}")
        return self.sides[name]

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "mc": self.mc,
            "seed": self.seed,
            "fd_gap": self.fd_gap,
            "sides": {name: s.to_json_dict() for name, s in self.sides.items()},
        }


def _horizon(T, T_max, name="horizon"):
    """``T`` (T_max when None) as an int in 1..T_max (see _int_in)."""
    return _int_in(T_max if T is None else T, 1, T_max, name)


def _record(kind, tracks, profile, T, mc, seed, fd_check):
    """Build the limit law of an iteration from its side table.

    Side X's transform takes its inner functions from the side that reads X
    and its outer functions from X's additive functions (identity when it
    has none, for corrected iterations).  X's engine averages over t-1+offset
    columns of its source's paths, drawn through the source's transform;
    its coefficients for step t join X's transform before the next side
    steps.  The first side weighs by ``ensembles.profile_weights``
    (profile / n), the second by their transpose.
    """
    first = next(iter(tracks.values()))
    T_max = len(first.mat_fns)
    check_tracks(tracks, T_max)
    T = _horizon(T, T_max)
    mc = _int_in(mc, 2, None, "mc_samples")
    raw = first.add_fns is None
    w = profile_weights(profile, first.x0.shape[0],
                        tracks[first.source].x0.shape[0])
    weights = dict(zip(tracks, (w, w.T)))
    reader = {tr.source: name for name, tr in tracks.items()}
    transforms = {
        name: HistoryTransform(tracks[reader[name]].mat_fns, tr.add_fns,
                               inner_uses_current=bool(tracks[reader[name]].offset),
                               corr_includes_current=bool(tr.offset))
        for name, tr in tracks.items()}
    engines = {
        name: _SideEngine(weights[name], law_x0=tr.x0,
                          transform=transforms[tr.source], T=T, mc=mc,
                          seed_seq=child_sequence(seed, DOMAIN_SE, i),
                          fd_check=fd_check)
        for i, (name, tr) in enumerate(tracks.items())}
    for name, tr in tracks.items():
        engines[name].wire(engines[tr.source].law)
    # a side's paths are drawn by the engine of the side that reads it
    sides = {name: Side(engines[name].law, transforms[name],
                        [] if raw else transforms[name].coeffs, [],
                        engines[reader[name]].path_collapsed)
             for name in tracks}
    for t in range(1, T + 1):
        for name, tr in tracks.items():
            coeffs, ses = engines[name].step(t, n_path_cols=t - 1 + tr.offset)
            sides[name].coeffs.append(coeffs)
            sides[name].coeffs_se.append(ses)
    fd_gap = max(e.fd_gap for e in engines.values()) if fd_check else None
    return SeRecord(kind, mc, seed, fd_gap, sides)


def se_symmetric(prog, profile, z0=None, T=None, mc_samples=DEFAULT_MC, seed=0,
                 fd_check=False):
    """Gaussian law + history transform for a symmetric (uncorrected) program;
    ``profile`` holds per-entry second moments, weighted by profile / n."""
    tracks = symmetric_tracks(prog.mat_fns, prog.add_fns,
                              prog.z0 if z0 is None else z0)
    return _record("gfom_symmetric", tracks, profile, T, mc_samples, seed,
                   fd_check)


def amp_se_symmetric(fns, profile, z0, T=None, mc_samples=DEFAULT_MC, seed=0,
                     fd_check=False):
    """Gaussian law + memory coefficients for a corrected symmetric
    iteration, weighted by profile / n (see ``ensembles.profile_weights``)."""
    return _record("amp_symmetric", symmetric_tracks(fns, None, z0), profile, T,
                   mc_samples, seed, fd_check)


def se_asymmetric(prog, profile, u0=None, v0=None, T=None,
                  mc_samples=DEFAULT_MC, seed=0, fd_check=False):
    """Gaussian laws + history transforms for an asymmetric program, weighted
    by profile / n (see ``ensembles.profile_weights``)."""
    tracks = asymmetric_tracks(prog.u_mat_fns, prog.u_add_fns, prog.v_mat_fns,
                               prog.v_add_fns, prog.u0 if u0 is None else u0,
                               prog.v0 if v0 is None else v0)
    return _record("gfom_asymmetric", tracks, profile, T, mc_samples, seed,
                   fd_check)


def amp_se_asymmetric(u_fns, v_fns, profile, u0, v0, T=None,
                      mc_samples=DEFAULT_MC, seed=0, fd_check=False):
    """Laws + memory coefficient tables for a corrected asymmetric iteration,
    weighted by profile / n: P n/m gives the 1/m law of P."""
    tracks = asymmetric_tracks(u_fns, None, v_fns, None, u0, v0)
    return _record("amp_asymmetric", tracks, profile, T, mc_samples, seed,
                   fd_check)


def _compose_with_transform(rf, transform, arity):
    """rf applied to the transformed history (partials: central differences;
    these composites drive iterations, they are not state-evolution inputs)."""

    def fn(h, rows):
        return rf.fn(transform.apply(h, rows), rows)

    def dfn(h, rows, which):
        x = np.asarray(h, dtype=float)
        step = 1e-6 * max(1.0, float(np.max(np.abs(x[..., which]), initial=0.0)))
        return central_difference(lambda y: fn(y, rows), x, which, step)

    return RowFunction(arity=arity, fn=fn, dfn=dfn, row_constant=False)


def gfom_to_amp(prog, record):
    """Translate an uncorrected program into the corrected iteration that
    reproduces it pathwise: compose each update with the history transform
    and reuse the transform's correction vectors as memory coefficients.

    Returns {side: (update functions, memory coefficients)}, keyed like
    ``record.sides``.  A side's updates read the history of its source side,
    whose transform they are composed with.
    """
    kind = "gfom_symmetric" if isinstance(prog, SymmetricProgram) else "gfom_asymmetric"
    if record.kind != kind:
        raise ConfigError(f"a {record.kind} record does not fit a {kind} program")
    amp = {}
    for name, tr in prog.tracks().items():
        coeffs = record.side(name).coeffs
        if len(coeffs) < prog.T:
            raise ConfigError("record horizon shorter than the program's")
        transform = record.side(tr.source).transform
        amp[name] = ([_compose_with_transform(fn, transform, t + tr.offset)
                      for t, fn in enumerate(tr.mat_fns, start=1)],
                     [np.array(c) for c in coeffs[:prog.T]])
    return amp


class _Tape:
    """A window of the first ``total`` normals of one Gaussian stream in a
    preallocated buffer: ``buf`` holds the normals at stream positions
    base .. base + filled - 1.  The stream is drawn ahead (_DrawAhead) in
    pieces of _TAPE_PIECE normals, into a ring of _TAPE_SLOTS pieces, which
    the window copies as it grows."""

    def __init__(self, gen, size, total):
        self.buf = np.empty(size)
        self.base = self.filled = 0
        step = min(_TAPE_PIECE, total)
        ring = np.empty((_TAPE_SLOTS, step))

        def piece(i, slot):
            return ring[slot, :min(step, total - i * step)]

        def draw(i, slot):
            gen.standard_normal(out=piece(i, slot))

        self.ahead = _DrawAhead(-(-total // step) if step else 0, _TAPE_SLOTS,
                                draw, piece)
        self.piece = ring[0, :0]   # the ring's normals not yet in the window

    def read(self, lo, hi):
        """The normals at positions lo .. hi - 1 (lo >= base), taking those
        past the window from the ring."""
        while hi - self.base > self.filled:
            if not self.piece.size:
                self.piece = self.ahead.take()
            k = min(self.piece.size, hi - self.base - self.filled)
            self.buf[self.filled:self.filled + k] = self.piece[:k]
            self.piece = self.piece[k:]
            self.filled += k
            if not self.piece.size:
                self.ahead.release()
        return self.buf[lo - self.base:hi - self.base]

    def trim(self, lo):
        """Drop the normals before position lo.  The window moves down in
        pieces no longer than the drop, so no piece overlaps its source and
        numpy copies it without a temporary."""
        k = lo - self.base
        if k:
            keep = self.filled - k
            for i in range(0, keep, k):
                j = min(i + k, keep)
                self.buf[i:j] = self.buf[i + k:j + k]
            self.base, self.filled = lo, keep


class _Cell:
    """One (side, step) cell of a read-out: the mean of psi at step t of the
    side's iterate over ``n_paths`` Gaussian paths at the chosen coordinates
    (every coordinate when ``coords`` is None).  Each sample reads
    ``width`` = coordinates x t normals of the prediction stream; ``cursor``
    is the stream position of the cell's next sample.  ``needs`` maps each
    buffer of a read-out's workspace (see predict_entrywise) to the floats
    the cell's largest leaf takes of it."""

    def __init__(self, record, side, t, coords, psi, n_paths):
        track = record.side(side)
        law = track.law
        self.t = _horizon(t, law.T, "step")
        self.coords = (np.arange(law.coords) if coords is None
                       else _coordinates(coords, law.coords))
        self.collapsed = track.collapsed
        self.sel = np.array([0]) if track.collapsed else self.coords
        self.factors = law.factors(self.t, coords=self.sel)
        self.x0 = law.x0[self.sel]
        self.transform = track.transform
        self.psi = psi
        dim = len(self.sel)
        self.width = dim * self.t
        leaf = _leaf_size(self.width)
        self.leaves = _leaves(n_paths, _PREDICT_BLOCK, leaf)
        # the most samples one leaf holds, and one sub-block
        top = min(leaf, _PREDICT_BLOCK, n_paths)
        piece = _sub_blocks(top, dim * (self.t + 1))[0][1]
        self.span = self.width * top
        self.needs = {"paths": piece * dim * (self.t + 1), "stats": dim * top}
        self.cursor = 0
        self.acc = _MeanAccumulator(dim)

    def run_leaf(self, tape, work):
        """Add the cell's next leaf, its normals read from ``tape``, in the
        workspace buffers ``work`` (see ``needs``); False when no leaf is
        left."""
        n, closes = next(self.leaves, (0, 0))
        if not n:
            return False
        dim, t, w = len(self.sel), self.t, self.width
        vals = work["stats"][:dim * n].reshape(dim, n)
        for lo, hi in _sub_blocks(n, dim * (t + 1)):
            # read as it is mixed, straight from the strided stream columns
            cols = tape.read(self.cursor + lo * w, self.cursor + hi * w)
            cols = cols.reshape(hi - lo, dim, t)
            paths = _draw_paths([cols[..., j] for j in range(t)], self.factors,
                                self.x0, hi - lo, buf=work["paths"])
            _forward(self.transform, paths, self.sel, inner_upto=0,
                     with_partials=False)
            vals[:, lo:hi] = self.psi(paths[..., t]).T
        self.cursor += n * w
        self.acc.fold(vals, closes)
        return True

    def result(self):
        means, ses = self.acc.mean(), self.acc.se()
        if self.collapsed:
            k = len(self.coords)
            return np.full(k, means[0]), np.full(k, ses[0])
        return means, ses


def predict_entrywise(record, coords, psi, cells, n_paths=DEFAULT_MC, seed=0):
    """Predicted E[psi(iterate_coordinate)] with MC standard errors, at each
    (side, t) cell of the list ``cells``.

    Returns one (means, ses) per cell, aligned with ``coords`` (every
    coordinate of the side when None).  For corrected-iteration records the
    transform is the identity and the prediction reads the raw Gaussian
    path; otherwise the history transform is applied first.

    Each cell's result has the bytes of a one-cell call, and all of them
    come from one pass over the prediction stream.  Every cell reads the
    same normals in the same order, coordinates x t per sample; a cell's
    leaves are those _mc_average would walk, of _leaf_size(coordinates x t)
    samples, and the next leaf to run is always that of the cell furthest
    behind in the stream.  So each normal is drawn once, and a tape of
    normals between the slowest and fastest cells, trimmed after every
    leaf, never holds more than the largest leaf's: about _SUB_BLOCK_BYTES
    (more only where 128 samples exceed it), whatever the path count, and
    the ring it copies from holds 512 KiB drawn ahead.  One workspace
    serves every leaf of every cell: flat buffers for a sub-block's paths,
    which the history transform overwrites in place, and for a leaf's
    statistics, each as large as the largest any cell needs, so no leaf
    allocates them afresh.
    """
    n_paths = _int_in(n_paths, 2, None, "n_paths")
    reads = [_Cell(record, side, t, coords, psi, n_paths) for side, t in cells]
    work = {key: np.empty(max((c.needs[key] for c in reads), default=0))
            for key in ("paths", "stats")}
    tape = _Tape(Generator(Philox(child_sequence(seed, DOMAIN_PREDICT, 0))),
                 max((c.span for c in reads), default=0),
                 n_paths * max((c.width for c in reads), default=0))
    with tape.ahead:
        pending = list(reads)
        while pending:
            cell = min(pending, key=lambda c: c.cursor)
            if not cell.run_leaf(tape, work):
                pending.remove(cell)
            if pending:
                tape.trim(min(c.cursor for c in pending))
    return [c.result() for c in reads]
