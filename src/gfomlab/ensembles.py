"""Random matrix ensembles with independent entries and variance profiles.

Entry laws are standardized (mean 0, variance 1) and then scaled by the
square root of a per-entry variance profile, so two ensembles built on the
same profile have exactly matching second moments whatever their laws.
One scale: a matrix of n columns is divided by sqrt(n), so E A_ij^2 =
P_ij / n, the weights of every limit law (``profile_weights``).

Sampling is counter-based: each entry consumes exactly one 64-bit uniform at
a fixed flat index of a Philox stream (see seeds.py), so a matrix is a pure
function of (spec, dims, seed).  The samplers cut the matrix into strips of
rows and hand them to every CPU the process may run on: the calling thread
and a process-wide pool of helper threads, started by the first sample or
limit law (the limit laws draw their normals ahead on one helper).
Each strip draws its words at its own offset straight into its rows of the
output and takes them from words to entries in place with in-place entry
laws (the Philox fill, ``ndtri`` and the ufuncs release the GIL); a
symmetric strip transforms only its band from the diagonal rightwards, and
a second pass mirrors the bands below the diagonal once all are drawn.
"""

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import KW_ONLY, dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .seeds import seek

LAW_KINDS = ("gaussian", "rademacher", "uniform_pm", "shifted_bernoulli")
# each normalization's divisor of the second moments, of the dimensions (m, n)
_NORM_SIZE = {"inv_sqrt_n": lambda m, n: n, "inv_sqrt_m": lambda m, n: m,
              "inv_sqrt_m_plus_n": lambda m, n: m + n}
NORMALIZATIONS = tuple(_NORM_SIZE)
# rows per strip: the unit of work of the samplers' threads, and the
# profile's symmetry check compares one strip at a time, whatever the matrix
# size
STRIP_ROWS = 64
# the strictly lower triangle of a diagonal block, which the symmetric
# mirror copies from the block's transpose
_BELOW = np.tri(STRIP_ROWS, k=-1, dtype=bool)


@dataclass(frozen=True)
class EntryLaw:
    """A standardized scalar entry law (mean 0, variance 1)."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in LAW_KINDS:
            raise ConfigError(f"unknown entry law {self.kind!r}")
        if self.kind == "shifted_bernoulli":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ConfigError("shifted_bernoulli needs p in (0, 1)")
        elif self.p is not None:
            raise ConfigError(f"law {self.kind!r} takes no parameter p")

    def transform(self, u, out=None):
        """Map uniforms in [0, 1) to standardized variates, elementwise.

        With ``out`` the variates are written into it and the float array
        ``u`` is scratch: it may be overwritten.  Without ``out``, ``u`` is
        left alone and a new array is returned.
        """
        if out is None:
            u = np.array(u, dtype=float)
            out = u
        if self.kind == "gaussian":
            return ndtri(np.maximum(u, 1e-300, out=u), out=out)
        if self.kind == "rademacher":
            # u - 0.5 is negative exactly when u < 0.5, and +0.0 at 0.5
            return np.copysign(1.0, np.subtract(u, 0.5, out=u), out=out)
        if self.kind == "uniform_pm":
            np.multiply(u, 2.0, out=u)
            return np.multiply(np.subtract(u, 1.0, out=u), math.sqrt(3.0), out=out)
        p = self.p
        below = u < p  # before out, which may be u, is written
        np.copyto(out, math.sqrt(p / (1.0 - p)))
        np.copyto(out, -math.sqrt((1.0 - p) / p), where=below)
        return out


def gaussian_law():
    return EntryLaw("gaussian")


def rademacher_law():
    return EntryLaw("rademacher")


def uniform_pm_law():
    return EntryLaw("uniform_pm")


def shifted_bernoulli_law(p):
    return EntryLaw("shifted_bernoulli", p=p)


def _stored(vals):
    """The entries of ``vals`` held in memory: a broadcast view repeats them
    along each axis of stride 0, so a reduction over them sees every value."""
    return vals[tuple(slice(None) if st else slice(0, 1) for st in vals.strides)]


@dataclass(frozen=True)
class VarianceProfile:
    """Pre-normalization second moments E A0_ij^2, all finite and >= 0.

    ``values`` may be a read-only broadcast view (see ``constant_profile``).
    The checks below read it through reductions over its stored entries and
    row strips, so none of them builds an n x m temporary, and those of a
    constant profile read one value.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ConfigError("variance profile must be a 2-d array")
        if vals.size:
            stored = _stored(vals)
            # min and max carry a NaN, so it counts as non-finite, as -inf does
            lo, hi = float(stored.min()), float(stored.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError("variance profile has non-finite entries")
            if lo < 0:
                raise ConfigError("variance profile has negative entries")

    @property
    def shape(self):
        return self.values.shape

    def is_constant(self):
        vals = _stored(self.values)
        return bool(vals.size == 0 or vals.min() == vals.max())

    def require_symmetric(self):
        vals = self.values
        n = vals.shape[0]
        if vals.shape != (n, n):
            raise ConfigError(f"profile shape {vals.shape} is not square")
        if self.is_constant():
            return
        for r0 in range(0, n, STRIP_ROWS):
            cols = slice(r0, r0 + STRIP_ROWS)
            if not np.array_equal(vals[cols], vals[:, cols].T):
                raise ConfigError("symmetric ensemble needs a symmetric profile")


def constant_profile(shape, value=1.0):
    """Every entry ``value``: one float broadcast read-only over ``shape``,
    so the profile costs O(1) memory whatever the shape."""
    return VarianceProfile(np.broadcast_to(float(value), shape))


@dataclass(frozen=True)
class EnsembleSpec:
    """Entry law + profile for one random matrix ensemble, at scale 1/sqrt(n).

    The keyword options remain only for the tests that pin their bytes; no
    run sets them.  ``normalization`` divides by sqrt(m) or sqrt(m + n)
    instead, and ``truncate`` (finite, > 0) zeroes entries with
    |A0_ij| > truncate * sqrt(log(max(m, n))) before scaling.
    """

    law: EntryLaw
    profile: VarianceProfile
    symmetric: bool
    _: KW_ONLY
    normalization: str = "inv_sqrt_n"
    truncate: float | None = None

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.symmetric:
            if self.normalization != "inv_sqrt_n":
                raise ConfigError("symmetric ensembles use inv_sqrt_n")
            self.profile.require_symmetric()
        cut = self.truncate
        if cut is not None and (isinstance(cut, bool) or not isinstance(
                cut, numbers.Real) or not 0 < cut < math.inf):
            raise ConfigError(f"truncate must be finite and > 0, got {cut!r}")
        # sqrt of a constant profile, worked out once: the samplers scale by
        # this scalar instead of the per-entry sqrt(profile)
        scale = None
        if self.profile.values.size and self.profile.is_constant():
            scale = math.sqrt(self.profile.values.flat[0])
        object.__setattr__(self, "_scale", scale)

    def denominator(self, m, n):
        return math.sqrt(_NORM_SIZE[self.normalization](m, n))


def profile_weights(profile, m, n):
    """E A_kl^2 = profile / n of an m x n matrix at the samplers' scale: the
    weights of every limit law.  The 1/m law of a profile P is that of P n/m.

    ``profile`` may be a VarianceProfile or a raw (m, n) array of
    un-normalized per-entry second moments, which is validated as one.
    The result is a new dense array, also for a broadcast constant profile:
    the engines sum its rows and columns, and summing a broadcast view can
    differ from the dense sums in the last bit.
    """
    if not isinstance(profile, VarianceProfile):
        profile = VarianceProfile(profile)
    values = profile.values
    if values.shape != (m, n):
        raise ConfigError(f"profile shape {values.shape} != ({m}, {n})")
    return values / n


def _as_seedseq(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(int(seed))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool = None


def _strip_pool():
    """(helpers, threads): the process-wide pool of ``threads - 1`` helper
    threads that draw strips beside the caller, with ``threads = _cpus()``;
    the limit laws of ``state_evolution`` and ``gd_se`` draw their normals
    ahead on one of them.  It is started by the first sample or limit law,
    so importing the package starts no thread; with one CPU there is no
    pool and ``helpers`` is None.  Its threads end with the interpreter."""
    global _pool
    with _pool_lock:
        if _pool is None:
            threads = _cpus()
            helpers = None
            if threads > 1:
                helpers = ThreadPoolExecutor(threads - 1,
                                             thread_name_prefix="gfomlab-strips")
            _pool = helpers, threads
        return _pool


def _forget_pool():
    """In a forked child: the parent's helper threads do not exist there, so
    the child's first sample starts a pool of its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _each_strip(m, make_fill):
    """Call ``fill(r0, r1)`` once for every strip of rows r0:r1 of an m-row
    matrix, on the calling thread and the pool's helpers at once.

    Each thread gets its own ``fill = make_fill()`` and claims strips until
    none is left, so the caller alone finishes the work when the helpers are
    busy or absent.  A strip that raises stops the hand-out, and its error
    reaches the caller once every thread has stopped.
    """
    starts = iter(range(0, m, STRIP_ROWS))
    lock = threading.Lock()

    def work():
        fill = make_fill()
        while True:
            with lock:
                r0 = next(starts, None)
            if r0 is None:
                return
            try:
                fill(r0, min(r0 + STRIP_ROWS, m))
            except BaseException:
                with lock:
                    for _ in starts:  # hand out no further strip
                        pass
                raise

    helpers, threads = _strip_pool()
    strips = -(-m // STRIP_ROWS)
    futures = [helpers.submit(work) for _ in range(min(threads, strips) - 1)]
    try:
        work()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _sample_strips(spec, m, n, seed):
    """The m x n matrix A0 / denominator, filled one strip of rows at a time.

    Entry (i, j) consumes word i*n + j of one Philox stream per matrix, as
    if the whole matrix were drawn at once (``seeds.entry_uniforms``): the
    thread that takes strip r0:r1 places its own generator at word r0*n
    (``seeds.seek``) and draws the strip's words straight into its rows of
    the output.  Each strip then takes the same rounding steps in place:
    transform, scale by sqrt(profile) (a scale of exactly 1.0 changes no bit
    and is skipped), truncate, divide.  Only a per-entry profile or the
    truncation needs scratch, one strip per thread.

    A symmetric strip works on its band of columns r0: only.  Its words left
    of the band are overwritten by a second pass, once every band is drawn:
    the columns below each strip from the band's transpose, and the entries
    of the diagonal block below the diagonal from the block's transpose.
    The band's ``+ 0.0`` turns -0.0 into +0.0, as the sum of the upper and
    the mirrored strict upper part did.  No law yields -0.0, so only a zero
    profile entry times a negative variate can, and the step is skipped
    under a constant nonzero profile.
    """
    seq = _as_seedseq(seed)
    origin = np.random.Philox(seq).state
    a = np.empty((m, n))
    denom = spec.denominator(m, n)
    scale = spec._scale
    cut = None
    if spec.truncate is not None:
        cut = spec.truncate * math.sqrt(math.log(max(m, n)))

    def band_fill():
        bits = np.random.Philox(seq)
        gen = np.random.Generator(bits)
        words = None
        if scale is None or cut is not None:
            words = np.empty(min(STRIP_ROWS, m) * n)

        def fill(r0, r1):
            seek(bits, origin, r0 * n)
            c0 = r0 if spec.symmetric else 0
            band = gen.random(out=a[r0:r1])[:, c0:]
            spec.law.transform(band, out=band)
            if words is not None:
                u = words[:band.size].reshape(band.shape)
            if scale is None:
                band *= np.sqrt(spec.profile.values[r0:r1, c0:], out=u)
            elif scale != 1.0:
                band *= scale
            if cut is not None:
                band[np.abs(band, out=u) > cut] = 0.0
            if spec.symmetric and not scale:
                band += 0.0
            band /= denom
        return fill

    def mirror(r0, r1):
        a[r1:, r0:r1] = a[r0:r1, r1:].T
        block = a[r0:r1, r0:r1]
        np.copyto(block, block.T, where=_BELOW[:r1 - r0, :r1 - r0])

    _each_strip(m, band_fill)
    if spec.symmetric:
        _each_strip(m, lambda: mirror)
    return a


def sample_symmetric(spec, n, seed):
    """Draw the n x n symmetric matrix A = A0 / sqrt(n).

    The upper triangle (including the diagonal) of A0 has independent
    entries sqrt(profile_ij) * xi_ij with xi_ij ~ law; the lower triangle
    mirrors it.  Deterministic given (spec, n, seed).
    """
    if not spec.symmetric:
        raise ConfigError("sample_symmetric needs a symmetric EnsembleSpec")
    if spec.profile.shape != (n, n):
        raise ConfigError(f"profile shape {spec.profile.shape} != ({n}, {n})")
    return _sample_strips(spec, n, n, seed)


def sample_asymmetric(spec, m, n, seed):
    """Draw the m x n matrix A = A0 / denominator, independent entries."""
    if spec.symmetric:
        raise ConfigError("sample_asymmetric needs an asymmetric EnsembleSpec")
    if spec.profile.shape != (m, n):
        raise ConfigError(f"profile shape {spec.profile.shape} != ({m}, {n})")
    return _sample_strips(spec, m, n, seed)
