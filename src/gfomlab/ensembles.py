"""Random matrix ensembles with independent entries and variance profiles.

Entry laws are standardized (mean 0, variance 1) and then scaled by the
square root of a per-entry variance profile, so two ensembles built on the
same profile have exactly matching second moments whatever their laws.
Normalizations: 1/sqrt(n) for symmetric matrices, 1/sqrt(m) or 1/sqrt(m+n)
for rectangular ones.

Sampling is counter-based: each entry consumes exactly one 64-bit uniform at
a fixed flat index of a Philox stream (see seeds.py), so a matrix is a pure
function of (spec, dims, seed).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .seeds import entry_uniforms

LAW_KINDS = ("gaussian", "rademacher", "uniform_pm", "shifted_bernoulli")
# each normalization's divisor of the second moments, as a function of the
# dimensions (m, n); entries are divided by its square root
_NORM_SIZE = {"inv_sqrt_n": lambda m, n: n, "inv_sqrt_m": lambda m, n: m,
              "inv_sqrt_m_plus_n": lambda m, n: m + n}
NORMALIZATIONS = tuple(_NORM_SIZE)


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

    def transform(self, u):
        """Map uniforms in [0, 1) to standardized variates, elementwise."""
        u = np.asarray(u)
        if self.kind == "gaussian":
            return ndtri(np.maximum(u, 1e-300))
        if self.kind == "rademacher":
            return np.where(u < 0.5, -1.0, 1.0)
        if self.kind == "uniform_pm":
            return (2.0 * u - 1.0) * math.sqrt(3.0)
        p = self.p
        return np.where(u < p, -math.sqrt((1.0 - p) / p), math.sqrt(p / (1.0 - p)))


def gaussian_law():
    return EntryLaw("gaussian")


def rademacher_law():
    return EntryLaw("rademacher")


def uniform_pm_law():
    return EntryLaw("uniform_pm")


def shifted_bernoulli_law(p):
    return EntryLaw("shifted_bernoulli", p=p)


@dataclass(frozen=True)
class VarianceProfile:
    """Pre-normalization second moments E A0_ij^2, all finite and >= 0."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ConfigError("variance profile must be a 2-d array")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("variance profile has non-finite entries")
        if np.any(vals < 0):
            raise ConfigError("variance profile has negative entries")

    @property
    def shape(self):
        return self.values.shape

    def is_constant(self):
        return bool(np.all(self.values == self.values.flat[0]))

    def require_symmetric(self):
        if self.values.shape[0] != self.values.shape[1]:
            raise ConfigError(f"profile shape {self.values.shape} is not square")
        if not np.array_equal(self.values, self.values.T):
            raise ConfigError("symmetric ensemble needs a symmetric profile")


def constant_profile(shape, value=1.0):
    return VarianceProfile(np.full(shape, float(value)))


@dataclass(frozen=True)
class EnsembleSpec:
    """Entry law + profile + normalization for one random matrix ensemble.

    ``truncate`` (default None = off, else finite and > 0) zeroes
    pre-normalization entries with |A0_ij| > truncate * sqrt(log(max(m, n)));
    a stress-testing knob only.
    """

    law: EntryLaw
    profile: VarianceProfile
    normalization: str
    symmetric: bool
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


def profile_weights(profile, m, n, normalization):
    """E A_kl^2 matrix for a profile under a named normalization.

    ``profile`` may be a VarianceProfile or a raw (m, n) array of
    un-normalized per-entry second moments, which is validated as one.
    """
    if not isinstance(profile, VarianceProfile):
        profile = VarianceProfile(profile)
    values = profile.values
    if values.shape != (m, n):
        raise ConfigError(f"profile shape {values.shape} != ({m}, {n})")
    if normalization not in NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {normalization!r}")
    return values / _NORM_SIZE[normalization](m, n)


def _as_seedseq(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(int(seed))


# rows per strip: the scratch of one strip is a few times STRIP_ROWS * n
# floats, whatever the matrix size
STRIP_ROWS = 64


def _sample_strips(spec, m, n, seed):
    """The m x n matrix A0 / denominator, filled one strip of rows at a time.

    Entry (i, j) consumes word i*n + j of the Philox stream, as if the whole
    matrix were drawn at once, and takes the same rounding steps: transform,
    scale by sqrt(profile), truncate, divide.  A symmetric spec transforms
    only the entries with j >= i and mirrors them below the diagonal; the
    ``+ 0.0`` turns -0.0 (a zero profile entry times a negative variate) into
    +0.0, as the sum of the upper and the mirrored strict upper part did.
    """
    seedseq = _as_seedseq(seed)
    a = np.empty((m, n))
    denom = spec.denominator(m, n)
    cut = None
    if spec.truncate is not None:
        cut = spec.truncate * math.sqrt(math.log(max(m, n)))
    for r0 in range(0, m, STRIP_ROWS):
        r1 = min(r0 + STRIP_ROWS, m)
        u = entry_uniforms(seedseq, (r1 - r0) * n, start=r0 * n).reshape(r1 - r0, n)
        keep = slice(None)
        if spec.symmetric:
            keep = np.arange(n) >= np.arange(r0, r1)[:, None]
        x = spec.law.transform(u[keep])
        x *= spec._scale if spec._scale is not None else np.sqrt(
            spec.profile.values[r0:r1][keep])
        if cut is not None:
            x[np.abs(x) > cut] = 0.0
        if spec.symmetric:
            x += 0.0
        x /= denom
        a[r0:r1][keep] = x
        if spec.symmetric:
            a[r1:, r0:r1] = a[r0:r1, r1:].T
            block = a[r0:r1, r0:r1]
            np.copyto(block, block.T, where=~keep[:, r0:r1])
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


def matrix_to_csv(a, path):
    """Dense row-major CSV dump, 17 significant digits."""
    np.savetxt(path, np.atleast_2d(a), fmt="%.17g", delimiter=",")
