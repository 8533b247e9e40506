"""Proximal operators and proximal-gradient solvers for regularized ERM.

Covers the linear model (squared or custom scalar loss) and smoothed
logistic regression, plus leave-one-out reruns used by the diagnostics.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DivergenceError, NumericalError

DIVERGENCE_LIMIT = 1e12


# ---------------------------------------------------------------------------
# scalar building blocks

def smoothstep(x):
    """Cubic ramp: 0 for x <= -1, 1 for x >= 1, 3u^2 - 2u^3 between (u=(x+1)/2)."""
    x = np.asarray(x, dtype=float)
    u = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def dsmoothstep(x):
    x = np.asarray(x, dtype=float)
    u = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    inside = (x > -1.0) & (x < 1.0)
    return np.where(inside, 3.0 * u * (1.0 - u), 0.0)


def sigmoid(x):
    return expit(x)


def smoothed_sign(z, sigma):
    """2 * phi_sigma(z) - 1: the hard sign of z when sigma == 0."""
    z = np.asarray(z, dtype=float)
    if sigma == 0.0:
        return np.where(z >= 0.0, 1.0, -1.0)
    return 2.0 * smoothstep(z / sigma) - 1.0


def dsmoothed_sign(z, sigma):
    if sigma == 0.0:
        return np.zeros_like(np.asarray(z, dtype=float))
    return 2.0 * dsmoothstep(np.asarray(z, dtype=float) / sigma) / sigma


def logistic_dloss_x(x, y, xi, sigma):
    """First partial (in x) of the smoothed logistic loss.

    With s = smoothed_sign(y + xi, sigma) this is -s * sigmoid(-s * x); its
    magnitude never exceeds 1.
    """
    s = smoothed_sign(np.asarray(y, float) + np.asarray(xi, float), sigma)
    return -s * sigmoid(-s * np.asarray(x, float))


@dataclass(frozen=True)
class Loss:
    """Scalar loss with first and second derivatives.

    ``quadratic`` marks losses with constant second derivative; downstream
    state-evolution code uses it to switch to exact (no Monte Carlo)
    expectation formulas.
    """

    value: callable
    d1: callable
    d2: callable
    quadratic: bool = False


def squared_loss():
    return Loss(
        value=lambda x: 0.5 * np.square(x),
        d1=lambda x: np.asarray(x, dtype=float),
        d2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        quadratic=True,
    )


# ---------------------------------------------------------------------------
# proximal operators

@dataclass(frozen=True)
class ProxSpec:
    """Scalar proximal operator prox_{eta f}, applied coordinate-wise.

    kinds: zero (identity), ridge (x / (1 + eta*lam)), lasso (soft
    threshold at eta*lam), smooth_custom (implicit root of
    w - x + eta f'(w) = 0 by safeguarded Newton).
    """

    kind: str
    lam: float = 0.0
    f: callable = None
    fp: callable = None
    fpp: callable = None
    alpha: float = 0.0  # strong convexity of f, 0 if unknown

    def __post_init__(self):
        if self.kind not in ("zero", "ridge", "lasso", "smooth_custom"):
            raise ConfigError(f"unknown prox kind {self.kind!r}")
        if self.kind in ("ridge", "lasso") and self.lam < 0:
            raise ConfigError("penalty weight must be >= 0")
        if self.kind == "smooth_custom" and self.fp is None:
            raise ConfigError("smooth_custom prox needs f'")

    def apply(self, eta, x):
        x = np.asarray(x, dtype=float)
        if eta < 0:
            raise ConfigError("prox step eta must be >= 0")
        if self.kind == "zero" or eta == 0.0:
            return x.copy()
        if self.kind == "ridge":
            return x / (1.0 + eta * self.lam)
        if self.kind == "lasso":
            return np.sign(x) * np.maximum(np.abs(x) - eta * self.lam, 0.0)
        return _newton_prox(self, eta, x)

    def dapply(self, eta, x):
        """Derivative of apply in x (a.e. for lasso)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero" or eta == 0.0:
            return np.ones_like(x)
        if self.kind == "ridge":
            return np.full_like(x, 1.0 / (1.0 + eta * self.lam))
        if self.kind == "lasso":
            return np.where(np.abs(x) > eta * self.lam, 1.0, 0.0)
        w = _newton_prox(self, eta, x)
        if self.fpp is not None:
            return 1.0 / (1.0 + eta * np.asarray(self.fpp(w), dtype=float))
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        return (_newton_prox(self, eta, x + h) - _newton_prox(self, eta, x - h)) / (2.0 * h)

    def strong_convexity(self):
        if self.kind == "ridge":
            return self.lam
        if self.kind == "smooth_custom":
            return self.alpha
        return 0.0


def prox_zero():
    return ProxSpec("zero")


def prox_ridge(lam):
    return ProxSpec("ridge", lam=lam)


def prox_lasso(lam):
    return ProxSpec("lasso", lam=lam)


def prox_smooth(f, fp, alpha=0.0, fpp=None):
    return ProxSpec("smooth_custom", f=f, fp=fp, fpp=fpp, alpha=alpha)


def _newton_prox(spec, eta, x, tol=1e-12, max_iter=100):
    """Vectorized safeguarded Newton for w - x + eta f'(w) = 0.

    f convex makes g(w) = w - x + eta f'(w) strictly increasing, so the root
    is unique; Newton steps are clipped into a sign-changing bracket grown
    geometrically from w = x.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.ravel(x)
    fp = spec.fp

    g = lambda w: w - x + eta * np.asarray(fp(w), dtype=float)
    lo = x.copy()
    hi = x.copy()
    g0 = g(x)
    step = np.maximum(1.0, np.abs(x))
    need_lo = g0 > 0
    need_hi = g0 < 0
    for _ in range(200):
        if need_lo.any():
            lo[need_lo] -= step[need_lo]
        if need_hi.any():
            hi[need_hi] += step[need_hi]
        need_lo &= g(lo) > 0
        need_hi &= g(hi) < 0
        step *= 2.0
        if not (need_lo.any() or need_hi.any()):
            break
    else:
        raise NumericalError("prox bracket expansion failed")

    w = 0.5 * (lo + hi)
    if spec.fpp is not None:
        gprime = lambda v: 1.0 + eta * np.asarray(spec.fpp(v), dtype=float)
    else:
        hh = 1e-7
        gprime = lambda v: 1.0 + eta * (
            np.asarray(fp(v + hh), dtype=float) - np.asarray(fp(v - hh), dtype=float)
        ) / (2.0 * hh)
    for _ in range(max_iter):
        gw = g(w)
        done = np.abs(gw) <= tol
        if done.all():
            return w.reshape(shape)
        lo = np.where(gw < 0, w, lo)
        hi = np.where(gw > 0, w, hi)
        gp = np.maximum(gprime(w), 1e-12)
        cand = w - gw / gp
        outside = (cand <= lo) | (cand >= hi)
        w = np.where(done, w, np.where(outside, 0.5 * (lo + hi), cand))
    raise NumericalError("prox Newton did not reach 1e-12 in 100 iterations")


def prox_eval(spec, eta, x):
    """Scalar convenience wrapper around ProxSpec.apply."""
    return float(spec.apply(eta, np.asarray([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# problems and solvers

@dataclass
class ErmProblem:
    """Data for min_mu sum_i L(...) + sum_j f(mu_j).

    Either ``y`` is given directly, or (mu0, xi) and then y = A mu0 + xi for
    the linear model; the logistic solver always works from (mu0, xi).
    """

    a: np.ndarray
    prox: ProxSpec
    eta: float | None = None
    loss: Loss = field(default_factory=squared_loss)
    y: np.ndarray | None = None
    mu0: np.ndarray | None = None
    xi: np.ndarray | None = None

    def target(self):
        if self.y is not None:
            return np.asarray(self.y, dtype=float)
        if self.mu0 is None or self.xi is None:
            raise ConfigError("need y or (mu0, xi)")
        return self.a @ self.mu0 + self.xi

    def step_size(self):
        if self.eta is not None:
            return float(self.eta)
        return default_eta(self.a)


def operator_norm_sq(a, steps=50):
    """Largest eigenvalue of A^T A by fixed-start power iteration."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    v = np.ones(n) / math.sqrt(n)
    lam = 0.0
    for _ in range(steps):
        w = a.T @ (a @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / norm
    return lam


def default_eta(a):
    """0.5 / ||A||_op^2 (power-iteration estimate, 50 steps)."""
    est = operator_norm_sq(a)
    if est == 0.0:
        return 1.0
    return 0.5 / est


def check_bounded(x, step, track=None):
    """DivergenceError, naming the step and track, unless every entry of the
    iterate x is finite and at most DIVERGENCE_LIMIT in magnitude."""
    if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_LIMIT:
        raise DivergenceError(f"iterate magnitude exceeded {DIVERGENCE_LIMIT:g} "
                              f"at step {step}", step=step, track=track)


def pgd_linear(problem, T, mu_start=None):
    """mu^(t) = prox(mu^(t-1) + eta A^T L'(y - A mu^(t-1))), mu^(0) = 0."""
    a = np.asarray(problem.a, dtype=float)
    y = problem.target()
    eta = problem.step_size()
    d1 = problem.loss.d1
    n = a.shape[1]
    out = np.zeros((T + 1, n))
    mu = np.zeros(n) if mu_start is None else np.array(mu_start, dtype=float)
    out[0] = mu
    for t in range(1, T + 1):
        mu = problem.prox.apply(eta, mu + eta * (a.T @ d1(y - a @ mu)))
        check_bounded(mu, t)
        out[t] = mu
    return out


def default_logit_clamp(n):
    return 20.0 * math.log(n)


def pgd_logistic(problem, sigma, T, clamp=None):
    """Smoothed logistic PGD from (mu0, xi); sigma=0 is the hard-sign loss.

    The x-argument of the loss derivative is clamped to [-clamp, clamp]
    (default 20 log n), mirroring the score clamp used by the program
    builder so both routes agree exactly.
    """
    a = np.asarray(problem.a, dtype=float)
    if problem.mu0 is None or problem.xi is None:
        raise ConfigError("logistic solver needs (mu0, xi)")
    n = a.shape[1]
    if clamp is None:
        clamp = default_logit_clamp(n)
    eta = problem.step_size()
    y_margin = a @ problem.mu0
    out = np.zeros((T + 1, n))
    mu = np.zeros(n)
    for t in range(1, T + 1):
        x = np.clip(a @ mu, -clamp, clamp)
        grad = a.T @ logistic_dloss_x(x, y_margin, problem.xi, sigma)
        mu = problem.prox.apply(eta, mu - eta * grad)
        check_bounded(mu, t)
        out[t] = mu
    return out


@dataclass
class FixedPointResult:
    mu: np.ndarray
    iterations: int
    residual: float
    converged: bool


def solve_fixed_point(problem, tol=1e-10, max_T=100000):
    """Run PGD until the infinity-norm step change is <= tol.

    Returns the solution with the first-order-condition residual
    ||mu - prox(mu + eta A^T L'(y - A mu))||_inf; if max_T is exhausted the
    result is returned with converged=False rather than raised.
    """
    a = np.asarray(problem.a, dtype=float)
    y = problem.target()
    eta = problem.step_size()
    d1 = problem.loss.d1
    mu = np.zeros(a.shape[1])
    converged = False
    iterations = 0
    for t in range(1, max_T + 1):
        nxt = problem.prox.apply(eta, mu + eta * (a.T @ d1(y - a @ mu)))
        check_bounded(nxt, t)
        delta = np.max(np.abs(nxt - mu))
        mu = nxt
        iterations = t
        if delta <= tol:
            converged = True
            break
    resid = np.max(np.abs(mu - problem.prox.apply(eta, mu + eta * (a.T @ d1(y - a @ mu)))))
    return FixedPointResult(mu=mu, iterations=iterations, residual=float(resid), converged=converged)


def logistic_objective_check(a, mu0, xi, fprime, mu):
    """Gradients of the two equivalent logistic objectives at mu.

    Route one scores observed labels y_i = sign(<A_i, mu0> + xi_i); route two
    evaluates the noise-reformulated loss derivative.  They must coincide.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    margin = a @ np.asarray(mu0, dtype=float)
    labels = np.where(margin + np.asarray(xi, dtype=float) >= 0.0, 1.0, -1.0)
    x = a @ mu
    reg = 0.0 if fprime is None else np.asarray(fprime(mu), dtype=float)
    grad_direct = a.T @ (-labels * sigmoid(-labels * x)) + reg
    grad_equiv = a.T @ logistic_dloss_x(x, margin, xi, 0.0) + reg
    return grad_direct, grad_equiv


def leave_one_out_run(problem, drop, index, T, sigma=None):
    """PGD rerun with predictor column (drop='predictor') or sample row
    (drop='sample') zeroed out; zeroing a row removes that sample's
    gradient contribution exactly."""
    a = np.asarray(problem.a, dtype=float)
    m, n = a.shape
    if drop == "predictor":
        if not 0 <= index < n:
            raise ConfigError(f"predictor index {index} out of range")
        a2 = a.copy()
        a2[:, index] = 0.0
    elif drop == "sample":
        if not 0 <= index < m:
            raise ConfigError(f"sample index {index} out of range")
        a2 = a.copy()
        a2[index, :] = 0.0
    else:
        raise ConfigError(f"unknown drop kind {drop!r}")
    sub = ErmProblem(a=a2, prox=problem.prox, eta=problem.eta, loss=problem.loss,
                     y=problem.y, mu0=problem.mu0, xi=problem.xi)
    if sigma is None:
        return pgd_linear(sub, T)
    return pgd_logistic(sub, sigma, T)


def gradient_descent(a, y, loss, eta, lam, masks, T):
    """Ridge-penalized (optionally subsampled) gradient descent, mu^(0) = 0.

    mu^(t) = (1 - eta lam) mu^(t-1) + eta A^T (s^(t-1) * L'(y - A mu^(t-1)))
    with s^(t-1) the 0/1 mask of step t-1 (None = full sample).
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    n = a.shape[1]
    out = np.zeros((T + 1, n))
    mu = np.zeros(n)
    for t in range(1, T + 1):
        grad_part = loss.d1(y - a @ mu)
        if masks is not None:
            grad_part = grad_part * masks[t - 1]
        mu = (1.0 - eta * lam) * mu + eta * (a.T @ grad_part)
        check_bounded(mu, t)
        out[t] = mu
    return out
