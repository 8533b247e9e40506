"""Replicate experiment harness.

Each experiment compares two estimates of the same statistic: two entry
laws with matched second moments, simulation against the Gaussian-limit
prediction, or empirical gradient-descent replicates against their
predicted normal law.  Reports carry per-statistic estimates, gaps,
combined standard errors and a pass flag; runtimes go to JSON only so CSV
artifacts are byte-stable under reruns.

All four replicate experiments run one loop, ``_replicates``, with a
per-experiment statistic.  Its seed contract: replicate r draws law A's
matrix from the stream ``(seed, REPLICATE, r, ENSEMBLE_A)`` and law B's
from ``(seed, REPLICATE, r, ENSEMBLE_B)``, so the two matrices are
independent while the shared profile and normalization match their second
moments exactly.  Law A's matrix is drawn and run, then law B's, so a
replicate holds one matrix at a time; a divergence under either law drops
the whole replicate and is counted against that law, and law B is not
drawn when law A diverges.  The decay and delocalization diagnostics draw
their one matrix as law A of replicate 0.
"""

import json
import math
import numbers
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .dynamics import Trajectory, run_amp_symmetric, run_asymmetric, run_symmetric
from .ensembles import (EnsembleSpec, EntryLaw, constant_profile,
                        sample_asymmetric, sample_symmetric)
from .erm import (ErmProblem, gradient_descent, pgd_linear, prox_lasso,
                  prox_ridge, prox_zero, smoothstep, solve_fixed_point,
                  squared_loss)
from .errors import ConfigError, DivergenceError, NumericalError
from .gd_se import gd_key_params, gd_se
from .programs import (build_gd_ridge, build_logistic, build_pgd_linear,
                       build_power_iteration, build_tanh_iteration, check_rates,
                       check_step, tanh_map)
from .seeds import (DOMAIN_ENSEMBLE_A, DOMAIN_ENSEMBLE_B, DOMAIN_PROBLEM_DATA,
                    DOMAIN_REPLICATE, child_sequence, generator)
from .state_evolution import (_is_int, amp_se_symmetric, predict_entrywise,
                              se_asymmetric, se_symmetric)

_FIXTURE_PATH = Path(__file__).parent / "data" / "default_tolerances.json"
_FIXTURE = None


def default_tolerances():
    global _FIXTURE
    if _FIXTURE is None:
        with open(_FIXTURE_PATH) as fh:
            _FIXTURE = json.load(fh)
    return _FIXTURE


def write_json(path, obj):
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_lines(path, lines):
    """Text lines, each terminated by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# test function menu

class PsiSpec:
    """Named scalar test function with its pseudo-Lipschitz order."""

    def __init__(self, name, fn, order):
        self.name = name
        self.fn = fn
        self.order = order

    def __call__(self, x):
        return self.fn(x)


PSI_MENU = {
    "square": PsiSpec("square", np.square, 2),
    "abs": PsiSpec("abs", np.abs, 1),
    "tanh_moment": PsiSpec("tanh_moment", np.tanh, 1),
    # smoothed step up through 0, ramp width 0.5
    "indicator_smoothed": PsiSpec("indicator_smoothed",
                                  lambda x: smoothstep(x / 0.5), 1),
}


def resolve_psi(psi):
    if isinstance(psi, PsiSpec):
        return psi
    if callable(psi):
        return PsiSpec(getattr(psi, "__name__", "custom"), psi, None)
    if not isinstance(psi, str):
        raise ConfigError(f"psi must be a string, got {psi!r}")
    if psi not in PSI_MENU:
        raise ConfigError(f"unknown test function {psi!r}; "
                          f"menu: {sorted(PSI_MENU)}")
    return PSI_MENU[psi]


# ---------------------------------------------------------------------------
# configuration

def _is_finite_real(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class ExperimentConfig:
    experiment: str
    program: str
    n: int
    m: int | None = None
    T: int = 2
    replicates: int = 50
    seed: int = 0
    psi: str = "square"
    coordinates: list = field(default_factory=lambda: [0])
    law_a: str = "gaussian"
    law_a_param: float | None = None
    law_b: str | None = None
    law_b_param: float | None = None
    mc_samples: int = 20000
    tolerance: float | None = None
    program_params: dict = field(default_factory=dict)

    def validate(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choices: {EXPERIMENT_NAMES}")
        if not isinstance(self.program, str):
            raise ConfigError(f"program must be a string, got {self.program!r}")
        if self.program not in REGISTRY:
            raise ConfigError(f"unknown program {self.program!r}; "
                              f"choices: {sorted(REGISTRY)}")
        programs = _EXPERIMENT_PROGRAMS.get(self.experiment)
        if programs is not None and self.program not in programs:
            raise ConfigError(f"{self.experiment} needs program "
                              f"{' or '.join(programs)}, got {self.program!r}")
        for key in ("seed", "n", "m", "T", "replicates", "mc_samples"):
            value = getattr(self, key)
            if key == "m" and value is None:
                continue
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.m is not None and self.m < 1:
            raise ConfigError("m must be >= 1")
        two_sided = REGISTRY[self.program].fields is not None
        if self.m is None and two_sided:
            raise ConfigError(f"program {self.program!r} needs m")
        if self.m is not None and not two_sided:
            raise ConfigError(f"m is read only by two-sided programs; "
                              f"{self.program!r} runs n x n")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.replicates < 2:
            raise ConfigError("replicates must be >= 2 (standard errors)")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples must be >= 2")
        resolve_psi(self.psi)
        # coordinates index z, v or the estimate, all of width n
        coords = self.coordinates
        if (not isinstance(coords, (list, tuple)) or not coords
                or not all(_is_int(k) and 0 <= k < self.n for k in coords)):
            raise ConfigError("coordinates must be a non-empty list of "
                              f"integers in 0..{self.n - 1}, got {coords!r}")
        if self.experiment == "universality_entrywise" and len(coords) > 10:
            raise ConfigError("universality_entrywise is limited to 10 "
                              "coordinates")
        for key in ("law_a_param", "law_b_param"):
            value = getattr(self, key)
            if value is not None and not _is_finite_real(value):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
        if self.law_b is not None and self.experiment not in _TWO_LAW_EXPERIMENTS:
            raise ConfigError(f"law_b is read only by "
                              f"{' and '.join(_TWO_LAW_EXPERIMENTS)}; "
                              f"{self.experiment} draws law_a alone")
        if self.law_b_param is not None and self.law_b is None:
            raise ConfigError("law_b_param needs law_b")
        EntryLaw(self.law_a, p=self.law_a_param)
        if self.law_b is not None:
            EntryLaw(self.law_b, p=self.law_b_param)
        params = self.program_params
        if not isinstance(params, dict):
            raise ConfigError(f"program_params must be an object, got {params!r}")
        allowed = REGISTRY[self.program].param_names
        unknown = set(params) - set(allowed)
        if unknown:
            raise ConfigError(f"unknown program_params {sorted(unknown)} for "
                              f"{self.program!r}; allowed: {sorted(allowed)}")
        for key, value in params.items():
            if key == "prox":
                if not (isinstance(value, str) and value in _PROX_KINDS):
                    raise ConfigError(f"prox must be one of {sorted(_PROX_KINDS)}, "
                                      f"got {value!r}")
            elif not _is_finite_real(value):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
            elif key == "subsample" and not 0.0 < value <= 1.0:
                raise ConfigError(f"subsample must be in (0, 1], got {value!r}")
        if REGISTRY[self.program].fields is not None:
            REGISTRY[self.program].fields(params)
        tol = self.tolerance
        if tol is not None and not (_is_finite_real(tol) and tol >= 0):
            raise ConfigError(f"tolerance must be a finite number >= 0, got {tol!r}")
        if tol is not None and self.experiment in ("decay", "delocalization"):
            raise ConfigError(f"tolerance is read only by gap rows; "
                              f"{self.experiment} has none")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        fields = set(cls.__dataclass_fields__)
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = {"experiment", "program", "n"} - set(data)
        if missing:
            raise ConfigError(f"missing required config keys {sorted(missing)}")
        return cls(**data).validate()


# ---------------------------------------------------------------------------
# report containers

class Statistic:
    """One comparison row; gap is exactly estimate_a - estimate_b."""

    def __init__(self, label, estimate_a, estimate_b, se, tolerance):
        self.label = label
        self.estimate_a = float(estimate_a)
        self.estimate_b = float(estimate_b)
        self.se = float(se)
        self.gap = self.estimate_a - self.estimate_b
        self.tolerance = float(tolerance)
        self.passed = abs(self.gap) <= self.tolerance


_T_IN_LABEL = re.compile(r"\bt=(\d+)")


class ComparisonReport:
    def __init__(self, name, statistics, divergent=None, runtime_seconds=0.0,
                 details=None):
        self.name = name
        self.statistics = list(statistics)
        self.divergent = divergent or {}
        self.runtime_seconds = runtime_seconds
        self.details = details or {}

    @property
    def passed(self):
        return all(st.passed for st in self.statistics)

    def statistic(self, label):
        for st in self.statistics:
            if st.label == label:
                return st
        raise KeyError(label)

    def plot_rows(self):
        """(series, x, y, y_err) per statistic: x is the step in the label,
        else the row index."""
        for i, st in enumerate(self.statistics):
            hit = _T_IN_LABEL.search(st.label)
            yield (st.label, int(hit.group(1)) if hit else i, st.gap, st.se)

    def to_csv(self, path):
        header = "statistic,estimate_a,estimate_b,gap,se,tolerance,passed"
        write_lines(path, [header] + [
            f"{st.label},{st.estimate_a:.17g},{st.estimate_b:.17g},"
            f"{st.gap:.17g},{st.se:.17g},{st.tolerance:.17g},{int(st.passed)}"
            for st in self.statistics])

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "divergent": self.divergent,
            "runtime_seconds": self.runtime_seconds,
            "details": self.details,
            "statistics": [{
                "label": st.label, "estimate_a": st.estimate_a,
                "estimate_b": st.estimate_b, "gap": st.gap, "se": st.se,
                "tolerance": st.tolerance, "passed": st.passed,
            } for st in self.statistics],
        }

    def save_json(self, path):
        write_json(path, self.to_json_dict())


# ---------------------------------------------------------------------------
# program registry

class RegistryEntry:
    """A named program: its config parameters and its plan builder.  A
    two-sided program (one on an m x n design, so the config needs m) also
    has ``fields``, which resolves its builder's own values from
    ``program_params`` under the builder's range checks."""

    def __init__(self, name, description, param_names, build, fields=None):
        self.name = name
        self.description = description
        self.param_names = param_names
        self.build = build
        self.fields = fields


class _Plan:
    """Sampling side shared by every program plan: a constant variance
    profile over the matrix shape (n x n without ``m``, m x n with it), held
    as one broadcast value, one ensemble spec per entry law, built once, and
    the matching sampler."""

    def __init__(self, n, m=None, data=None):
        self.n = n
        self.m = m
        self.data = data
        self.kind = "symmetric" if m is None else "asymmetric"
        self.profile = constant_profile((n, n) if m is None else (m, n))
        self._specs = {}

    def ensemble_spec(self, law):
        if law not in self._specs:
            self._specs[law] = EnsembleSpec(law, self.profile, "inv_sqrt_n",
                                            symmetric=self.m is None)
        return self._specs[law]

    def sample(self, law, seed):
        spec = self.ensemble_spec(law)
        if self.m is None:
            return sample_symmetric(spec, self.n, seed)
        return sample_asymmetric(spec, self.m, self.n, seed)


class _SymGfomPlan(_Plan):
    def __init__(self, prog):
        super().__init__(prog.n)
        self.prog = prog

    def simulate(self, a):
        return {"z": run_symmetric(a, self.prog).z}

    def se_record(self, mc, seed):
        return se_symmetric(self.prog, self.profile, mc_samples=mc, seed=seed)


class _AmpSymPlan(_Plan):
    def __init__(self, fns, z0, mc, seed):
        super().__init__(z0.shape[0])
        self.fns = fns
        self.z0 = z0
        # memory coefficients come from the limit law, shared by every replicate
        self.record = amp_se_symmetric(fns, self.profile, z0, mc_samples=mc,
                                       seed=seed)
        self._record_key = (mc, seed)

    def simulate(self, a):
        coeffs = self.record.sides["z"].coeffs
        return {"z": run_amp_symmetric(a, self.fns, coeffs, self.z0).z}

    def se_record(self, mc, seed):
        # the record the plan was built with; the replicates ran with its
        # coefficients, so no other sample count or seed can stand for them
        if (mc, seed) != self._record_key:
            raise ConfigError(f"the AMP plan's limit law was built with "
                              f"(mc_samples, seed) = {self._record_key}, "
                              f"not {(mc, seed)}")
        return self.record


class _AsymGfomPlan(_Plan):
    def __init__(self, prog, data):
        super().__init__(prog.n, prog.m, data)
        self.prog = prog

    def simulate(self, a):
        traj = run_asymmetric(a, self.prog)
        return {"u": traj.u, "v": traj.v}

    def se_record(self, mc, seed):
        return se_asymmetric(self.prog, self.profile, mc_samples=mc, seed=seed,
                             normalization="inv_sqrt_n")


def _problem_data(config, **fields):
    """The problem record of a two-sided program: signal ``mu0``, noise
    ``xi``, subsampling ``masks`` (None for the full sample) and the
    builder's own ``fields``; the plan keeps it as ``plan.data``."""
    rng = generator(config.seed, DOMAIN_PROBLEM_DATA, 0)
    params = config.program_params
    mu0 = rng.standard_normal(config.n)
    xi = float(params.get("noise", 1.0)) * rng.standard_normal(config.m)
    subsample = float(params.get("subsample", 1.0))
    masks = None
    if subsample < 1.0:
        masks = (rng.random((config.T, config.m)) < subsample).astype(float)
    return dict(mu0=mu0, xi=xi, masks=masks, **fields)


_PROX_KINDS = {"zero": prox_zero, "ridge": prox_ridge, "lasso": prox_lasso}


def _prox_from_params(params):
    kind = params.get("prox", "zero")
    if kind == "zero":
        if "prox_lam" in params:
            raise ConfigError("prox_lam is read only by the ridge and lasso "
                              "proxes; prox is zero")
        return prox_zero()
    return _PROX_KINDS[kind](float(params.get("prox_lam", 0.1)))


def _build_power(config):
    return _SymGfomPlan(build_power_iteration(config.T, np.ones(config.n)))


def _build_tanh_gfom(config):
    return _SymGfomPlan(build_tanh_iteration(config.T, np.ones(config.n)))


def _build_tanh_amp(config):
    fns = [tanh_map(t, t - 1) for t in range(1, config.T + 1)]
    return _AmpSymPlan(fns, np.ones(config.n), config.mc_samples, config.seed)


# the builders' own fields from program_params, range-checked by the
# builders' checks; validate runs them without building anything
def _pgd_fields(params):
    eta = float(params.get("eta", 0.25))
    check_step(eta)
    return dict(loss=squared_loss(), eta=eta, prox=_prox_from_params(params))


def _gd_ridge_fields(params):
    eta, lam = float(params.get("eta", 0.2)), float(params.get("lam", 0.1))
    check_rates(("eta", eta), ("lambda", lam))
    return dict(loss=squared_loss(), eta=eta, lam=lam)


def _logistic_fields(params):
    eta, sigma = float(params.get("eta", 0.05)), float(params.get("sigma", 0.0))
    check_rates(("eta", eta), ("sigma", sigma))
    return dict(eta=eta, sigma=sigma, prox=_prox_from_params(params))


def _build_pgd_linear(config):
    d = _problem_data(config, **_pgd_fields(config.program_params))
    return _AsymGfomPlan(build_pgd_linear(d["loss"], d["prox"], d["eta"],
                                          d["mu0"], d["xi"], config.T), d)


def _build_gd_ridge(config):
    d = _problem_data(config, **_gd_ridge_fields(config.program_params))
    return _AsymGfomPlan(build_gd_ridge(d["loss"], d["eta"], d["lam"], d["mu0"],
                                        d["xi"], d["masks"], config.T), d)


def _build_logistic(config):
    d = _problem_data(config, **_logistic_fields(config.program_params))
    return _AsymGfomPlan(build_logistic(d["prox"], d["eta"], d["sigma"], d["mu0"],
                                        d["xi"], config.T), d)


REGISTRY = {
    "power_iteration": RegistryEntry(
        "power_iteration", "symmetric: z(t) = A z(t-1), all-ones start",
        (), _build_power),
    "tanh_gfom": RegistryEntry(
        "tanh_gfom", "symmetric: z(t) = A tanh(z(t-1))", (), _build_tanh_gfom),
    "tanh_amp": RegistryEntry(
        "tanh_amp", "symmetric corrected iteration with tanh updates",
        (), _build_tanh_amp),
    "pgd_linear": RegistryEntry(
        "pgd_linear", "asymmetric: proximal gradient on the linear model",
        ("eta", "prox", "prox_lam", "noise"), _build_pgd_linear, _pgd_fields),
    "gd_ridge": RegistryEntry(
        "gd_ridge", "asymmetric: ridge gradient descent, optional subsampling",
        ("eta", "lam", "noise", "subsample"), _build_gd_ridge, _gd_ridge_fields),
    "logistic": RegistryEntry(
        "logistic", "asymmetric: smoothed-sign logistic regression PGD",
        ("eta", "sigma", "prox", "prox_lam", "noise"), _build_logistic,
        _logistic_fields),
}

# experiments that read one program's problem record; the rest run any program
_EXPERIMENT_PROGRAMS = {
    "gd_gaussianity": ("gd_ridge",),
    # PGD with the ridge prox has gd_ridge's minimizer
    "decay": ("pgd_linear", "gd_ridge"),
}

# experiments that compare entry law A with law B; the rest draw law A only
_TWO_LAW_EXPERIMENTS = ("universality_averaged", "universality_entrywise")


def build_plan(config):
    config.validate()
    return REGISTRY[config.program].build(config)


def list_programs():
    return [(e.name, e.description) for e in REGISTRY.values()]


def list_experiments():
    return list(EXPERIMENT_NAMES)


# ---------------------------------------------------------------------------
# experiment helpers

def _laws(config):
    """[law A, law B]; law B is law A when the config names none."""
    law_a = EntryLaw(config.law_a, p=config.law_a_param)
    if config.law_b is None:
        return [law_a, law_a]
    return [law_a, EntryLaw(config.law_b, p=config.law_b_param)]


def _replicates(config, plan, laws, stat, label):
    """Per-replicate statistic vectors under one or two entry laws.

    ``stat(a)`` maps one sampled matrix to a vector of statistics and runs
    the iteration once.  Returns one (replicates kept, statistics) array
    per law and the divergent-replicate counts keyed "a" (and "b").
    """
    names = "ab"[:len(laws)]
    domains = (DOMAIN_ENSEMBLE_A, DOMAIN_ENSEMBLE_B)
    kept = [[] for _ in laws]
    divergent = dict.fromkeys(names, 0)
    for r in range(config.replicates):
        row = []
        for name, law, dom in zip(names, laws, domains):
            # the matrix is an argument only, so it dies when stat returns
            try:
                row.append(stat(plan.sample(law, child_sequence(
                    config.seed, DOMAIN_REPLICATE, r, dom))))
            except DivergenceError:
                divergent[name] += 1
                break
        else:
            for vals, v in zip(kept, row):
                vals.append(v)
    _check_enough(len(kept[0]), label)
    return [np.asarray(vals, dtype=float) for vals in kept], divergent


def _avg_psi(tracks, psi, T):
    """psi averaged over the coordinates of each step 1..T."""
    steps = range(1, T + 1)
    if "z" in tracks:
        return [float(np.mean(psi(tracks["z"][t]))) for t in steps]
    u, v = tracks["u"], tracks["v"]
    width = u.shape[1] + v.shape[1]
    return [float((psi(u[t]).sum() + psi(v[t]).sum()) / width) for t in steps]


def _mean_se(samples):
    # accumulate deviations from the first sample so identical replicates
    # report their common value exactly and SE exactly 0
    arr = np.asarray(samples, dtype=float)
    dev = arr - arr[0]
    mean = float(arr[0] + dev.mean())
    return mean, float(dev.std(ddof=1) / math.sqrt(len(arr)))


def _ks_statistic(x):
    """Two-sided Kolmogorov-Smirnov distance of a sample to N(0, 1).

    The same float operations as scipy's ``kstest(x, "norm")``: sort, take
    the normal CDF, and return the larger of D+ and D-, each read at its
    argmax.  The statistic is equal to scipy's bit for bit, NaN included,
    and the package never imports scipy's statistics subpackage, whose
    import costs most of a run's start-up.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    cdf = ndtr(x)
    d_plus = np.arange(1.0, n + 1) / n - cdf
    d_minus = cdf - np.arange(0.0, n) / n
    d_plus = d_plus[np.argmax(d_plus)]
    d_minus = d_minus[np.argmax(d_minus)]
    return float(d_plus if d_plus > d_minus else d_minus)


def _gap_tolerance(config, se):
    if config.tolerance is not None:
        return config.tolerance
    return float(default_tolerances()["sigmas"]) * se


def _gap_row(config, label, samples_a, samples_b):
    """Row comparing two replicate means, with their combined SE."""
    est_a, se_a = _mean_se(samples_a)
    est_b, se_b = _mean_se(samples_b)
    se = math.sqrt(se_a**2 + se_b**2)
    return Statistic(label, est_a, est_b, se, _gap_tolerance(config, se))


def _check_enough(kept, label):
    if kept < 2:
        raise NumericalError(f"{label}: fewer than 2 convergent replicates")


# ---------------------------------------------------------------------------
# experiments

def universality_averaged(config):
    """Averaged statistics under entry law A vs entry law B (matched second
    moments); same-law comparison when no B law is configured."""
    tic = time.perf_counter()
    plan = build_plan(config)
    psi = resolve_psi(config.psi)
    (vals_a, vals_b), divergent = _replicates(
        config, plan, _laws(config),
        lambda a: _avg_psi(plan.simulate(a), psi, config.T),
        "universality_averaged")
    rows = [_gap_row(config, f"psi_avg[t={t}]", vals_a[:, t - 1],
                     vals_b[:, t - 1]) for t in range(1, config.T + 1)]
    return ComparisonReport(
        "universality_averaged", rows, divergent,
        runtime_seconds=time.perf_counter() - tic,
        details={"psi": psi.name, "law_a": config.law_a,
                 "law_b": config.law_b or config.law_a,
                 "replicates_used": len(vals_a)})


def universality_entrywise(config, psi=None):
    """Entrywise moments at selected coordinates under two matched laws."""
    tic = time.perf_counter()
    plan = build_plan(config)
    coords = list(config.coordinates)
    psi = resolve_psi(config.psi if psi is None else psi)
    # entrywise statistics live on z (symmetric) or v (asymmetric)
    track_key = "z" if plan.kind == "symmetric" else "v"

    def stat(a):
        track = plan.simulate(a)[track_key][config.T]
        return [float(psi(track[k])) for k in coords]

    (vals_a, vals_b), divergent = _replicates(config, plan, _laws(config),
                                              stat, "universality_entrywise")
    rows = [_gap_row(config, f"entry[k={k},t={config.T}]", vals_a[:, i],
                     vals_b[:, i]) for i, k in enumerate(coords)]
    return ComparisonReport(
        "universality_entrywise", rows, divergent,
        runtime_seconds=time.perf_counter() - tic,
        details={"psi": psi.name, "coordinates": coords,
                 "replicates_used": len(vals_a)})


def se_vs_simulation(config):
    """Simulated averaged statistics (Gaussian design) against the
    Gaussian-limit prediction computed by the covariance recursion."""
    tic = time.perf_counter()
    plan = build_plan(config)
    psi = resolve_psi(config.psi)
    record = plan.se_record(config.mc_samples, config.seed)
    sides = list(record.sides)
    cells = [(s, t) for s in sides for t in range(1, config.T + 1)]

    def stat(a):
        tracks = plan.simulate(a)
        return [float(np.mean(psi(tracks[s][t]))) for s, t in cells]

    (sim,), divergent = _replicates(config, plan, _laws(config)[:1], stat,
                                    "se_vs_simulation")
    preds = predict_entrywise(record, None, psi, cells=cells,
                              n_paths=config.mc_samples, seed=config.seed)
    rows = []
    for i, ((s, t), (means, ses)) in enumerate(zip(cells, preds)):
        dim = record.side(s).law.coords
        est_sim, se_sim = _mean_se(sim[:, i])
        est_pred = float(means.mean())
        if record.sides[s].collapsed:
            se_pred = float(ses[0])
        else:
            se_pred = float(np.sqrt(np.sum(ses**2)) / dim)
        se = math.sqrt(se_sim**2 + se_pred**2)
        rows.append(Statistic(f"psi_avg[{s},t={t}]", est_sim, est_pred, se,
                              _gap_tolerance(config, se)))
    return ComparisonReport(
        "se_vs_simulation", rows, divergent,
        runtime_seconds=time.perf_counter() - tic,
        details={"psi": psi.name, "replicates_used": len(sim)})


def gd_gaussianity_test(config):
    """Empirical law of (estimate - signal) coordinates over replicates with
    the design resampled, against the predicted normal: mean gap, variance
    gap, and Kolmogorov-Smirnov distance after standardizing."""
    tic = time.perf_counter()
    plan = build_plan(config)
    d, T = plan.data, config.T
    coords = [int(k) for k in config.coordinates]
    # only the step-T law is read, so the state and its m x n weights are
    # freed before any matrix is sampled
    law = gd_key_params(gd_se(d["loss"], d["eta"], d["lam"], d["mu0"], d["xi"],
                              d["masks"], plan.profile, T,
                              mc_samples=config.mc_samples, seed=config.seed), T)

    def stat(a):
        mu = gradient_descent(a, a @ d["mu0"] + d["xi"], d["loss"], d["eta"],
                              d["lam"], d["masks"], T)
        return mu[T][coords] - d["mu0"][coords]

    (devs,), divergent = _replicates(config, plan, _laws(config)[:1], stat,
                                     "gd_gaussianity")
    tols = default_tolerances()["gd_gaussianity"]
    rows = []
    rep = devs.shape[0]
    for i, ell in enumerate(coords):
        pred_mean = float(law.bias[ell] * d["mu0"][ell])
        sigma2 = float(law.variance[ell])
        col = devs[:, i]
        est_mean, se_mean = _mean_se(col)
        rows.append(Statistic(f"mean[l={ell}]", est_mean, pred_mean, se_mean,
                              _gap_tolerance(config, se_mean)))
        if sigma2 <= 0.0:
            # degenerate predicted law: the mean row above is the whole check
            continue
        var_se = sigma2 * math.sqrt(2.0 / (rep - 1))
        rows.append(Statistic(f"variance[l={ell}]", float(col.var(ddof=1)),
                              sigma2, var_se, tols["variance_rel"] * sigma2))
        zstd = (col - pred_mean) / math.sqrt(sigma2)
        ks = _ks_statistic(zstd)
        rows.append(Statistic(f"ks[l={ell}]", ks, 0.0, 0.0, tols["ks"]))
    return ComparisonReport(
        "gd_gaussianity", rows, divergent,
        runtime_seconds=time.perf_counter() - tic,
        details={"t": T, "coordinates": coords,
                 "predicted_bias": [float(law.bias[k]) for k in coords],
                 "predicted_variance": [float(law.variance[k]) for k in coords],
                 "replicates_used": rep})


# ---------------------------------------------------------------------------
# diagnostics

class DecayReport:
    """Distance of PGD iterates to the fixed point, with a log-linear fit."""

    def __init__(self, rows, slope, r_squared, converged, residual,
                 relative_to_fixed_point, runtime_seconds=0.0):
        self.rows = rows                      # (t, l2_over_sqrt_n, sup_norm)
        self.slope = slope
        self.r_squared = r_squared
        self.converged = converged
        self.residual = residual
        self.relative_to_fixed_point = relative_to_fixed_point
        self.runtime_seconds = runtime_seconds

    @property
    def passed(self):
        if not self.converged:
            return False
        thresh = default_tolerances()["decay"]["r_squared"]
        return (self.slope is not None and self.slope < 0
                and self.r_squared >= thresh)

    def plot_rows(self):
        for t, l2, _ in self.rows:
            yield ("l2_over_sqrt_n", t, l2, 0.0)
        for t, _, linf in self.rows:
            yield ("sup_norm", t, linf, 0.0)

    def to_csv(self, path):
        write_lines(path, ["t,l2_over_sqrt_n,sup_norm"] + [
            f"{t},{l2:.17g},{linf:.17g}" for t, l2, linf in self.rows])

    def to_json_dict(self):
        return {
            "name": "decay",
            "passed": self.passed,
            "slope": self.slope,
            "r_squared": self.r_squared,
            "converged": self.converged,
            "residual": self.residual,
            "relative_to_fixed_point": self.relative_to_fixed_point,
            "runtime_seconds": self.runtime_seconds,
            "rows": [[int(t), l2, linf] for t, l2, linf in self.rows],
        }

    def save_json(self, path):
        write_json(path, self.to_json_dict())


def convergence_decay_report(problem, T, mu_start=None):
    tic = time.perf_counter()
    fp = solve_fixed_point(problem)
    iters = pgd_linear(problem, T, mu_start=mu_start)
    n = iters.shape[1]
    rows = []
    if fp.converged:
        for t in range(T + 1):
            diff = iters[t] - fp.mu
            rows.append((t, float(np.linalg.norm(diff) / math.sqrt(n)),
                         float(np.max(np.abs(diff)))))
    else:
        for t in range(T + 1):
            rows.append((t, float(np.linalg.norm(iters[t]) / math.sqrt(n)),
                         float(np.max(np.abs(iters[t])))))
    slope = r2 = None
    if fp.converged:
        ts = np.array([t for t, l2, _ in rows if t >= 1 and l2 > 0.0])
        ys = np.log([l2 for t, l2, _ in rows if t >= 1 and l2 > 0.0])
        if len(ts) >= 3:
            coef = np.polyfit(ts, ys, 1)
            fit = np.polyval(coef, ts)
            ss_res = float(np.sum((ys - fit)**2))
            ss_tot = float(np.sum((ys - ys.mean())**2))
            slope = float(coef[0])
            r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayReport(rows, slope, r2, fp.converged, fp.residual,
                       relative_to_fixed_point=fp.converged,
                       runtime_seconds=time.perf_counter() - tic)


class DelocalizationReport:
    """Sup-norm to RMS-norm ratios per step; large ratios are flagged
    against a poly-log bound but never counted as failures."""

    def __init__(self, rows, prefactor, runtime_seconds=0.0):
        self.rows = rows   # dicts: track, t, sup_norm, rms_norm, ratio, ...
        self.prefactor = prefactor
        self.runtime_seconds = runtime_seconds

    @property
    def passed(self):
        return True

    def max_ratio(self, track=None):
        vals = [r["ratio"] for r in self.rows
                if track is None or r["track"] == track]
        return max(vals) if vals else 0.0

    def plot_rows(self):
        for r in self.rows:
            yield (r["track"], r["t"], r["ratio"], 0.0)

    def to_csv(self, path):
        lines = ["track,t,sup_norm,rms_norm,ratio,bound,flagged,loo_gap"]
        for r in self.rows:
            loo = "" if r["loo_gap"] is None else f"{r['loo_gap']:.17g}"
            lines.append(f"{r['track']},{r['t']},{r['sup_norm']:.17g},"
                         f"{r['rms_norm']:.17g},{r['ratio']:.17g},"
                         f"{r['bound']:.17g},{int(r['flagged'])},{loo}")
        write_lines(path, lines)

    def to_json_dict(self):
        return {"name": "delocalization", "passed": True,
                "prefactor": self.prefactor,
                "runtime_seconds": self.runtime_seconds, "rows": self.rows}

    def save_json(self, path):
        write_json(path, self.to_json_dict())


def _as_tracks(obj):
    if isinstance(obj, Trajectory):
        obj = {k: v for k, v in vars(obj).items() if v is not None}
    if isinstance(obj, dict):
        return {k: np.asarray(v) for k, v in obj.items()}
    return {"z": np.asarray(obj)}


def delocalization_report(trajectory, loo=None, prefactor=None):
    tic = time.perf_counter()
    tracks = _as_tracks(trajectory)
    loo_tracks = _as_tracks(loo) if loo is not None else {}
    if prefactor is None:
        prefactor = default_tolerances()["delocalization"]["prefactor"]
    rows = []
    for name in sorted(tracks):
        arr = tracks[name]
        n = arr.shape[1]
        logn = math.log(n) if n > 1 else 1.0
        for t in range(arr.shape[0]):
            sup = float(np.max(np.abs(arr[t])))
            rms = float(np.linalg.norm(arr[t]) / math.sqrt(n))
            ratio = 0.0 if rms == 0.0 else sup / rms
            bound = prefactor * logn**(2 * t)
            gap = None
            if name in loo_tracks:
                gap = float(np.max(np.abs(arr[t] - loo_tracks[name][t])))
            rows.append({"track": name, "t": t, "sup_norm": sup,
                         "rms_norm": rms, "ratio": ratio, "bound": bound,
                         "flagged": ratio > bound, "loo_gap": gap})
    return DelocalizationReport(rows, prefactor,
                                runtime_seconds=time.perf_counter() - tic)


# ---------------------------------------------------------------------------
# config-driven wrappers for the diagnostic reports

def _run_decay(config):
    plan = build_plan(config)
    d = plan.data
    prox = d.get("prox")
    if prox is None:
        # ridge decay: PGD with the ridge prox has gd_ridge's minimizer
        prox = prox_ridge(d["lam"]) if d["lam"] > 0 else prox_zero()
    a = plan.sample(_laws(config)[0], child_sequence(
        config.seed, DOMAIN_REPLICATE, 0, DOMAIN_ENSEMBLE_A))
    problem = ErmProblem(a=a, prox=prox, eta=d["eta"], loss=d["loss"],
                         mu0=d["mu0"], xi=d["xi"])
    return convergence_decay_report(problem, config.T)


def _run_delocalization(config):
    plan = build_plan(config)
    a = plan.sample(_laws(config)[0], child_sequence(
        config.seed, DOMAIN_REPLICATE, 0, DOMAIN_ENSEMBLE_A))
    return delocalization_report(plan.simulate(a))


EXPERIMENTS = {
    "universality_averaged": universality_averaged,
    "universality_entrywise": universality_entrywise,
    "se_vs_simulation": se_vs_simulation,
    "gd_gaussianity": gd_gaussianity_test,
    "decay": _run_decay,
    "delocalization": _run_delocalization,
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_named_experiment(config):
    config.validate()
    return EXPERIMENTS[config.experiment](config)
