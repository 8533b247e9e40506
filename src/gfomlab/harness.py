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
from ``(seed, REPLICATE, r, ENSEMBLE_B)``, the streams that
``ensembles.matched_pair`` derives from ``(seed, REPLICATE, r)``.  Both
matrices of a replicate are drawn before either runs; a divergence under
either law drops the whole replicate and is counted against that law.  The
decay and delocalization diagnostics draw their one matrix as law A of
replicate 0.
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from .dynamics import Trajectory, run_amp_symmetric, run_asymmetric, run_symmetric
from .ensembles import (EnsembleSpec, EntryLaw, constant_profile,
                        sample_asymmetric, sample_symmetric)
from .erm import (ErmProblem, gradient_descent, pgd_linear, prox_lasso,
                  prox_ridge, prox_zero, smoothstep, solve_fixed_point,
                  squared_loss)
from .errors import ConfigError, DivergenceError, NumericalError
from .gd_se import gd_key_params, gd_se
from .programs import (build_gd_ridge, build_logistic, build_pgd_linear,
                       build_power_iteration, build_tanh_iteration, tanh_map)
from .seeds import (DOMAIN_ENSEMBLE_A, DOMAIN_ENSEMBLE_B, DOMAIN_PROBLEM_DATA,
                    DOMAIN_REPLICATE, child_sequence, generator)
from .state_evolution import (amp_se_symmetric, predict_entrywise,
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
    if psi not in PSI_MENU:
        raise ConfigError(f"unknown test function {psi!r}; "
                          f"menu: {sorted(PSI_MENU)}")
    return PSI_MENU[psi]


# ---------------------------------------------------------------------------
# configuration

EXPERIMENT_NAMES = ("universality_averaged", "universality_entrywise",
                    "se_vs_simulation", "gd_gaussianity", "decay",
                    "delocalization")


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
        if self.program not in REGISTRY:
            raise ConfigError(f"unknown program {self.program!r}; "
                              f"choices: {sorted(REGISTRY)}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.m is not None and self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.replicates < 2:
            raise ConfigError("replicates must be >= 2 (standard errors)")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples must be >= 2")
        resolve_psi(self.psi)
        for k in self.coordinates:
            if not 0 <= int(k):
                raise ConfigError(f"coordinate {k} is negative")
        EntryLaw(self.law_a, p=self.law_a_param)
        if self.law_b is not None:
            EntryLaw(self.law_b, p=self.law_b_param)
        allowed = REGISTRY[self.program].param_names
        unknown = set(self.program_params) - set(allowed)
        if unknown:
            raise ConfigError(f"unknown program_params {sorted(unknown)} for "
                              f"{self.program!r}; allowed: {sorted(allowed)}")
        if self.tolerance is not None and self.tolerance < 0:
            raise ConfigError("tolerance must be >= 0")
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
    def __init__(self, name, description, param_names, build):
        self.name = name
        self.description = description
        self.param_names = param_names
        self.build = build


class _Plan:
    """Sampling side shared by every program plan: a constant variance
    profile over the matrix shape (n x n without ``m``, m x n with it), one
    ensemble spec per entry law, built once, and the matching sampler."""

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

    def simulate(self, a):
        return {"z": run_amp_symmetric(a, self.fns, self.record.onsager,
                                       self.z0).z}

    def se_record(self, mc, seed):
        # the record the plan was built with, from the same config
        return self.record


class _AsymGfomPlan(_Plan):
    def __init__(self, prog, data):
        super().__init__(prog.n, prog.m, data)
        self.prog = prog

    def simulate(self, a):
        traj = run_asymmetric(a, self.prog)
        mu_from_v = self.prog.meta.get("mu_from_v")
        out = {"u": traj.u, "v": traj.v}
        if mu_from_v is not None:
            out["mu"] = np.stack([mu_from_v(v) for v in traj.v])
        return out

    def se_record(self, mc, seed):
        return se_asymmetric(self.prog, self.profile, mc_samples=mc, seed=seed,
                             normalization="inv_sqrt_n")


class _GdPlan(_AsymGfomPlan):
    def __init__(self, prog, data):
        super().__init__(prog, data)
        self.loss = squared_loss()
        self.eta = data["eta"]
        self.lam = data["lam"]
        self.mu0 = data["mu0"]
        self.xi = data["xi"]
        self.masks = data["masks"]

    def gd_mu(self, a):
        y = a @ self.mu0 + self.xi
        return gradient_descent(a, y, self.loss, self.eta, self.lam,
                                self.masks, self.prog.T)

    def gd_state(self, mc, seed):
        return gd_se(self.loss, self.eta, self.lam, self.mu0, self.xi,
                     self.masks, self.profile, self.prog.T,
                     mc_samples=mc, seed=seed)


def _problem_data(config, need_m=True):
    if need_m and config.m is None:
        raise ConfigError(f"program {config.program!r} needs m")
    rng = generator(config.seed, DOMAIN_PROBLEM_DATA, 0)
    params = dict(config.program_params)
    noise = float(params.get("noise", 1.0))
    mu0 = rng.standard_normal(config.n)
    xi = noise * rng.standard_normal(config.m)
    subsample = float(params.get("subsample", 1.0))
    if not 0.0 < subsample <= 1.0:
        raise ConfigError("subsample must be in (0, 1]")
    masks = None
    if subsample < 1.0:
        masks = (rng.random((config.T, config.m)) < subsample).astype(float)
    return mu0, xi, masks, params


def _prox_from_params(params):
    kind = params.get("prox", "zero")
    lam = float(params.get("prox_lam", 0.1))
    if kind == "zero":
        return prox_zero()
    if kind == "ridge":
        return prox_ridge(lam)
    if kind == "lasso":
        return prox_lasso(lam)
    raise ConfigError(f"unknown prox kind {kind!r}")


def _build_power(config):
    return _SymGfomPlan(build_power_iteration(config.T, np.ones(config.n)))


def _build_tanh_gfom(config):
    return _SymGfomPlan(build_tanh_iteration(config.T, np.ones(config.n)))


def _build_tanh_amp(config):
    fns = [tanh_map(t, t - 1) for t in range(1, config.T + 1)]
    return _AmpSymPlan(fns, np.ones(config.n), config.mc_samples, config.seed)


def _build_pgd_linear(config):
    mu0, xi, _, params = _problem_data(config)
    eta = float(params.get("eta", 0.25))
    prox = _prox_from_params(params)
    prog = build_pgd_linear(squared_loss(), prox, eta, mu0, xi, config.T)
    return _AsymGfomPlan(prog, {"mu0": mu0, "xi": xi, "eta": eta,
                                "prox": prox})


def _build_gd_ridge(config):
    mu0, xi, masks, params = _problem_data(config)
    eta = float(params.get("eta", 0.2))
    lam = float(params.get("lam", 0.1))
    prog = build_gd_ridge(squared_loss(), eta, lam, mu0, xi, masks, config.T)
    return _GdPlan(prog, {"mu0": mu0, "xi": xi, "masks": masks,
                          "eta": eta, "lam": lam})


def _build_logistic(config):
    mu0, xi, _, params = _problem_data(config)
    eta = float(params.get("eta", 0.05))
    sigma = float(params.get("sigma", 0.0))
    prog = build_logistic(_prox_from_params(params), eta, sigma, mu0, xi,
                          config.T)
    return _AsymGfomPlan(prog, {"mu0": mu0, "xi": xi, "eta": eta,
                                "sigma": sigma})


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
        ("eta", "prox", "prox_lam", "noise"), _build_pgd_linear),
    "gd_ridge": RegistryEntry(
        "gd_ridge", "asymmetric: ridge gradient descent, optional subsampling",
        ("eta", "lam", "noise", "subsample"), _build_gd_ridge),
    "logistic": RegistryEntry(
        "logistic", "asymmetric: smoothed-sign logistic regression PGD",
        ("eta", "sigma", "prox", "prox_lam", "noise"), _build_logistic),
}


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
        mats = [plan.sample(law, child_sequence(config.seed, DOMAIN_REPLICATE,
                                                r, dom))
                for law, dom in zip(laws, domains)]
        row = []
        for name, a in zip(names, mats):
            try:
                row.append(stat(a))
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


def universality_entrywise(config, coords=None, psi=None):
    """Entrywise moments at selected coordinates under two matched laws."""
    tic = time.perf_counter()
    plan = build_plan(config)
    coords = list(config.coordinates if coords is None else coords)
    if len(coords) > 10:
        raise ConfigError("entrywise comparison is limited to 10 coordinates")
    psi = resolve_psi(config.psi if psi is None else psi)
    # entrywise statistics live on z (symmetric) or v (asymmetric), both width n
    dim = plan.n
    for k in coords:
        if not 0 <= k < dim:
            raise ConfigError(f"coordinate {k} outside 0..{dim - 1}")
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
    sides = ["z"] if record.symmetric else ["u", "v"]
    cells = [(s, t) for s in sides for t in range(1, config.T + 1)]

    def stat(a):
        tracks = plan.simulate(a)
        return [float(np.mean(psi(tracks[s][t]))) for s, t in cells]

    (sim,), divergent = _replicates(config, plan, _laws(config)[:1], stat,
                                    "se_vs_simulation")
    rows = []
    for i, (s, t) in enumerate(cells):
        dim = plan.n if s in ("z", "v") else plan.m
        est_sim, se_sim = _mean_se(sim[:, i])
        means, ses = predict_entrywise(record, np.arange(dim), psi, side=s, t=t,
                                       n_paths=config.mc_samples,
                                       seed=config.seed)
        est_pred = float(means.mean())
        if record.collapsed.get(s, False):
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
    if not isinstance(plan, _GdPlan):
        raise ConfigError("gd_gaussianity needs the gd_ridge program")
    coords = [int(k) for k in config.coordinates]
    for k in coords:
        if not 0 <= k < plan.n:
            raise ConfigError(f"coordinate {k} outside 0..{plan.n - 1}")
    state = plan.gd_state(config.mc_samples, config.seed)
    law = gd_key_params(state, config.T)
    (devs,), divergent = _replicates(
        config, plan, _laws(config)[:1],
        lambda a: plan.gd_mu(a)[config.T][coords] - plan.mu0[coords],
        "gd_gaussianity")
    tols = default_tolerances()["gd_gaussianity"]
    rows = []
    rep = devs.shape[0]
    for i, ell in enumerate(coords):
        pred_mean = float(law.bias[ell] * plan.mu0[ell])
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
        ks = float(stats.kstest(zstd, "norm").statistic)
        rows.append(Statistic(f"ks[l={ell}]", ks, 0.0, 0.0, tols["ks"]))
    return ComparisonReport(
        "gd_gaussianity", rows, divergent,
        runtime_seconds=time.perf_counter() - tic,
        details={"t": config.T, "coordinates": coords,
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
        out = {}
        if obj.z is not None:
            out["z"] = np.asarray(obj.z)
        if obj.u is not None:
            out["u"] = np.asarray(obj.u)
        if obj.v is not None:
            out["v"] = np.asarray(obj.v)
        return out
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
    if isinstance(plan, _GdPlan):
        # ridge decay: PGD with the ridge prox has the same minimizer
        lam = plan.data["lam"]
        prox = prox_ridge(lam) if lam > 0 else prox_zero()
    elif isinstance(plan, _AsymGfomPlan) and "prox" in plan.data:
        prox = plan.data["prox"]
    else:
        raise ConfigError("decay experiment needs pgd_linear or gd_ridge")
    a = plan.sample(_laws(config)[0], child_sequence(
        config.seed, DOMAIN_REPLICATE, 0, DOMAIN_ENSEMBLE_A))
    problem = ErmProblem(a=a, prox=prox, eta=plan.data["eta"],
                         loss=squared_loss(), mu0=plan.data["mu0"],
                         xi=plan.data["xi"])
    return convergence_decay_report(problem, config.T)


def _run_delocalization(config):
    plan = build_plan(config)
    a = plan.sample(_laws(config)[0], child_sequence(
        config.seed, DOMAIN_REPLICATE, 0, DOMAIN_ENSEMBLE_A))
    tracks = plan.simulate(a)
    tracks.pop("mu", None)
    return delocalization_report(tracks)


EXPERIMENTS = {
    "universality_averaged": universality_averaged,
    "universality_entrywise": universality_entrywise,
    "se_vs_simulation": se_vs_simulation,
    "gd_gaussianity": gd_gaussianity_test,
    "decay": _run_decay,
    "delocalization": _run_delocalization,
}


def run_named_experiment(config):
    config.validate()
    return EXPERIMENTS[config.experiment](config)
