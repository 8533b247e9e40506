"""Replicate experiments: configs, reports, comparisons, diagnostics."""

import contextlib
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import counting_generator
from gfomlab.ensembles import EnsembleSpec, constant_profile, gaussian_law, sample_asymmetric
from gfomlab.erm import (ErmProblem, gradient_descent, prox_lasso, prox_ridge,
                         solve_fixed_point, squared_loss)
from gfomlab.errors import ConfigError, DivergenceError, NumericalError
from gfomlab.harness import (
    EXPERIMENT_NAMES,
    REGISTRY,
    ExperimentConfig,
    PSI_MENU,
    RegistryEntry,
    Statistic,
    comparison_report,
    _EXPERIMENT_KEYS,
    _EXPERIMENT_PROGRAMS,
    _SymGfomPlan,
    _ks_statistic,
    _laws,
    _replicates,
    build_plan,
    convergence_decay_report,
    default_tolerances,
    delocalization_report,
    gd_gaussianity_test,
    list_experiments,
    list_programs,
    resolve_psi,
    run_named_experiment,
    se_vs_simulation,
    universality_averaged,
    universality_entrywise,
)
from gfomlab.programs import (
    RowFunction,
    SymmetricProgram,
    constant_rows,
    pick_iterate,
    tanh_map,
    zero_row_function,
)


@contextlib.contextmanager
def temp_program(name, plan_builder, params=()):
    REGISTRY[name] = RegistryEntry(name, "test-only program", params,
                                   plan_builder)
    try:
        yield
    finally:
        del REGISTRY[name]


def base_config(**overrides):
    kwargs = dict(experiment="universality_averaged", program="tanh_gfom",
                  n=40, T=2, replicates=8, seed=0, mc_samples=2000)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# test function menu

def test_psi_menu_values_and_orders():
    assert set(PSI_MENU) == {"square", "abs", "tanh_moment",
                             "indicator_smoothed"}
    assert PSI_MENU["square"](3.0) == 9.0
    assert PSI_MENU["abs"](-2.0) == 2.0
    assert PSI_MENU["tanh_moment"](0.5) == np.tanh(0.5)
    ind = PSI_MENU["indicator_smoothed"]
    assert ind(0.0) == 0.5
    assert ind(0.6) == 1.0 and ind(-0.6) == 0.0
    assert PSI_MENU["square"].order == 2
    assert all(PSI_MENU[k].order == 1 for k in ("abs", "tanh_moment",
                                                "indicator_smoothed"))


def test_resolve_psi():
    spec = PSI_MENU["abs"]
    assert resolve_psi(spec) is spec
    assert resolve_psi("square") is PSI_MENU["square"]
    custom = resolve_psi(lambda x: x)
    assert custom.order is None and callable(custom)
    with pytest.raises(ConfigError):
        resolve_psi("cube")


def test_default_tolerance_fixture():
    # every entry is a gate some run reads, so a dead gate cannot come back:
    # gap rows are gated at sigmas standard errors
    assert default_tolerances() == {
        "sigmas": 4.0,
        "gd_gaussianity": {"ks": 0.06, "variance_rel": 0.15, "replicates": 1000},
        "decay": {"r_squared": 0.95},
        "delocalization": {"prefactor": 10.0},
    }


# ---------------------------------------------------------------------------
# configuration

def test_config_round_trip_and_defaults():
    cfg = ExperimentConfig.from_dict({"experiment": "se_vs_simulation",
                                      "program": "power_iteration", "n": 100})
    assert cfg.T == 2 and cfg.replicates == 50 and cfg.psi == "square"
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


@pytest.mark.parametrize("patch", [
    {"experiment": "nope"},
    {"program": "nope"},
    {"n": 0},
    {"m": 0},
    {"T": 0},
    {"replicates": 1},
    {"mc_samples": 1},
    {"psi": "cube"},
    {"coordinates": [-1]},
    {"law_a": "cauchy"},
    {"law_b": "cauchy"},
    {"program_params": {"bogus": 1}},
    {"program_params": {"eta": "x"}},
    {"program_params": {"eta": True}},
    {"program_params": {"lam": float("nan")}},
    {"program_params": {"subsample": "half"}},
    {"program": "pgd_linear", "program_params": {"prox": 3}},
    {"program_params": ["eta"]},
    {"m": None},
    {"program_params": {"subsample": 2.0}},
    {"experiment": "universality_entrywise", "coordinates": [40]},
    {"experiment": "universality_entrywise", "coordinates": list(range(11))},
    {"experiment": "gd_gaussianity", "program": "tanh_amp"},
    {"experiment": "decay", "program": "logistic"},
])
def test_config_validation_rejects(patch):
    data = dict(experiment="universality_averaged", program="gd_ridge",
                n=20, m=30)
    data.update(patch)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
def test_law_b_is_accepted_only_where_it_is_drawn(experiment):
    data = dict(experiment=experiment, program="gd_ridge", n=20, m=30,
                law_b="shifted_bernoulli", law_b_param=0.3)
    if experiment in ("universality_averaged", "universality_entrywise"):
        assert ExperimentConfig.from_dict(data).law_b == "shifted_bernoulli"
    else:
        with pytest.raises(ConfigError, match=f"law_b is read only by .*; "
                                              f"{experiment} ignores it"):
            ExperimentConfig.from_dict(data)
    del data["law_b"]
    with pytest.raises(ConfigError, match="law_b_param needs law_b"):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("key, value", [("replicates", 2), ("replicates", 50),
                                        ("psi", "square"), ("coordinates", [0])])
def test_validate_refuses_an_ignored_key_of_a_config_built_in_code(key, value):
    # not only a parsed config: the default value is refused too, since the
    # run would ignore it all the same
    cfg = ExperimentConfig(experiment="decay", program="pgd_linear", n=20,
                           m=30, **{key: value})
    with pytest.raises(ConfigError, match=f"{key} is read only by .*; "
                                          "decay ignores it"):
        cfg.validate()


def test_config_unknown_and_missing_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "decay", "program":
                                    "gd_ridge", "n": 10, "horizon": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "decay", "program":
                                    "gd_ridge"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])


def test_config_program_params_accepted():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "gd_gaussianity", "program": "gd_ridge", "n": 20,
         "m": 30, "program_params": {"eta": 0.1, "lam": 0.0,
                                     "subsample": 0.5}})
    assert cfg.program_params["subsample"] == 0.5


def test_asymmetric_programs_require_m():
    cfg = base_config(program="pgd_linear", m=None)
    with pytest.raises(ConfigError):
        build_plan(cfg)
    cfg2 = base_config(experiment="gd_gaussianity", program="gd_ridge", m=30,
                       program_params={"subsample": 2.0})
    with pytest.raises(ConfigError):
        build_plan(cfg2)


def test_a_config_that_validate_accepts_runs_at_any_size():
    # validate is the one refusal path, so no run refuses a config that it
    # accepted; tiny sizes reach the bounds (a logistic run at n = 1 used to
    # fail on a clamp of 0 that no config key sets)
    swept, refused, failed = 0, [], []
    for experiment, program, (n, m, T) in itertools.product(
            EXPERIMENT_NAMES, REGISTRY,
            [(1, 1, 1), (2, 1, 1), (1, 2, 2), (3, 5, 1)]):
        if program not in _EXPERIMENT_PROGRAMS.get(experiment, REGISTRY):
            continue
        cfg = ExperimentConfig(
            experiment=experiment, program=program, n=n, T=T, mc_samples=50,
            m=m if REGISTRY[program].fields else None,
            replicates=3 if "replicates" in _EXPERIMENT_KEYS[experiment] else None)
        swept += 1
        try:
            cfg.validate()
        except ConfigError:
            refused.append((experiment, program, n))
            continue
        try:
            run_named_experiment(cfg)
        except ConfigError as err:
            failed.append((experiment, program, (n, m, T), str(err)))
    assert swept == 108
    assert failed == []
    # logistic at n = 1 at both of its sizes, in each experiment that runs
    # any program, is the only refusal
    assert sorted(refused) == sorted(
        (e, "logistic", 1) for e in EXPERIMENT_NAMES
        if e not in _EXPERIMENT_PROGRAMS for _ in range(2))


def test_registry_listings():
    names = dict(list_programs())
    assert set(names) == {"power_iteration", "tanh_gfom", "tanh_amp",
                          "pgd_linear", "gd_ridge", "logistic"}
    assert all(desc for desc in names.values())
    assert list_experiments() == list(EXPERIMENT_NAMES)


def test_gd_plan_tracks_match_direct_descent():
    cfg = base_config(program="gd_ridge", m=30, n=20, T=3,
                      program_params={"eta": 0.1, "lam": 0.2})
    plan = build_plan(cfg)
    d = plan.data
    a = plan.sample(gaussian_law(), seed=5)
    mu_from_v = plan.prog.meta["mu_from_v"]
    mu_track = np.stack([mu_from_v(v) for v in plan.simulate(a)["v"]])
    mu_direct = gradient_descent(a, a @ d["mu0"] + d["xi"], d["loss"], d["eta"],
                                 d["lam"], d["masks"], cfg.T)
    assert np.max(np.abs(mu_track - mu_direct)) <= 1e-12


# ---------------------------------------------------------------------------
# report containers

def test_statistic_gap_identity_and_boundary():
    st = Statistic("x", 0.3, 0.1, se=0.01, tolerance=0.2)
    assert st.gap == 0.3 - 0.1
    assert st.passed
    st2 = Statistic("y", 1.0, 0.0, se=0.0, tolerance=1.0)
    assert st2.passed          # |gap| == tolerance counts as a pass
    st3 = Statistic("z", 1.0, 0.0, se=0.0, tolerance=0.5)
    assert not st3.passed


def test_report_lookup_and_pass_aggregation(tmp_path):
    rows = [Statistic("a", 1.0, 1.0, 0.1, 0.5),
            Statistic("b", 2.0, 0.0, 0.1, 0.5)]
    rep = comparison_report("demo", rows, runtime_seconds=1.23)
    assert rep.statistic("a") is rows[0]
    with pytest.raises(KeyError):
        rep.statistic("missing")
    assert not rep.passed
    csv_path = tmp_path / "rep.csv"
    rep.to_csv(csv_path)
    text = csv_path.read_text()
    assert text.splitlines()[0] == \
        "statistic,estimate_a,estimate_b,gap,se,tolerance,passed"
    assert "runtime" not in text
    fields = text.splitlines()[2].split(",")
    assert fields[0] == "b" and float(fields[3]) == rows[1].gap
    json_path = tmp_path / "rep.json"
    rep.save_json(json_path)
    data = json.loads(json_path.read_text())
    assert data["runtime_seconds"] == 1.23
    assert data["passed"] is False


def test_report_csv_is_runtime_independent(tmp_path):
    rows = [Statistic("a", 0.5, 0.25, 0.1, 0.5)]
    fast = comparison_report("demo", rows, runtime_seconds=0.1)
    slow = comparison_report("demo", rows, runtime_seconds=99.9)
    p1, p2 = tmp_path / "fast.csv", tmp_path / "slow.csv"
    fast.to_csv(p1)
    slow.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# averaged universality

def test_averaged_same_law_passes():
    report = universality_averaged(base_config(law_b="gaussian", seed=3))
    assert report.passed
    assert report.details["replicates_used"] == 8


def test_averaged_constant_test_function_gap_zero():
    cfg = base_config(psi=lambda x: np.full_like(x, 2.5), law_b="rademacher")
    report = universality_averaged(cfg)
    for st in report.statistics:
        assert st.gap == 0.0 and st.estimate_a == 2.5


def test_averaged_gaussian_vs_rademacher_tanh_amp():
    cfg = ExperimentConfig(experiment="universality_averaged",
                           program="tanh_amp", n=1000, T=3, replicates=50,
                           seed=0, psi="square", law_b="rademacher",
                           mc_samples=4000)
    report = universality_averaged(cfg)
    assert abs(report.statistic("psi_avg[t=3]").gap) <= 0.05
    assert report.passed


def test_averaged_asymmetric_same_law():
    cfg = ExperimentConfig(experiment="universality_averaged",
                           program="pgd_linear", n=30, m=45, T=2,
                           replicates=8, seed=1, law_b="gaussian",
                           program_params={"prox": "ridge", "prox_lam": 0.3})
    report = universality_averaged(cfg)
    assert report.passed
    assert len(report.statistics) == 2


def _flaky_plan_builder(threshold):
    def build(config):
        n, T = config.n, config.T

        def raise_fn(h, rows):
            col = h[..., -1]
            if float(np.ravel(col)[0]) > threshold:
                raise DivergenceError("test trigger", step=2, track="z")
            return np.zeros_like(col)

        prog = SymmetricProgram(
            T=T,
            mat_fns=[pick_iterate(t, t - 1) for t in range(1, T + 1)],
            add_fns=[zero_row_function(1)] + [
                RowFunction(arity=t, fn=raise_fn,
                            dfn=lambda h, rows, w: np.zeros(h.shape[:-1]),
                            row_constant=False)
                for t in range(2, T + 1)],
            z0=np.ones(n),
        )
        return _SymGfomPlan(prog, config.mc_samples, config.seed)
    return build


def test_divergent_replicates_counted_not_dropped_silently():
    with temp_program("flaky", _flaky_plan_builder(0.0)):
        cfg = base_config(program="flaky", n=24, replicates=12, seed=2)
        report = universality_averaged(cfg)
    skipped = report.divergent["a"] + report.divergent["b"]
    assert skipped >= 1
    assert report.details["replicates_used"] == 12 - skipped
    assert report.details["replicates_used"] >= 2


def test_replicates_hold_one_matrix_and_skip_law_b_after_law_a_diverges():
    cfg = base_config(law_b="rademacher", n=12, replicates=6)
    plan = build_plan(cfg)
    draw = plan.sample
    refs, drawn = [], []

    def sample(law, seed):
        assert all(ref() is None for ref in refs), "earlier matrix alive"
        a = draw(law, seed)
        refs.append(weakref.ref(a))
        drawn.append(law.kind)
        return a

    def stat(a):
        assert refs[-1]() is a
        assert all(ref() is None for ref in refs[:-1]), "earlier matrix alive"
        if drawn[-1] == "gaussian" and drawn.count("gaussian") in (2, 5):
            raise DivergenceError("law A of replicates 1 and 4")
        return [float(a[0, 0])]

    plan.sample = sample
    (vals_a, vals_b), divergent = _replicates(cfg, plan, _laws(cfg), stat,
                                              "one matrix")
    want = []
    for r in range(6):
        want += ["gaussian"] if r in (1, 4) else ["gaussian", "rademacher"]
    assert drawn == want
    assert divergent == {"a": 2, "b": 0}
    assert len(vals_a) == len(vals_b) == 4


def test_all_divergent_raises_numerical_error():
    with temp_program("always_bad", _flaky_plan_builder(-np.inf)):
        cfg = base_config(program="always_bad", n=10, replicates=4)
        with pytest.raises(NumericalError):
            universality_averaged(cfg)


# ---------------------------------------------------------------------------
# entrywise universality

def _zero_start_odd_plan(config):
    prog = SymmetricProgram(
        T=config.T,
        mat_fns=[tanh_map(t, t - 1) for t in range(1, config.T + 1)],
        add_fns=[zero_row_function(t) for t in range(1, config.T + 1)],
        z0=np.zeros(config.n),
    )
    return _SymGfomPlan(prog, config.mc_samples, config.seed)


def test_entrywise_odd_updates_zero_start_mean_zero():
    with temp_program("odd_zero", _zero_start_odd_plan):
        cfg = base_config(experiment="universality_entrywise",
                          program="odd_zero", law_b="rademacher",
                          coordinates=[1], psi=lambda x: x)
        report = universality_entrywise(cfg)
    st = report.statistic("entry[k=1,t=2]")
    assert st.estimate_a == 0.0 and st.estimate_b == 0.0
    assert report.passed


def test_entrywise_same_law_passes():
    cfg = base_config(experiment="universality_entrywise", law_b="gaussian",
                      coordinates=[0, 3], seed=4)
    report = universality_entrywise(cfg)
    assert report.passed
    assert [st.label for st in report.statistics] == \
        ["entry[k=0,t=2]", "entry[k=3,t=2]"]


def test_entrywise_third_moment_mismatch_small_gap():
    cfg = ExperimentConfig(experiment="universality_entrywise",
                           program="tanh_gfom", n=1000, T=2, replicates=400,
                           seed=1, law_b="shifted_bernoulli",
                           law_b_param=0.3, coordinates=[0, 1, 2, 3, 4],
                           mc_samples=2000)
    report = universality_entrywise(cfg)
    for st in report.statistics:
        assert abs(st.gap) <= 0.08


def test_entrywise_coordinate_limits():
    cfg = base_config(experiment="universality_entrywise",
                      coordinates=list(range(11)))
    with pytest.raises(ConfigError):
        universality_entrywise(cfg)
    cfg2 = base_config(experiment="universality_entrywise",
                       coordinates=[40])
    with pytest.raises(ConfigError):
        universality_entrywise(cfg2)


# ---------------------------------------------------------------------------
# limit law vs simulation

def _deterministic_plan(config):
    vals = np.linspace(-1.0, 1.0, config.n)
    prog = SymmetricProgram(
        T=config.T,
        mat_fns=[zero_row_function(t) for t in range(1, config.T + 1)],
        add_fns=[constant_rows(vals, t) for t in range(1, config.T + 1)],
        z0=np.zeros(config.n),
    )
    return _SymGfomPlan(prog, config.mc_samples, config.seed)


def test_se_vs_simulation_deterministic_program_exact():
    with temp_program("det", _deterministic_plan):
        cfg = base_config(experiment="se_vs_simulation", program="det",
                          n=16, replicates=3, mc_samples=50)
        report = se_vs_simulation(cfg)
    for st in report.statistics:
        assert st.gap == 0.0 and st.se == 0.0 and st.passed


def test_se_vs_simulation_power_iteration_first_moment():
    cfg = ExperimentConfig(experiment="se_vs_simulation",
                           program="power_iteration", n=2000, T=1,
                           replicates=50, seed=0, psi="square",
                           mc_samples=4000)
    report = se_vs_simulation(cfg)
    st = report.statistic("psi_avg[z,t=1]")
    # the limit variance is exactly the mean square of the start vector (1.0);
    # both sides are Monte Carlo estimates of it
    assert abs(st.estimate_a - 1.0) <= 4.0 * st.se
    assert abs(st.estimate_b - 1.0) <= 4.0 * st.se
    assert report.passed


@pytest.mark.parametrize("seed", [11, 24, 30])
def test_monte_carlo_noise_below_zero_is_clipped_not_fatal(seed):
    # a nearly singular law at 2000 paths: eigenvalues of -9.3e-5 .. -6.1e-5
    # under standard errors of about 5e-4 failed the old absolute PSD floor,
    # in the record build at seed 30 and in the read-out at seeds 11 and 24
    cfg = ExperimentConfig(experiment="se_vs_simulation", program="gd_ridge",
                           n=40, m=48, T=3, replicates=5, seed=seed,
                           mc_samples=2000)
    assert se_vs_simulation(cfg).passed


def test_se_vs_simulation_tanh_amp():
    cfg = ExperimentConfig(experiment="se_vs_simulation", program="tanh_amp",
                           n=2000, T=4, replicates=20, seed=0, psi="square",
                           mc_samples=20000)
    report = se_vs_simulation(cfg)
    for st in report.statistics:
        assert abs(st.gap) <= 0.03
    assert report.passed


def test_amp_plan_refuses_a_record_it_was_not_built_with():
    cfg = ExperimentConfig(experiment="se_vs_simulation", program="tanh_amp",
                           n=20, T=2, replicates=2, seed=3, mc_samples=200)
    plan = build_plan(cfg)
    # se_record takes no arguments: the plan serves the record its
    # replicates ran with, built from the config's mc_samples and seed
    assert plan.se_record() is plan.record


def test_se_vs_simulation_reads_every_cell_in_one_pass(monkeypatch):
    # one read-out call for all 2 T (side, step) cells, drawing each
    # prediction normal once: the longest cell's n_paths x m x T, where one
    # call per cell drew every cell's
    import gfomlab.harness as harness
    import gfomlab.state_evolution as se
    calls, drawn = [], [0]
    real = harness.predict_entrywise

    def counted(*args, **kwargs):
        calls.append(kwargs.get("cells"))
        with monkeypatch.context() as mp:
            mp.setattr(se, "Generator", counting_generator(drawn))
            return real(*args, **kwargs)

    monkeypatch.setattr(harness, "predict_entrywise", counted)
    m, n, T, mc = 40, 30, 3, 3000
    cfg = ExperimentConfig(experiment="se_vs_simulation", program="gd_ridge",
                           n=n, m=m, T=T, replicates=4, seed=5, mc_samples=mc)
    report = se_vs_simulation(cfg)
    assert calls == [[(s, t) for s in ("u", "v") for t in range(1, T + 1)]]
    assert drawn[0] == mc * m * T
    assert [st.label for st in report.statistics] == [
        f"psi_avg[{s},t={t}]" for s, t in calls[0]]


# ---------------------------------------------------------------------------
# gradient descent Gaussianity

def test_gd_gaussianity_zero_rate_degenerate():
    cfg = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                           n=30, m=45, T=2, replicates=10, seed=6,
                           coordinates=[0, 5],
                           program_params={"eta": 0.0})
    report = gd_gaussianity_test(cfg)
    labels = [st.label for st in report.statistics]
    assert labels == ["mean[l=0]", "mean[l=5]"]
    for st in report.statistics:
        assert st.se == 0.0 and st.gap == 0.0 and st.passed


def test_gd_gaussianity_first_step_moments():
    eta, phi = 0.2, 2.0
    cfg = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                           n=400, m=800, T=1, replicates=1000, seed=0,
                           coordinates=[0, 1, 2],
                           program_params={"eta": eta, "lam": 0.0})
    plan = build_plan(cfg)
    mu0, xi = plan.data["mu0"], plan.data["xi"]
    want_var = eta**2 * phi * (np.sum(xi**2) / len(xi)
                               + np.sum(mu0**2) / len(mu0))
    report = gd_gaussianity_test(cfg)
    assert report.passed
    for ell in (0, 1, 2):
        mean_row = report.statistic(f"mean[l={ell}]")
        assert mean_row.estimate_b == pytest.approx(
            (eta * phi - 1.0) * mu0[ell], rel=1e-12)
        var_row = report.statistic(f"variance[l={ell}]")
        assert var_row.estimate_b == pytest.approx(want_var, rel=1e-10)
        assert abs(var_row.gap) <= 0.15 * var_row.estimate_b
        assert report.statistic(f"ks[l={ell}]").estimate_a <= 0.06


def test_gd_gaussianity_holds_one_matrix_at_a_time():
    # the constant profile is one broadcast value and the limit law keeps
    # only its step-T parameters, so besides the sampled matrix a run holds
    # its m x n weights only while the law is computed, before any sampling;
    # a quarter matrix of slack covers the sampler's strip and the vectors
    m, n = 800, 400
    cfg = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                           n=n, m=m, T=3, replicates=20, seed=0,
                           coordinates=[0, 1, 2, 3, 4],
                           program_params={"eta": 0.2, "lam": 0.1})
    tracemalloc.start()
    try:
        report = gd_gaussianity_test(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.details["replicates_used"] == 20
    matrix = m * n * 8
    assert peak < 2 * matrix + matrix // 4, peak / matrix


def _ks_samples():
    rng = np.random.default_rng(71)
    yield rng.normal(size=1)
    yield rng.normal(size=2)
    yield rng.normal(size=1000)
    yield np.round(rng.normal(size=500), 1)          # tied values
    yield 1.7 * rng.normal(size=1000) + 0.4           # shifted and scaled
    yield 0.3 * rng.normal(size=999) - 2.0
    yield np.zeros(7)                                 # one value, all tied


def test_ks_statistic_is_scipys_bit_for_bit():
    from scipy import stats
    for x in _ks_samples():
        want = stats.kstest(x, "norm").statistic
        assert np.float64(_ks_statistic(x)).tobytes() == np.float64(want).tobytes()


def test_gd_gaussianity_requires_gd_program():
    cfg = base_config(experiment="gd_gaussianity", program="tanh_gfom")
    with pytest.raises(ConfigError):
        gd_gaussianity_test(cfg)
    cfg2 = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                            n=10, m=15, coordinates=[10])
    with pytest.raises(ConfigError):
        gd_gaussianity_test(cfg2)


# ---------------------------------------------------------------------------
# diagnostics

def test_decay_ridge_is_log_linear():
    cfg = ExperimentConfig(experiment="decay", program="pgd_linear", n=500,
                           m=250, T=40, seed=0,
                           program_params={"prox": "ridge", "prox_lam": 0.5})
    report = run_named_experiment(cfg)
    assert report.converged
    assert report.slope is not None and report.slope < 0
    assert report.r_squared >= 0.95
    assert report.passed


def _ridge_problem(seed, n=60, m=90, lam=0.4):
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)
    a = sample_asymmetric(spec, m, n, seed=seed)
    rng = np.random.default_rng(seed)
    return ErmProblem(a=a, prox=prox_ridge(lam), eta=0.2, loss=squared_loss(),
                      mu0=rng.normal(size=n), xi=0.3 * rng.normal(size=m))


def test_decay_warm_start_stays_at_fixed_point():
    problem = _ridge_problem(7)
    fp = solve_fixed_point(problem)
    assert fp.converged
    report = convergence_decay_report(problem, 10, mu_start=fp.mu)
    for t, l2, sup in report.rows:
        assert l2 <= 1e-8 and sup <= 1e-8


def test_decay_huge_lasso_all_zero():
    problem = _ridge_problem(8)
    y = problem.target()
    lam_max = float(np.max(np.abs(problem.a.T @ y)))
    big = ErmProblem(a=problem.a, prox=prox_lasso(1.1 * lam_max), eta=0.2,
                     loss=squared_loss(), mu0=problem.mu0, xi=problem.xi)
    report = convergence_decay_report(big, 6)
    assert report.converged
    for t, l2, sup in report.rows:
        assert l2 == 0.0 and sup == 0.0


def test_decay_csv_and_json(tmp_path):
    problem = _ridge_problem(9, n=30, m=40)
    report = convergence_decay_report(problem, 12)
    csv_path = tmp_path / "decay.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,l2_over_sqrt_n,sup_norm"
    assert len(lines) == 14
    data = report.to_json_dict()
    assert data["passed"] == report.passed
    assert len(data["rows"]) == 13


def test_delocalization_constant_vector_ratio_one():
    report = delocalization_report(np.ones((1, 50)) * 3.0)
    assert report.rows[0]["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert not report.rows[0]["flagged"]
    assert report.passed


def test_delocalization_one_hot_flagged_not_failed():
    n = 400
    z = np.zeros((1, n))
    z[0, 7] = 1.0
    report = delocalization_report(z)
    row = report.rows[0]
    assert row["ratio"] == pytest.approx(math.sqrt(n), rel=1e-12)
    assert row["flagged"]
    assert report.passed                      # diagnostics only
    assert max(r["ratio"] for r in report.rows) == row["ratio"]


def test_delocalization_loo_gap_column(tmp_path):
    base = np.arange(8.0).reshape(2, 4)
    loo = base.copy()
    loo[1, 2] += 0.25
    report = delocalization_report({"z": base}, loo={"z": loo})
    assert report.rows[0]["loo_gap"] == 0.0
    assert report.rows[1]["loo_gap"] == 0.25
    path = tmp_path / "deloc.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "track,t,sup_norm,rms_norm,ratio,bound,flagged,loo_gap"
    assert lines[2].endswith(",0.25")


def test_delocalization_tanh_amp_ratios_stay_small():
    worst = 0.0
    for seed in range(20):
        cfg = ExperimentConfig(experiment="delocalization", program="tanh_amp",
                               n=1000, T=5, seed=seed,
                               mc_samples=2000)
        report = run_named_experiment(cfg)
        worst = max(worst, *(r["ratio"] for r in report.rows))
    assert worst <= 20.0


# ---------------------------------------------------------------------------
# calibration invariants

def test_same_law_null_calibration():
    passes = 0
    trials = 40
    for seed in range(trials):
        cfg = base_config(law_b="gaussian", seed=seed)
        passes += universality_averaged(cfg).passed
    assert passes >= 38


def test_same_law_null_calibration_entrywise():
    passes = 0
    trials = 40
    for seed in range(trials):
        cfg = base_config(experiment="universality_entrywise",
                          law_b="gaussian", coordinates=[0, 1], seed=seed)
        passes += universality_entrywise(cfg).passed
    assert passes >= 38


def test_null_calibration_se_vs_simulation():
    passes = 0
    trials = 40
    for seed in range(trials):
        cfg = base_config(experiment="se_vs_simulation", n=100,
                          mc_samples=4000, seed=seed)
        passes += se_vs_simulation(cfg).passed
    assert passes >= 38


def _gd_gaussianity_config(replicates, seed):
    return ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                            n=100, m=200, T=2, replicates=replicates,
                            seed=seed, coordinates=[0],
                            program_params={"eta": 0.2, "lam": 0.1})


@pytest.mark.parametrize("replicates", [50, 200])
def test_null_calibration_gd_gaussianity_below_the_fixture_count(replicates):
    # the variance and KS gates scale with the replicates kept; fixed at the
    # values set for 1000 replicates, they passed 1 of 20 seeds at 50
    passes = sum(gd_gaussianity_test(_gd_gaussianity_config(replicates, seed))
                 .passed for seed in range(20))
    assert passes >= 19


def test_gd_gaussianity_gates_at_the_fixture_count_are_the_fixture_values():
    cfg = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                           n=20, m=30, T=2, replicates=1000, seed=0,
                           coordinates=[0, 1],
                           program_params={"eta": 0.2, "lam": 0.1})
    report = gd_gaussianity_test(cfg)
    assert report.details["replicates_used"] == 1000
    for ell in (0, 1):
        var_row = report.statistic(f"variance[l={ell}]")
        assert var_row.tolerance == 0.15 * var_row.estimate_b
        assert report.statistic(f"ks[l={ell}]").tolerance == 0.06


def test_gd_gaussianity_rejects_a_doubled_variance(monkeypatch):
    import gfomlab.harness as harness
    true_params = harness.gd_key_params

    def doubled(state, t):
        law = true_params(state, t)
        law.variance = 2.0 * law.variance
        return law

    monkeypatch.setattr(harness, "gd_key_params", doubled)
    for seed in range(5):
        report = gd_gaussianity_test(_gd_gaussianity_config(200, seed))
        assert not report.statistic("variance[l=0]").passed, seed


def test_null_calibration_gd_gaussianity():
    passes = 0
    trials = 12
    for seed in range(trials):
        cfg = _gd_gaussianity_config(1000, seed)
        passes += gd_gaussianity_test(cfg).passed
    assert passes >= 11


def test_reports_are_deterministic(tmp_path):
    cfg = base_config(law_b="rademacher", seed=11)
    rep1 = run_named_experiment(cfg)
    rep2 = run_named_experiment(base_config(law_b="rademacher", seed=11))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    rep1.to_csv(p1)
    rep2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    d1, d2 = rep1.to_json_dict(), rep2.to_json_dict()
    d1.pop("runtime_seconds")
    d2.pop("runtime_seconds")
    assert d1 == d2


def test_doubling_replicates_shrinks_combined_se():
    ratios = []
    for seed in range(10):
        small = universality_averaged(
            base_config(n=30, replicates=16, law_b="gaussian", seed=seed))
        big = universality_averaged(
            base_config(n=30, replicates=32, law_b="gaussian", seed=seed))
        ratios.append(small.statistic("psi_avg[t=2]").se
                      / big.statistic("psi_avg[t=2]").se)
    assert 1.3 <= np.mean(ratios) <= 1.5
