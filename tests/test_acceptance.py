"""Acceptance gate: ten checks, one test each, at their stated tolerances
and runtime budgets.  Run with -v for one pass/fail line per criterion."""

import time

import numpy as np
import pytest

from conftest import mixed_asymmetric_program, mixed_symmetric_program
from gfomlab.dynamics import (
    run_amp_asymmetric,
    run_amp_symmetric,
    run_asymmetric,
    run_symmetric,
)
from gfomlab.ensembles import (
    EnsembleSpec,
    constant_profile,
    gaussian_law,
    sample_asymmetric,
    sample_symmetric,
)
from gfomlab.erm import (
    ErmProblem,
    Loss,
    logistic_objective_check,
    prox_lasso,
    prox_ridge,
    prox_smooth,
    solve_fixed_point,
    squared_loss,
)
from gfomlab.cli import run_experiment
from gfomlab.gd_se import g_coefficient_nested_sum, gd_key_params, gd_se
from gfomlab.harness import (
    ExperimentConfig,
    convergence_decay_report,
    gd_gaussianity_test,
    se_vs_simulation,
    universality_averaged,
)
from gfomlab.programs import embed_matrix, extract_embedded_tracks, symmetrize
from gfomlab.state_evolution import gfom_to_amp, se_asymmetric, se_symmetric


def _sym_spec(n):
    return EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        symmetric=True)


def _asym_spec(m, n):
    return EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)


def test_criterion_01_plain_vs_corrected_iteration_correspondence():
    tic = time.perf_counter()
    n, T = 50, 4
    worst = 0.0
    for seed in range(5):
        prog = mixed_symmetric_program(n, T, seed=seed)
        rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=400,
                           seed=100 + seed)
        amp = gfom_to_amp(prog, rec)
        a = sample_symmetric(_sym_spec(n), n, seed=200 + seed)
        plain = run_symmetric(a, prog)
        corrected = run_amp_symmetric(a, *amp["z"], prog.z0)
        out = rec.side("z").transform.apply(corrected.z.T)
        for t in range(1, T + 1):
            worst = max(worst, float(np.max(np.abs(out[:, t] - plain.z[t]))))

        aprog = mixed_asymmetric_program(n, n, T, seed=seed)
        arec = se_asymmetric(aprog, constant_profile((n, n)), mc_samples=400,
                             seed=300 + seed)
        aamp = gfom_to_amp(aprog, arec)
        aa = sample_asymmetric(_asym_spec(n, n), n, n, seed=400 + seed)
        aplain = run_asymmetric(aa, aprog)
        acorr = run_amp_asymmetric(aa, aamp["u"][0], aamp["v"][0], aamp["u"][1],
                                   aamp["v"][1], aprog.u0, aprog.v0)
        u_out = arec.side("u").transform.apply(acorr.u.T)
        v_out = arec.side("v").transform.apply(acorr.v.T)
        for t in range(1, T + 1):
            worst = max(worst,
                        float(np.max(np.abs(u_out[:, t] - aplain.u[t]))),
                        float(np.max(np.abs(v_out[:, t] - aplain.v[t]))))
    elapsed = time.perf_counter() - tic
    print(f"criterion 1: max track gap {worst:.3e} (<=1e-8), {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_02_two_sided_to_symmetric_embedding():
    tic = time.perf_counter()
    m = n = 40
    T = 4
    worst = 0.0
    for seed in range(5):
        prog = mixed_asymmetric_program(m, n, T, seed=10 + seed)
        a = sample_asymmetric(_asym_spec(m, n), m, n, seed=20 + seed)
        direct = run_asymmetric(a, prog)
        embedded = run_symmetric(embed_matrix(a), symmetrize(prog, m, n))
        u, v = extract_embedded_tracks(embedded.z, m, n, T)
        worst = max(worst, float(np.max(np.abs(u - direct.u))),
                    float(np.max(np.abs(v - direct.v))))
    elapsed = time.perf_counter() - tic
    print(f"criterion 2: max track gap {worst:.3e} (<=1e-12), {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_03_gradient_descent_first_step_closed_form():
    tic = time.perf_counter()
    n, m, eta = 128, 192, 0.3
    phi = m / n
    rng = np.random.default_rng(30)
    mu0 = rng.normal(size=n)
    xi = 0.7 * rng.normal(size=m)
    runs = [gd_se(squared_loss(), eta, 0.0, mu0, xi, None,
                  constant_profile((m, n)), 1, mc_samples=mc, seed=seed)
            for mc, seed in ((100, 0), (50000, 99))]
    laws = [gd_key_params(st, 1) for st in runs]
    # constant-curvature loss: nothing may depend on the MC configuration
    assert np.array_equal(laws[0].bias, laws[1].bias)
    assert np.array_equal(laws[0].variance, laws[1].variance)
    assert np.all(laws[0].bias == eta * phi - 1.0)
    want_var = eta**2 * phi * (np.sum(xi**2) / m + np.sum(mu0**2) / n)
    var_gap = float(np.max(np.abs(laws[0].variance - want_var)))
    elapsed = time.perf_counter() - tic
    print(f"criterion 3: bias exact, variance gap {var_gap:.3e} (<=1e-10), "
          f"{elapsed:.1f}s")
    assert var_gap <= 1e-10
    assert elapsed < 5.0


def test_criterion_04_coupling_coefficient_duality():
    tic = time.perf_counter()
    loss = Loss(value=lambda x: 0.5 * np.square(x) + 0.1 * np.cos(x),
                d1=lambda x: np.asarray(x, float) - 0.1 * np.sin(x),
                d2=lambda x: 1.0 - 0.1 * np.cos(np.asarray(x, float)),
                quadratic=False)
    rng = np.random.default_rng(40)
    n, m, T = 25, 40, 4
    st = gd_se(loss, 0.35, 0.15, rng.normal(size=n), 0.5 * rng.normal(size=m),
               None, constant_profile((m, n)), T, mc_samples=1000, seed=4)
    worst = 0.0
    for t in range(1, T + 1):
        for s in range(1, t + 1):
            gap = float(np.max(np.abs(g_coefficient_nested_sum(st, s, t)
                                      - st.g_tables[t - 1][s - 1])))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - tic
    print(f"criterion 4: max route gap {worst:.3e} (<=1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_05_entrywise_gaussianity_at_desk_scale():
    tic = time.perf_counter()
    coords = [0, 1, 2, 3, 4]
    cfg = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                           n=400, m=800, T=3, replicates=1000, seed=0,
                           coordinates=coords,
                           program_params={"eta": 0.2, "lam": 0.1})
    report = gd_gaussianity_test(cfg)
    worst_ks = max(report.statistic(f"ks[l={k}]").estimate_a for k in coords)
    worst_mean_sigmas = max(
        abs(report.statistic(f"mean[l={k}]").gap)
        / report.statistic(f"mean[l={k}]").se for k in coords)
    elapsed = time.perf_counter() - tic
    print(f"criterion 5: max KS {worst_ks:.4f} (<=0.06), worst mean gap "
          f"{worst_mean_sigmas:.2f} SE (<=4), {elapsed:.1f}s")
    assert worst_ks <= 0.06
    assert worst_mean_sigmas <= 4.0
    assert elapsed < 300.0


def test_criterion_06_averaged_universality_gaussian_vs_rademacher():
    tic = time.perf_counter()
    cfg = ExperimentConfig(experiment="universality_averaged",
                           program="tanh_amp", n=1000, T=3, replicates=50,
                           seed=0, psi="square", law_b="rademacher",
                           mc_samples=20000)
    report = universality_averaged(cfg)
    st = report.statistic("psi_avg[t=3]")
    elapsed = time.perf_counter() - tic
    print(f"criterion 6: gap {st.gap:+.4f} (|.|<=0.05), "
          f"{abs(st.gap) / st.se:.2f} SE (<=4), {elapsed:.1f}s")
    assert abs(st.gap) <= 0.05
    assert abs(st.gap) <= 4.0 * st.se
    assert elapsed < 180.0


def test_criterion_07_limit_law_vs_simulation():
    tic = time.perf_counter()
    power_cfg = ExperimentConfig(experiment="se_vs_simulation",
                                 program="power_iteration", n=2000, T=1,
                                 replicates=50, seed=0, psi="square",
                                 mc_samples=20000)
    power = se_vs_simulation(power_cfg).statistic("psi_avg[z,t=1]")
    # all-ones start vector: limit second moment is exactly 1
    power_sigmas = abs(power.estimate_a - 1.0) / power.se

    amp_cfg = ExperimentConfig(experiment="se_vs_simulation",
                               program="tanh_amp", n=2000, T=4,
                               replicates=30, seed=0, psi="square",
                               mc_samples=20000)
    amp_report = se_vs_simulation(amp_cfg)
    amp_gap = max(abs(st.gap) for st in amp_report.statistics)
    elapsed = time.perf_counter() - tic
    print(f"criterion 7: power {power_sigmas:.2f} SE (<=4), corrected-tanh "
          f"gap {amp_gap:.4f} (<=0.03), {elapsed:.1f}s")
    assert power_sigmas <= 4.0
    assert amp_gap <= 0.03
    assert elapsed < 240.0


def test_criterion_08_erm_machinery():
    tic = time.perf_counter()
    # ridge: iterative fixed point against the direct linear solve
    n, m, lam = 50, 75, 0.4
    a = sample_asymmetric(_asym_spec(m, n), m, n, seed=80)
    rng = np.random.default_rng(80)
    problem = ErmProblem(a=a, prox=prox_ridge(lam), eta=0.2,
                         loss=squared_loss(), mu0=rng.normal(size=n),
                         xi=0.3 * rng.normal(size=m))
    fp = solve_fixed_point(problem)
    direct = np.linalg.solve(a.T @ a + lam * np.eye(n),
                             a.T @ problem.target())
    ridge_gap = float(np.max(np.abs(fp.mu - direct)))
    assert fp.converged and ridge_gap <= 1e-8

    # logistic: the two objective routes give identical gradients
    nn = 100
    al = sample_asymmetric(_asym_spec(nn, nn), nn, nn, seed=81)
    rng = np.random.default_rng(81)
    g1, g2 = logistic_objective_check(al, rng.normal(size=nn),
                                      0.4 * rng.normal(size=nn),
                                      lambda w: 0.3 * w, rng.normal(size=nn))
    logistic_gap = float(np.max(np.abs(g1 - g2)))
    assert logistic_gap <= 1e-12

    # proximal maps: non-expansiveness and strong-convexity contraction
    probes = 10_000
    rng = np.random.default_rng(82)
    x = 6.0 * rng.standard_normal(probes)
    y = 6.0 * rng.standard_normal(probes)
    eta = 0.7
    quartic = prox_smooth(lambda w: 0.25 * w**2 + w**4 / 4.0,
                          lambda w: 0.5 * w + w**3, alpha=0.5,
                          fpp=lambda w: 0.5 + 3.0 * w**2)
    for spec in (prox_ridge(0.7), prox_lasso(0.9), quartic):
        dx = np.abs(spec.apply(eta, x) - spec.apply(eta, y))
        assert np.all(dx <= np.abs(x - y) + 1e-9)
        alpha = spec.strong_convexity()
        if alpha > 0:
            assert np.all(dx <= np.abs(x - y) / (1.0 + eta * alpha) + 1e-9)
    elapsed = time.perf_counter() - tic
    print(f"criterion 8: ridge gap {ridge_gap:.2e} (<=1e-8), logistic gap "
          f"{logistic_gap:.2e} (<=1e-12), prox probes ok, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_09_strongly_convex_decay():
    tic = time.perf_counter()
    n, m = 500, 250
    a = sample_asymmetric(_asym_spec(m, n), m, n, seed=90)
    rng = np.random.default_rng(90)
    problem = ErmProblem(a=a, prox=prox_ridge(0.5), eta=0.2,
                         loss=squared_loss(), mu0=rng.normal(size=n),
                         xi=0.3 * rng.normal(size=m))
    report = convergence_decay_report(problem, 40)
    elapsed = time.perf_counter() - tic
    print(f"criterion 9: slope {report.slope:.3f} (<0), R^2 "
          f"{report.r_squared:.4f} (>=0.95), {elapsed:.1f}s")
    assert report.converged
    assert report.slope is not None and report.slope < 0
    assert report.r_squared >= 0.95
    assert elapsed < 30.0


def test_criterion_10_reruns_byte_identical(tmp_path):
    cfg_dict = dict(experiment="universality_averaged", program="tanh_amp",
                    n=1000, T=3, replicates=50, seed=0, psi="square",
                    law_b="rademacher", mc_samples=20000)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_experiment(ExperimentConfig(**cfg_dict), out)
        outs.append(out)
    for artifact in ("universality_averaged.csv",
                     "universality_averaged_plot.csv"):
        b1 = (outs[0] / artifact).read_bytes()
        b2 = (outs[1] / artifact).read_bytes()
        assert b1 == b2, artifact
    print("criterion 10: rerun CSV artifacts byte-identical")
