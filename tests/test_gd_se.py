"""Limit-law recursion for subsampled ridge-penalized gradient descent."""

import json

import numpy as np
import pytest

from conftest import two_block_profile, wavy_loss
from gfomlab.ensembles import (
    EnsembleSpec,
    VarianceProfile,
    constant_profile,
    gaussian_law,
    profile_weights,
    sample_asymmetric,
)
from gfomlab.erm import gradient_descent, prox_zero, squared_loss
from gfomlab.errors import ConfigError, NumericalError
from gfomlab.gd_se import g_coefficient_nested_sum, gd_key_params, gd_se
from gfomlab.programs import build_gd_ridge, build_pgd_linear
from gfomlab.state_evolution import predict_entrywise, se_asymmetric


def small_state(T=3, n=6, m=9, eta=0.3, lam=0.2, seed=0, loss=None, mc=300,
               masks=None, profile=None):
    rng = np.random.default_rng(seed)
    mu0 = rng.normal(size=n)
    xi = 0.5 * rng.normal(size=m)
    profile = constant_profile((m, n)) if profile is None else profile
    return gd_se(loss or squared_loss(), eta, lam, mu0, xi, masks, profile, T,
                 mc_samples=mc, seed=seed)


# ---------------------------------------------------------------------------
# closed forms at the first step

def test_first_step_bias_is_exact():
    n, m, eta = 8, 20, 0.27
    phi = m / n
    st = small_state(T=1, n=n, m=m, eta=eta, lam=0.0, seed=1)
    law = gd_key_params(st, 1)
    assert np.all(law.bias == eta * phi - 1.0)


def test_first_step_variance_closed_form():
    n, m, eta = 8, 20, 0.27
    phi = m / n
    rng = np.random.default_rng(2)
    mu0 = rng.normal(size=n)
    xi = rng.normal(size=m)
    st = gd_se(squared_loss(), eta, 0.0, mu0, xi, None,
               constant_profile((m, n)), 1, mc_samples=100, seed=2)
    want = eta**2 * phi * (np.sum(xi**2) / m + np.sum(mu0**2) / n)
    law = gd_key_params(st, 1)
    assert np.max(np.abs(law.variance - want)) <= 1e-10
    assert np.all(st.v_cov_se == 0.0)
    assert np.allclose(st.g_tables[0][0], -eta * phi, atol=1e-14)


def test_first_step_mean_matches_simulated_descent():
    n, m, eta, T = 50, 100, 0.2, 1
    phi = m / n
    rng = np.random.default_rng(3)
    mu0 = rng.normal(size=n)
    xi = 0.3 * rng.normal(size=m)
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)
    reps = []
    for seed in range(60):
        a = sample_asymmetric(spec, m, n, seed=seed)
        mus = gradient_descent(a, a @ mu0 + xi, squared_loss(), eta, 0.0,
                               None, T)
        reps.append(mus[1] - mu0)
    reps = np.stack(reps)
    mean = reps.mean(axis=0)
    se = reps.std(axis=0, ddof=1) / np.sqrt(len(reps))
    assert np.all(np.abs(mean - (eta * phi - 1.0) * mu0) <= 4.0 * se)


def test_zero_step_and_zero_rate_are_degenerate():
    st = small_state(T=2, eta=0.0, lam=0.4, seed=4)
    for t in range(3):
        law = gd_key_params(st, t)
        assert np.all(law.bias == -1.0)
        assert np.all(law.variance == 0.0)
    st2 = small_state(T=2, eta=0.3, lam=0.0, seed=5)
    law0 = gd_key_params(st2, 0)
    assert np.all(law0.bias == -1.0) and np.all(law0.variance == 0.0)
    with pytest.raises(ConfigError):
        gd_key_params(st2, 3)


def test_all_masked_out_steps_freeze_the_estimate():
    n, m, T = 5, 7, 3
    st = small_state(T=T, n=n, m=m, eta=0.5, lam=0.0, seed=6,
                     masks=np.zeros((T, m)))
    for t in range(T + 1):
        law = gd_key_params(st, t)
        assert np.all(law.bias == -1.0)
        assert np.all(law.variance == 0.0)


# ---------------------------------------------------------------------------
# state structure

@pytest.mark.parametrize("loss_name", ["quadratic", "wavy"])
def test_decomposition_matrix_structure(loss_name):
    loss = squared_loss() if loss_name == "quadratic" else wavy_loss()
    st = small_state(T=3, loss=loss, seed=7, mc=200)
    T = st.T
    for c in range(st.m_matrix.shape[0]):
        mm = st.m_matrix[c]
        assert np.all(np.diag(mm) == 1.0)
        assert np.all(mm[np.tril_indices(T + 1, k=-1)] == 0.0)
        vc = st.v_cov[c]
        assert np.all(vc[1:, 0] == 0.0) and np.all(vc[0, 1:] == 0.0)
    assert np.allclose(st.v_cov[:, 0, 0], st.mu0**2, atol=0)


@pytest.mark.parametrize("loss_name", ["quadratic", "wavy"])
def test_prediction_covariance_is_quadratic_form_in_decomposition(loss_name):
    # independently rebuild the prediction-side table from M and the
    # innovation covariance with explicit loops
    loss = squared_loss() if loss_name == "quadratic" else wavy_loss()
    m, n = 8, 5
    prof = VarianceProfile(np.add.outer(np.arange(1.0, m + 1), np.zeros(n)) / m)
    st = small_state(T=3, n=n, m=m, loss=loss, seed=8, mc=200, profile=prof)
    wts = profile_weights(prof, m, n)
    for t in range(1, st.T + 1):
        for s in range(1, t + 1):
            want = np.zeros(m)
            for ell in range(n):
                q = st.m_matrix[ell, :t, t - 1] @ st.v_cov[ell, :t, :t] \
                    @ st.m_matrix[ell, :t, s - 1]
                want += wts[:, ell] * q
            # same algebra, different summation order: ulp-level agreement
            assert np.allclose(st.u_cov[:, t - 1, s - 1], want,
                               rtol=1e-12, atol=1e-14)
            assert np.array_equal(st.u_cov[:, s - 1, t - 1],
                                  st.u_cov[:, t - 1, s - 1])


def test_input_validation():
    n, m = 4, 6
    mu0, xi = np.ones(n), np.ones(m)
    prof = constant_profile((m, n))
    with pytest.raises(ConfigError):
        gd_se(squared_loss(), -0.1, 0.0, mu0, xi, None, prof, 2)
    with pytest.raises(ConfigError):
        gd_se(squared_loss(), 0.1, -1.0, mu0, xi, None, prof, 2)
    with pytest.raises(ConfigError):
        gd_se(squared_loss(), 0.1, 0.0, mu0, xi, None, prof, 0)
    with pytest.raises(ConfigError):
        gd_se(squared_loss(), 0.1, 0.0, mu0, xi, np.ones((3, m)), prof, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("entry,rate", [
    ("build_pgd_linear", "eta"), ("build_gd_ridge", "eta"),
    ("build_gd_ridge", "lam"), ("gd_se", "eta"), ("gd_se", "lam"),
    ("build_gd_ridge", "masks"), ("gd_se", "masks"),
])
def test_non_finite_rates_are_config_errors(entry, rate, bad):
    # the gradient-descent program and its limit law share one input check,
    # so they reject an input with one message; bad masks have three rows
    # at horizon 2, whatever they hold
    n, m = 4, 6
    mu0, xi = np.ones(n), np.ones(m)
    r = {"eta": 0.1, "lam": 0.1, "masks": None}
    r[rate] = np.full((3, m), bad) if rate == "masks" else bad
    calls = {
        "build_pgd_linear": lambda: build_pgd_linear(
            squared_loss(), prox_zero(), r["eta"], mu0, xi, 2),
        "build_gd_ridge": lambda: build_gd_ridge(
            squared_loss(), r["eta"], r["lam"], mu0, xi, r["masks"], 2),
        "gd_se": lambda: gd_se(squared_loss(), r["eta"], r["lam"], mu0, xi,
                               r["masks"], constant_profile((m, n)), 2),
    }
    with pytest.raises(ConfigError, match=rate) as err:
        calls[entry]()
    if entry != "build_pgd_linear":
        twin = {"gd_se": "build_gd_ridge", "build_gd_ridge": "gd_se"}[entry]
        with pytest.raises(ConfigError) as twin_err:
            calls[twin]()
        assert str(twin_err.value) == str(err.value)


@pytest.mark.parametrize("mc", [0, 1, True, 2.5, "100"])
@pytest.mark.parametrize("entry", ["gd_se"])   # names the route in the test id
def test_sample_count_must_be_an_integer_of_at_least_two(entry, mc):
    # the Monte Carlo route (wavy loss) used to return NaN tables at 0 and
    # standard errors of 0 at 1
    n, m = 4, 6
    with pytest.raises(ConfigError, match="mc_samples"):
        gd_se(wavy_loss(), 0.3, 0.1, np.ones(n), np.ones(m), None,
              constant_profile((m, n)), 2, mc_samples=mc)


@pytest.mark.parametrize("T", [2.5, True, "2"])
@pytest.mark.parametrize("entry", ["gd_se"])   # names the route in the test id
def test_horizon_must_be_an_integer(entry, T):
    n, m = 4, 6
    with pytest.raises(ConfigError, match="horizon"):
        gd_se(squared_loss(), 0.3, 0.1, np.ones(n), np.ones(m), None,
              constant_profile((m, n)), T)


@pytest.mark.parametrize("bad", [-5.0, np.nan])
def test_raw_profile_entries_must_be_finite_and_nonnegative(bad):
    n, m = 4, 6
    mu0, xi = np.ones(n), np.ones(m)
    prof = np.ones((m, n))
    prof[2, 1] = bad
    with pytest.raises(ConfigError):
        gd_se(squared_loss(), 0.3, 0.1, mu0, xi, None, prof, 2)
    prog = build_gd_ridge(squared_loss(), 0.3, 0.1, mu0, xi, None, 2)
    with pytest.raises(ConfigError):
        se_asymmetric(prog, prof, mc_samples=100)


# ---------------------------------------------------------------------------
# coupling coefficients, two routes

def test_same_step_coefficient_is_curvature_average():
    st = small_state(T=3, seed=9)
    phi = st.xi.shape[0] / st.mu0.shape[0]
    for t in range(1, 4):
        got = g_coefficient_nested_sum(st, t, t)
        # constant curvature, full sample: average curvature is exactly 1
        assert np.allclose(got, -st.eta * phi, atol=1e-13)
        assert np.array_equal(got, np.asarray(st.g_tables[t - 1][t - 1]))


def test_two_step_gap_expansion_by_hand():
    st = small_state(T=4, seed=10, eta=0.4, lam=0.1)
    phi = st.xi.shape[0] / st.mu0.shape[0]
    eta = st.eta
    s, t = 2, 4
    f = st.f_tables
    # chains s<t and s<s+1<t, unit curvature throughout
    braces = (-eta) * f[t - 1][s - 1] \
        + eta**2 * f[s][s - 1] * f[t - 1][s]
    want = -eta * phi * np.mean(braces)
    got = g_coefficient_nested_sum(st, s, t)
    assert np.allclose(got, want, atol=1e-12)
    assert np.max(np.abs(got - st.g_tables[t - 1][s - 1])) <= 1e-10


@pytest.mark.parametrize("loss_name", ["quadratic", "wavy"])
def test_nested_sum_agrees_with_recursion_route(loss_name):
    loss = squared_loss() if loss_name == "quadratic" else wavy_loss()
    st = small_state(T=4, loss=loss, seed=11, mc=400)
    for t in range(1, 5):
        for s in range(1, t + 1):
            gap = np.max(np.abs(g_coefficient_nested_sum(st, s, t)
                                - st.g_tables[t - 1][s - 1]))
            assert gap <= 1e-10, (s, t, gap)


def test_monte_carlo_standard_errors_are_stable_and_calibrated():
    # 20 seeds of one wavy-loss state: each reported SE must be stable
    # across seeds (an SE from the spread of 10 block means is not: it gave
    # max/min ratios of 2.8 and 3.1 here, against 1.01 and 1.03 from every
    # sample) and must match the spread of the estimates it describes
    rng = np.random.default_rng(18)
    mu0, xi = rng.normal(size=6), 0.5 * rng.normal(size=9)
    runs = [gd_se(wavy_loss(), 0.3, 0.2, mu0, xi, None, constant_profile((9, 6)),
                  2, mc_samples=4000, seed=seed) for seed in range(20)]
    tables = {"g": ([st.g_tables[1][0] for st in runs],
                    [st.g_tables_se[1][0] for st in runs]),
              "v": ([st.v_cov[:, 2, 2] for st in runs],
                    [st.v_cov_se[:, 2, 2] for st in runs])}
    for name, (est, ses) in tables.items():
        est, ses = np.array(est), np.array(ses)
        assert np.all(ses > 0), name
        spread = ses.max(axis=0) / ses.min(axis=0)
        assert np.all(spread <= 1.25), (name, spread.max())
        calib = est.std(axis=0, ddof=1) / np.median(ses, axis=0)
        assert np.all((calib >= 0.6) & (calib <= 1.6)), (name, calib)


@pytest.mark.parametrize("kind", ["constant", "two_block"])
def test_horizon_restriction_is_exact_with_same_seed(kind):
    # one stream per path column: a run at T = 2 repeats the first two steps
    # of a run at T = 4 bit for bit (5000 paths: two blocks)
    m, n = 9, 6
    masks = (np.random.default_rng(19).random((4, m)) < 0.7) * 1.0
    prof = (constant_profile((m, n)) if kind == "constant"
            else two_block_profile(m, n))
    long, short = (small_state(T=T, n=n, m=m, seed=20, loss=wavy_loss(),
                               mc=5000, masks=masks[:T], profile=prof)
                   for T in (4, 2))
    for name in ("g_tables", "g_tables_se"):
        assert len(getattr(short, name)) == 2
        for a, b in zip(getattr(short, name), getattr(long, name)):
            assert np.array_equal(a, b), name
    assert np.array_equal(short.u_cov, long.u_cov[:, :2, :2])
    for name in ("v_cov", "v_cov_se", "m_matrix"):
        lead = getattr(long, name)[:, :3, :3]
        assert np.array_equal(getattr(short, name), lead), name


def test_nested_sum_guards():
    st = small_state(T=10, seed=12)
    with pytest.raises(ConfigError):
        g_coefficient_nested_sum(st, 1, 10)
    with pytest.raises(ConfigError):
        g_coefficient_nested_sum(st, 3, 2)
    with pytest.raises(ConfigError):
        g_coefficient_nested_sum(st, 0, 1)


# ---------------------------------------------------------------------------
# long-horizon behavior

def test_overparameterized_regime_barely_moves():
    n, m, eta, T = 200, 10, 0.1, 5
    phi = m / n
    rng = np.random.default_rng(13)
    st = gd_se(squared_loss(), eta, 0.0, rng.normal(size=n),
               0.2 * rng.normal(size=m), None, constant_profile((m, n)), T,
               seed=13)
    law = gd_key_params(st, T)
    assert np.all(np.abs(law.bias + 1.0) <= 0.05)
    assert np.all(np.abs(law.bias + 1.0) >= T * eta * phi / 2)


# ---------------------------------------------------------------------------
# cross-route check against the general two-sided engine

def test_gd_se_matches_two_sided_engine_on_gd_program():
    # gd_se is exact for the quadratic loss; se_asymmetric runs the general
    # Monte Carlo recursion on the same iteration written as a program, whose
    # v track is mu^(t) - mu0.  Compare E[(mu^(t) - mu0)_l^2].
    n, m, T, eta, lam = 60, 90, 3, 0.3, 0.2
    rng = np.random.default_rng(0)
    mu0 = rng.normal(size=n)
    xi = 0.5 * rng.normal(size=m)
    prof = constant_profile((m, n))
    st = gd_se(squared_loss(), eta, lam, mu0, xi, None, prof, T)
    prog = build_gd_ridge(squared_loss(), eta, lam, mu0, xi, None, T)
    rec = se_asymmetric(prog, prof, mc_samples=20000, seed=0)
    coords = np.arange(5)
    for t in range(1, T + 1):
        law = gd_key_params(st, t)
        want = (law.bias[coords] * mu0[coords])**2 + law.variance[coords]
        [(means, ses)] = predict_entrywise(rec, coords, np.square, [("v", t)],
                                           n_paths=20000, seed=0)
        assert np.all(ses > 0)
        assert np.all(np.abs(means - want) <= 4.0 * ses), t


def test_gd_se_monte_carlo_route_reaches_long_horizons():
    # at T = 8 the prediction-side covariance is nearly singular, and under
    # the plain PSD floor seeds 1 and 2 raised at step 7 (eigenvalues
    # -4.8e-5 and -1.8e-4); u_cov_se lowers the floor to -4 ||SE||_F
    n, m, T, eta, lam = 100, 200, 8, 0.3, 0.1
    rng = np.random.default_rng(0)
    mu0, xi = rng.normal(size=n), rng.normal(size=m)
    prof = constant_profile((m, n))
    rec = se_asymmetric(build_gd_ridge(wavy_loss(), eta, lam, mu0, xi, None, T),
                        prof, mc_samples=2000, seed=0)
    coords = np.arange(5)
    preds = predict_entrywise(rec, coords, np.square,
                              [("v", t) for t in range(1, T + 1)],
                              n_paths=20000, seed=0)
    for seed in (1, 2, 3):
        st = gd_se(wavy_loss(), eta, lam, mu0, xi, None, prof, T,
                   mc_samples=2000, seed=seed)
        assert np.all(st.u_cov_se[:, 1:, 1:] > 0)
        for t, (means, ses) in enumerate(preds, start=1):
            law = gd_key_params(st, t)
            want = (law.bias[coords] * mu0[coords])**2 + law.variance[coords]
            assert np.all(np.abs(means - want) <= 4.0 * ses), (seed, t)


# ---------------------------------------------------------------------------
# per-coordinate normal laws: (estimate - signal)_l at step t is normal with
# mean bias[l] * mu0[l] and variance variance[l]

def test_entrywise_law_first_step():
    n, m, eta = 6, 15, 0.21
    phi = m / n
    rng = np.random.default_rng(18)
    mu0 = rng.normal(size=n)
    xi = rng.normal(size=m)
    st = gd_se(squared_loss(), eta, 0.0, mu0, xi, None,
               constant_profile((m, n)), 1, seed=18)
    want_var = eta**2 * phi * (np.sum(xi**2) / m + np.sum(mu0**2) / n)
    law = gd_key_params(st, 1)
    for ell in range(n):
        assert law.bias[ell] * mu0[ell] == pytest.approx(
            (eta * phi - 1.0) * mu0[ell], rel=1e-12)
        assert law.variance[ell] == pytest.approx(want_var, rel=1e-10)
        assert np.sqrt(law.variance[ell]) == pytest.approx(np.sqrt(want_var),
                                                           rel=1e-10)
        assert st.m_matrix[ell, 1, 1] == 1.0


def test_entrywise_law_degenerate_and_zero_signal():
    st = small_state(T=2, eta=0.0, seed=19)
    law = gd_key_params(st, 2)
    assert law.variance[0] == 0.0 and np.sqrt(law.variance[0]) == 0.0
    assert law.bias[0] * st.mu0[0] == -st.mu0[0]
    st0 = gd_se(squared_loss(), 0.3, 0.1, np.zeros(4), np.ones(6), None,
                constant_profile((6, 4)), 2, seed=20)
    for t in range(3):
        assert gd_key_params(st0, t).bias[2] * st0.mu0[2] == 0.0


_READ_OUTS = {"gd_key_params": gd_key_params,
              "g_coefficient_nested_sum": g_coefficient_nested_sum}


@pytest.mark.parametrize("name,args", [
    ("gd_key_params", (True,)),
    ("gd_key_params", (1.0,)),
    ("gd_key_params", ("1",)),
    ("g_coefficient_nested_sum", (True, 2)),
    ("g_coefficient_nested_sum", (1, True)),
    ("g_coefficient_nested_sum", (1, 2.0)),
])
def test_read_outs_reject_non_integer_steps_and_coordinates(name, args):
    # a bool or float index is a configuration error, as at every other
    # step argument; numpy would read True as 1 or reject it with its own error
    st = small_state(T=3, seed=5)
    with pytest.raises(ConfigError):
        _READ_OUTS[name](st, *args)


# ---------------------------------------------------------------------------
# persistence

def test_state_serialization_round_trip():
    st = small_state(T=2, seed=22)
    data = json.loads(json.dumps(st.to_json_dict()))
    assert data["T"] == 2 and data["quadratic"] is True
    assert np.allclose(np.array(data["m_matrix"]), st.m_matrix)
    assert np.allclose(np.array(data["v_cov"]), st.v_cov)
