"""Gaussian limit laws, correction coefficients, and the exact
correspondence between plain and corrected iterations."""

import json

import numpy as np
import pytest

from conftest import (mixed_asymmetric_program, mixed_symmetric_program,
                      two_block_profile)
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
from gfomlab.errors import ConfigError, NumericalError
from gfomlab.programs import (
    AsymmetricProgram,
    RowFunction,
    SymmetricProgram,
    affine_combination,
    build_power_iteration,
    build_tanh_iteration,
    constant_rows,
    pick_iterate,
    tanh_map,
    zero_row_function,
)
from gfomlab.state_evolution import (
    GaussianLawTable,
    amp_se_asymmetric,
    amp_se_symmetric,
    gfom_to_amp,
    predict_entrywise,
    se_asymmetric,
    se_symmetric,
)


def _gauss_expect(g, var, deg=80):
    """Gauss-Hermite quadrature oracle for E g(N(0, var))."""
    x, w = np.polynomial.hermite_e.hermegauss(deg)
    return float(np.sum(w * g(np.sqrt(var) * x)) / np.sum(w))


def _zero_fn_program(n, T, values):
    # matrix term absent; additive term is a per-row constant
    return SymmetricProgram(
        T=T,
        mat_fns=[zero_row_function(t) for t in range(1, T + 1)],
        add_fns=[constant_rows(values, t) for t in range(1, T + 1)],
        z0=np.zeros(n),
    )


# ---------------------------------------------------------------------------
# plain-iteration limit laws

def test_first_step_variance_is_mean_square_of_start():
    n = 6
    z0 = np.random.default_rng(0).normal(size=n)
    rec = se_symmetric(build_power_iteration(1, z0), constant_profile((n, n)),
                       mc_samples=200, seed=1)
    # one deterministic composite at step 1: no MC error at all
    assert rec.law.cov[..., 0, 0] == pytest.approx(np.sum(z0 ** 2) / n, rel=1e-13)
    assert rec.law.cov_se[..., 0, 0] == pytest.approx(0.0, abs=1e-15)
    assert rec.transform.coeffs[0].shape == (0, n)


def test_start_vector_override():
    n = 5
    other = np.full(n, 2.0)
    rec = se_symmetric(build_power_iteration(1, np.ones(n)),
                       constant_profile((n, n)), z0=other, mc_samples=200, seed=1)
    assert rec.law.cov[..., 0, 0] == pytest.approx(4.0, rel=1e-13)
    assert np.all(rec.law.x0 == 2.0)


def test_vanishing_matrix_maps_give_degenerate_law():
    n, T = 4, 3
    vals = np.array([0.5, -1.0, 2.0, 0.0])
    rec = se_symmetric(_zero_fn_program(n, T, vals), constant_profile((n, n)),
                       mc_samples=100, seed=2)
    assert np.all(rec.law.cov == 0.0)
    # transformed columns follow the additive recursion deterministically
    hist = np.zeros((n, T + 1))
    out = rec.transform.apply(hist)
    for t in range(1, T + 1):
        assert np.allclose(out[:, t], vals, atol=1e-14)


def test_transform_adds_path_column_to_additive_part():
    n, T = 3, 2
    vals = np.array([1.0, 2.0, -0.5])
    rec = se_symmetric(_zero_fn_program(n, T, vals), constant_profile((n, n)),
                       mc_samples=100, seed=3)
    hist = np.random.default_rng(4).normal(size=(n, T + 1))
    out = rec.transform.apply(hist)
    for t in range(1, T + 1):
        assert np.allclose(out[:, t], hist[:, t] + vals, atol=1e-14)


def test_identity_updates_have_unit_memory_coefficient():
    n = 7
    rec = se_symmetric(build_power_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=300, seed=5)
    assert np.allclose(rec.transform.coeffs[1], 1.0, atol=1e-12)


def test_two_sided_first_step_variance():
    m, n, T = 5, 4, 1
    mu0 = np.random.default_rng(6).normal(size=n)
    prog = AsymmetricProgram(
        T=T,
        u_mat_fns=[pick_iterate(1, 0)],
        u_add_fns=[zero_row_function(1)],
        v_mat_fns=[zero_row_function(2)],
        v_add_fns=[zero_row_function(1)],
        u0=np.zeros(m),
        v0=-mu0,
    )
    rec = se_asymmetric(prog, constant_profile((m, n)), mc_samples=200, seed=7,
                        normalization="inv_sqrt_n")
    assert rec.u_law.cov[..., 0, 0] == pytest.approx(np.sum(mu0 ** 2) / n, rel=1e-13)
    assert rec.u_transform.coeffs[0].shape == (0, m)
    assert rec.v_transform.coeffs[0].shape == (1, n)


def test_two_sided_all_zero_updates_degenerate():
    m, n, T = 3, 4, 2
    prog = AsymmetricProgram(
        T=T,
        u_mat_fns=[zero_row_function(t) for t in range(1, T + 1)],
        u_add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        v_mat_fns=[zero_row_function(t + 1) for t in range(1, T + 1)],
        v_add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        u0=np.zeros(m),
        v0=np.zeros(n),
    )
    rec = se_asymmetric(prog, constant_profile((m, n)), mc_samples=100, seed=8)
    assert np.all(rec.u_law.cov == 0.0)
    assert np.all(rec.v_law.cov == 0.0)


# ---------------------------------------------------------------------------
# corrected-iteration limit laws

def test_linear_update_slope_appears_in_correction_table():
    n, T, c = 5, 3, 0.37
    fns = [affine_combination(t, [0.0] * (t - 1) + [c]) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=300, seed=9)
    for t in range(2, T + 1):
        assert np.allclose(rec.onsager[t - 1][t - 2], c, atol=1e-12)


def test_zero_updates_zero_law():
    n, T = 4, 2
    fns = [zero_row_function(t) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=100, seed=10)
    assert np.all(rec.law.cov == 0.0)


def test_constant_profile_collapses_to_single_law():
    n, T = 6, 3
    fns = [tanh_map(t, t - 1) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=400, seed=11)
    assert rec.law.homogeneous
    assert rec.law.cov.shape == (1, T, T)
    seen = {tuple(rec.law.coord_cov(k).ravel()) for k in range(n)}
    assert len(seen) == 1


def test_corrected_tanh_moments_match_quadrature():
    n, T = 8, 2
    fns = [tanh_map(t, t - 1) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=40_000, seed=12)
    v1 = np.tanh(1.0) ** 2
    assert rec.law.cov[0, 0, 0] == pytest.approx(v1, rel=1e-12)
    want_b = _gauss_expect(lambda x: 1.0 / np.cosh(x) ** 2, v1)
    got_b = float(rec.onsager[1][0, 0])
    se_b = float(rec.onsager_se[1][0, 0])
    assert abs(got_b - want_b) <= 4.0 * se_b + 1e-6
    want_v2 = _gauss_expect(lambda x: np.tanh(x) ** 2, v1)
    got_v2 = float(rec.law.cov[0, 1, 1])
    se_v2 = float(rec.law.cov_se[0, 1, 1])
    assert abs(got_v2 - want_v2) <= 4.0 * se_v2 + 1e-6


def test_two_sided_corrected_tables():
    n = m = 5
    T, c1, c2 = 3, 0.8, -0.4
    u_fns = [affine_combination(t, [0.0] * (t - 1) + [c1]) for t in range(1, T + 1)]
    v_fns = [affine_combination(t + 1, [0.0] * t + [c2]) for t in range(1, T + 1)]
    rec = amp_se_asymmetric(u_fns, v_fns, constant_profile((m, n)),
                            np.zeros(m), np.ones(n), mc_samples=300, seed=13)
    for t in range(1, T + 1):
        # v-side update reads the current u-column, so its own-step entry is live
        assert np.allclose(rec.v_onsager[t - 1][t - 1], c2, atol=1e-12)
        if t >= 2:
            assert np.allclose(rec.u_onsager[t - 1][t - 2], c1 * n / m, atol=1e-12)
            assert np.allclose(rec.v_onsager[t - 1][: t - 1], 0.0, atol=1e-12)


def test_two_sided_zero_updates_and_homogeneity():
    m, n, T = 4, 6, 2
    u_fns = [zero_row_function(t) for t in range(1, T + 1)]
    v_fns = [zero_row_function(t + 1) for t in range(1, T + 1)]
    rec = amp_se_asymmetric(u_fns, v_fns, constant_profile((m, n)),
                            np.zeros(m), np.zeros(n), mc_samples=100, seed=14)
    assert np.all(rec.u_law.cov == 0.0) and np.all(rec.v_law.cov == 0.0)
    assert rec.u_law.homogeneous and rec.v_law.homogeneous


def test_corrected_paths_do_not_collapse_under_two_block_profile():
    # tanh updates from a constant start collapse the path on a constant
    # profile; under a two-block profile the path law is per coordinate
    n, m, T = 6, 5, 2
    tanh1_sq = np.tanh(1.0) ** 2
    prof = two_block_profile(n, n)
    rec = amp_se_symmetric(build_tanh_iteration(T, np.ones(n)).mat_fns, prof,
                           np.ones(n), mc_samples=400, seed=15)
    assert rec.collapsed == {"z": False}
    assert np.allclose(rec.law.cov[:, 0, 0],
                       prof.values.sum(axis=1) / n * tanh1_sq, rtol=1e-12)
    prof = two_block_profile(m, n)
    rec = amp_se_asymmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                            [tanh_map(t + 1, t) for t in range(1, T + 1)],
                            prof, np.ones(m), np.ones(n), mc_samples=400,
                            seed=16)
    assert rec.collapsed == {"u": False, "v": False}
    assert np.allclose(rec.u_law.cov[:, 0, 0],
                       prof.values.sum(axis=1) / m * tanh1_sq, rtol=1e-12)


# ---------------------------------------------------------------------------
# exact pathwise correspondence

def test_single_identity_step_correspondence():
    n = 5
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        "inv_sqrt_n", symmetric=True)
    a = sample_symmetric(spec, n, seed=15)
    prog = build_power_iteration(1, np.ones(n))
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=100, seed=16)
    amp = gfom_to_amp(prog, rec)
    plain = run_symmetric(a, prog)
    corrected = run_amp_symmetric(a, amp.fns, amp.onsager, prog.z0)
    assert np.array_equal(plain.z[1], corrected.z[1])
    out = rec.transform.apply(corrected.z.T)
    assert np.allclose(out[:, 1], plain.z[1], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_correspondence_mixed_symmetric(seed):
    n, T = 30, 3
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        "inv_sqrt_n", symmetric=True)
    a = sample_symmetric(spec, n, seed=40 + seed)
    prog = mixed_symmetric_program(n, T, seed=50 + seed)
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=400, seed=17)
    amp = gfom_to_amp(prog, rec)
    plain = run_symmetric(a, prog)
    corrected = run_amp_symmetric(a, amp.fns, amp.onsager, prog.z0)
    out = rec.transform.apply(corrected.z.T)
    for t in range(1, T + 1):
        assert np.max(np.abs(out[:, t] - plain.z[t])) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_correspondence_mixed_asymmetric(seed):
    m, n, T = 20, 25, 3
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        "inv_sqrt_m", symmetric=False)
    a = sample_asymmetric(spec, m, n, seed=60 + seed)
    prog = mixed_asymmetric_program(m, n, T, seed=70 + seed)
    rec = se_asymmetric(prog, constant_profile((m, n)), mc_samples=400, seed=18)
    amp = gfom_to_amp(prog, rec)
    plain = run_asymmetric(a, prog)
    corrected = run_amp_asymmetric(a, amp.u_fns, amp.v_fns, amp.u_onsager,
                                   amp.v_onsager, prog.u0, prog.v0)
    u_out = rec.u_transform.apply(corrected.u.T)
    v_out = rec.v_transform.apply(corrected.v.T)
    for t in range(1, T + 1):
        assert np.max(np.abs(u_out[:, t] - plain.u[t])) <= 1e-8
        assert np.max(np.abs(v_out[:, t] - plain.v[t])) <= 1e-8


def test_translation_rejects_mismatched_record():
    n = 4
    prog = build_power_iteration(2, np.ones(n))
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=100, seed=19)
    with pytest.raises(ConfigError):
        gfom_to_amp(mixed_asymmetric_program(3, 4, 2, seed=20), rec)
    short = se_symmetric(build_power_iteration(1, np.ones(n)),
                         constant_profile((n, n)), mc_samples=100, seed=21)
    with pytest.raises(ConfigError):
        gfom_to_amp(prog, short)


# ---------------------------------------------------------------------------
# entrywise prediction

def test_prediction_of_zero_function_is_zero():
    n = 5
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=200, seed=22)
    means, ses = predict_entrywise(rec, [0, 3], lambda x: np.zeros_like(x),
                                   n_paths=500, seed=23)
    assert np.all(means == 0.0) and np.all(ses == 0.0)


def test_prediction_recovers_additive_offset():
    # z1 = A z0 + c: the transformed column has mean c and known variance
    n, c = 6, 0.7
    prog = SymmetricProgram(
        T=1,
        mat_fns=[pick_iterate(1, 0)],
        add_fns=[affine_combination(1, [0.0], intercept=c)],
        z0=np.ones(n),
    )
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=200, seed=24)
    means, ses = predict_entrywise(rec, [0, 2], lambda x: x,
                                   n_paths=40_000, seed=25)
    assert np.all(ses > 0.0)
    assert np.all(np.abs(means - c) <= 3.0 * ses)


def test_prediction_degenerate_law_is_point_mass():
    n, T = 4, 2
    vals = np.array([0.5, -1.0, 2.0, 0.0])
    rec = se_symmetric(_zero_fn_program(n, T, vals), constant_profile((n, n)),
                       mc_samples=100, seed=26)
    means, ses = predict_entrywise(rec, [0, 1, 2, 3], lambda x: x,
                                   n_paths=300, seed=27)
    assert np.allclose(means, vals, atol=1e-13)
    assert np.all(ses == 0.0)


def test_prediction_side_and_step_validation():
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    with pytest.raises(ConfigError):
        predict_entrywise(rec, [0], lambda x: x, side="u", n_paths=100)
    with pytest.raises(ConfigError):
        predict_entrywise(rec, [0], lambda x: x, t=5, n_paths=100)
    with pytest.raises(ConfigError):
        predict_entrywise(rec, [n + 3], lambda x: x, n_paths=100)


# ---------------------------------------------------------------------------
# structural invariants

def test_horizon_restriction_is_exact_with_same_seed():
    n = 6
    long = se_symmetric(build_tanh_iteration(4, np.ones(n)),
                        constant_profile((n, n)), mc_samples=800, seed=29)
    short = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                         constant_profile((n, n)), mc_samples=800, seed=29)
    assert np.array_equal(long.law.cov[:, :2, :2], short.law.cov[:, :2, :2])
    for t in range(2):
        assert np.array_equal(long.transform.coeffs[t], short.transform.coeffs[t])


def test_covariance_matrices_symmetric_exactly():
    n = 5
    rec = se_symmetric(mixed_symmetric_program(n, 3, seed=30),
                       constant_profile((n, n)), mc_samples=600, seed=31)
    assert np.array_equal(rec.law.cov, np.swapaxes(rec.law.cov, -1, -2))


def test_row_dependent_wrappers_reproduce_shared_law():
    # identical rows declared row-dependent: per-coordinate estimates must
    # coincide with each other exactly and with the shared-law fast path up
    # to Monte Carlo resampling error
    n, T, mc = 6, 2, 2000

    def nonconst_tanh(arity, col):
        base = tanh_map(arity, col)
        return RowFunction(arity=arity, fn=base.fn, dfn=base.dfn,
                           row_constant=False)

    forced = SymmetricProgram(
        T=T,
        mat_fns=[nonconst_tanh(t, t - 1) for t in range(1, T + 1)],
        add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        z0=np.ones(n),
    )
    rec_f = se_symmetric(forced, constant_profile((n, n)), mc_samples=mc, seed=32)
    rec_c = se_symmetric(build_tanh_iteration(T, np.ones(n)),
                         constant_profile((n, n)), mc_samples=mc, seed=32)
    seen = {tuple(rec_f.law.coord_cov(k).ravel()) for k in range(n)}
    assert len(seen) == 1
    gap = np.abs(rec_f.law.cov - rec_c.law.cov)
    band = 4.0 * np.hypot(rec_f.law.cov_se, rec_c.law.cov_se)
    assert np.all(gap <= band + 1e-12)


def test_doubling_samples_shrinks_errors_like_root_two():
    n, T = 5, 2
    ratios = []
    for seed in range(10):
        r1 = se_symmetric(build_tanh_iteration(T, np.ones(n)),
                          constant_profile((n, n)), mc_samples=1000, seed=seed)
        r2 = se_symmetric(build_tanh_iteration(T, np.ones(n)),
                          constant_profile((n, n)), mc_samples=2000, seed=seed)
        ratios.append(r1.law.cov_se[0, T - 1, T - 1] / r2.law.cov_se[0, T - 1, T - 1])
    assert 1.25 <= np.mean(ratios) <= 1.6


def test_finite_difference_cross_check_flag():
    n = 5
    rec = se_symmetric(build_tanh_iteration(3, np.ones(n)),
                       constant_profile((n, n)), mc_samples=400, seed=33,
                       fd_check=True)
    assert rec.fd_gap is not None
    assert rec.fd_gap < 1e-6


def test_psd_gate_raises_beyond_floor():
    law = GaussianLawTable(np.ones(1), T=1, homogeneous=True)
    law.cov[0, 0, 0] = -1.0
    with pytest.raises(NumericalError):
        law.factors(1)
    # tiny negative values are clipped, not fatal
    law.cov[0, 0, 0] = -1e-12
    assert np.all(law.factors(1) == 0.0)


def test_record_side_lookup_and_serialization(tmp_path):
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=200, seed=34)
    with pytest.raises(ConfigError):
        rec.side("u")
    law, transform = rec.side("z")
    assert law is rec.law and transform is rec.transform
    path = tmp_path / "record.json"
    rec.save(path)
    data = json.loads(path.read_text())
    assert data["mc"] == 200
    assert len(data["memory_coeffs"]) == 2
    assert np.allclose(np.array(data["law"]["cov"]), rec.law.cov)
