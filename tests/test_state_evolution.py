"""Gaussian limit laws, correction coefficients, and the exact
correspondence between plain and corrected iterations."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (counting_generator, mixed_asymmetric_program,
                      mixed_symmetric_program, two_block_profile, wavy_loss)
from gfomlab import ensembles, programs, state_evolution
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
from gfomlab.erm import prox_lasso, prox_ridge, squared_loss
from gfomlab.errors import ConfigError, NumericalError
from gfomlab.programs import (
    AsymmetricProgram,
    RowFunction,
    SymmetricProgram,
    build_gd_ridge,
    build_logistic,
    build_pgd_linear,
    build_power_iteration,
    build_tanh_iteration,
    constant_rows,
    pick_iterate,
    scalar_map,
    symmetrize,
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


def _slope(arity, c):
    """c times the last history column."""
    return scalar_map(arity, arity - 1, lambda x: c * x,
                      lambda x: np.full(x.shape[-1:], c))


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
    z = rec.side("z")
    assert z.law.cov[..., 0, 0] == pytest.approx(np.sum(z0 ** 2) / n, rel=1e-13)
    assert z.law.cov_se[..., 0, 0] == pytest.approx(0.0, abs=1e-15)
    assert z.transform.coeffs[0].shape == (0, n)


def test_start_vector_override():
    n = 5
    other = np.full(n, 2.0)
    rec = se_symmetric(build_power_iteration(1, np.ones(n)),
                       constant_profile((n, n)), z0=other, mc_samples=200, seed=1)
    assert rec.side("z").law.cov[..., 0, 0] == pytest.approx(4.0, rel=1e-13)
    assert np.all(rec.side("z").law.x0 == 2.0)


def test_vanishing_matrix_maps_give_degenerate_law():
    n, T = 4, 3
    vals = np.array([0.5, -1.0, 2.0, 0.0])
    rec = se_symmetric(_zero_fn_program(n, T, vals), constant_profile((n, n)),
                       mc_samples=100, seed=2)
    assert np.all(rec.side("z").law.cov == 0.0)
    # transformed columns follow the additive recursion deterministically
    hist = np.zeros((n, T + 1))
    out = rec.side("z").transform.apply(hist)
    for t in range(1, T + 1):
        assert np.allclose(out[:, t], vals, atol=1e-14)


def test_transform_adds_path_column_to_additive_part():
    n, T = 3, 2
    vals = np.array([1.0, 2.0, -0.5])
    rec = se_symmetric(_zero_fn_program(n, T, vals), constant_profile((n, n)),
                       mc_samples=100, seed=3)
    hist = np.random.default_rng(4).normal(size=(n, T + 1))
    out = rec.side("z").transform.apply(hist)
    for t in range(1, T + 1):
        assert np.allclose(out[:, t], hist[:, t] + vals, atol=1e-14)


def test_identity_updates_have_unit_memory_coefficient():
    n = 7
    rec = se_symmetric(build_power_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=300, seed=5)
    assert np.allclose(rec.side("z").transform.coeffs[1], 1.0, atol=1e-12)


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
    rec = se_asymmetric(prog, constant_profile((m, n)), mc_samples=200, seed=7)
    assert rec.side("u").law.cov[..., 0, 0] == pytest.approx(np.sum(mu0 ** 2) / n,
                                                             rel=1e-13)
    assert rec.side("u").transform.coeffs[0].shape == (0, m)
    assert rec.side("v").transform.coeffs[0].shape == (1, n)


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
    assert np.all(rec.side("u").law.cov == 0.0)
    assert np.all(rec.side("v").law.cov == 0.0)


# ---------------------------------------------------------------------------
# corrected-iteration limit laws

def test_linear_update_slope_appears_in_correction_table():
    n, T, c = 5, 3, 0.37
    fns = [_slope(t, c) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=300, seed=9)
    for t in range(2, T + 1):
        assert np.allclose(rec.side("z").coeffs[t - 1][t - 2], c, atol=1e-12)


def test_zero_updates_zero_law():
    n, T = 4, 2
    fns = [zero_row_function(t) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=100, seed=10)
    assert np.all(rec.side("z").law.cov == 0.0)


def test_constant_profile_collapses_to_single_law():
    n, T = 6, 3
    fns = [tanh_map(t, t - 1) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=400, seed=11)
    assert rec.side("z").law.homogeneous
    assert rec.side("z").law.cov.shape == (1, T, T)
    seen = {tuple(cov.ravel()) for cov in rec.side("z").law.cov}
    assert len(seen) == 1


def test_corrected_tanh_moments_match_quadrature():
    n, T = 8, 2
    fns = [tanh_map(t, t - 1) for t in range(1, T + 1)]
    rec = amp_se_symmetric(fns, constant_profile((n, n)), np.ones(n),
                           mc_samples=40_000, seed=12)
    v1 = np.tanh(1.0) ** 2
    assert rec.side("z").law.cov[0, 0, 0] == pytest.approx(v1, rel=1e-12)
    want_b = _gauss_expect(lambda x: 1.0 / np.cosh(x) ** 2, v1)
    got_b = float(rec.side("z").coeffs[1][0, 0])
    se_b = float(rec.side("z").coeffs_se[1][0, 0])
    assert abs(got_b - want_b) <= 4.0 * se_b + 1e-6
    want_v2 = _gauss_expect(lambda x: np.tanh(x) ** 2, v1)
    got_v2 = float(rec.side("z").law.cov[0, 1, 1])
    se_v2 = float(rec.side("z").law.cov_se[0, 1, 1])
    assert abs(got_v2 - want_v2) <= 4.0 * se_v2 + 1e-6


def test_two_sided_corrected_tables():
    n = m = 5
    T, c1, c2 = 3, 0.8, -0.4
    u_fns = [_slope(t, c1) for t in range(1, T + 1)]
    v_fns = [_slope(t + 1, c2) for t in range(1, T + 1)]
    rec = amp_se_asymmetric(u_fns, v_fns, constant_profile((m, n)),
                            np.zeros(m), np.ones(n), mc_samples=300, seed=13)
    for t in range(1, T + 1):
        # v-side update reads the current u-column, so its own-step entry is live
        assert np.allclose(rec.side("v").coeffs[t - 1][t - 1], c2, atol=1e-12)
        if t >= 2:
            assert np.allclose(rec.side("u").coeffs[t - 1][t - 2], c1 * n / m,
                               atol=1e-12)
            assert np.allclose(rec.side("v").coeffs[t - 1][: t - 1], 0.0,
                               atol=1e-12)


def test_two_sided_zero_updates_and_homogeneity():
    m, n, T = 4, 6, 2
    u_fns = [zero_row_function(t) for t in range(1, T + 1)]
    v_fns = [zero_row_function(t + 1) for t in range(1, T + 1)]
    rec = amp_se_asymmetric(u_fns, v_fns, constant_profile((m, n)),
                            np.zeros(m), np.zeros(n), mc_samples=100, seed=14)
    assert np.all(rec.side("u").law.cov == 0.0)
    assert np.all(rec.side("v").law.cov == 0.0)
    assert rec.side("u").law.homogeneous and rec.side("v").law.homogeneous


def test_corrected_paths_do_not_collapse_under_two_block_profile():
    # tanh updates from a constant start collapse the path on a constant
    # profile; under a two-block profile the path law is per coordinate
    n, m, T = 6, 5, 2
    tanh1_sq = np.tanh(1.0) ** 2
    prof = two_block_profile(n, n)
    rec = amp_se_symmetric(build_tanh_iteration(T, np.ones(n)).mat_fns, prof,
                           np.ones(n), mc_samples=400, seed=15)
    assert not rec.side("z").collapsed
    assert np.allclose(rec.side("z").law.cov[:, 0, 0],
                       prof.values.sum(axis=1) / n * tanh1_sq, rtol=1e-12)
    prof = two_block_profile(m, n)
    rec = amp_se_asymmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                            [tanh_map(t + 1, t) for t in range(1, T + 1)],
                            prof, np.ones(m), np.ones(n), mc_samples=400,
                            seed=16)
    assert not rec.side("u").collapsed and not rec.side("v").collapsed
    assert np.allclose(rec.side("u").law.cov[:, 0, 0],
                       prof.values.sum(axis=1) / n * tanh1_sq, rtol=1e-12)


def test_two_sided_law_has_the_scale_of_the_sampled_matrix():
    # the harness samples m x n matrices at 1/sqrt(n); a law weighted by
    # profile / m predicted E[u_1^2] = tanh(1)^2 n/m = 0.193 at 300 x 100,
    # where the matrices give tanh(1)^2 = 0.580
    m, n = 300, 100
    fns = ([tanh_map(1, 0)], [tanh_map(2, 1)])
    rec = amp_se_asymmetric(*fns, constant_profile((m, n)), np.ones(m),
                            np.ones(n), mc_samples=400, seed=0)
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)
    means = [np.mean(run_amp_asymmetric(
        sample_asymmetric(spec, m, n, seed), *fns, rec.side("u").coeffs,
        rec.side("v").coeffs, np.ones(m), np.ones(n)).u[1]**2)
        for seed in range(20)]
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means) - rec.side("u").law.cov[0, 0, 0]) <= 4.0 * se


# ---------------------------------------------------------------------------
# exact pathwise correspondence

def test_single_identity_step_correspondence():
    n = 5
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        symmetric=True)
    a = sample_symmetric(spec, n, seed=15)
    prog = build_power_iteration(1, np.ones(n))
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=100, seed=16)
    amp = gfom_to_amp(prog, rec)
    plain = run_symmetric(a, prog)
    corrected = run_amp_symmetric(a, *amp["z"], prog.z0)
    assert np.array_equal(plain.z[1], corrected.z[1])
    out = rec.side("z").transform.apply(corrected.z.T)
    assert np.allclose(out[:, 1], plain.z[1], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_correspondence_mixed_symmetric(seed):
    n, T = 30, 3
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        symmetric=True)
    a = sample_symmetric(spec, n, seed=40 + seed)
    prog = mixed_symmetric_program(n, T, seed=50 + seed)
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=400, seed=17)
    amp = gfom_to_amp(prog, rec)
    plain = run_symmetric(a, prog)
    corrected = run_amp_symmetric(a, *amp["z"], prog.z0)
    out = rec.side("z").transform.apply(corrected.z.T)
    for t in range(1, T + 1):
        assert np.max(np.abs(out[:, t] - plain.z[t])) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_correspondence_mixed_asymmetric(seed):
    m, n, T = 20, 25, 3
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)
    a = sample_asymmetric(spec, m, n, seed=60 + seed)
    prog = mixed_asymmetric_program(m, n, T, seed=70 + seed)
    rec = se_asymmetric(prog, constant_profile((m, n)), mc_samples=400, seed=18)
    amp = gfom_to_amp(prog, rec)
    plain = run_asymmetric(a, prog)
    corrected = run_amp_asymmetric(a, amp["u"][0], amp["v"][0], amp["u"][1],
                                   amp["v"][1], prog.u0, prog.v0)
    u_out = rec.side("u").transform.apply(corrected.u.T)
    v_out = rec.side("v").transform.apply(corrected.v.T)
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
    [(means, ses)] = predict_entrywise(rec, [0, 3], lambda x: np.zeros_like(x),
                                       [("z", 2)], n_paths=500, seed=23)
    assert np.all(means == 0.0) and np.all(ses == 0.0)


def test_prediction_recovers_additive_offset():
    # z1 = A z0 + c: the transformed column has mean c and known variance
    n, c = 6, 0.7
    prog = SymmetricProgram(
        T=1,
        mat_fns=[pick_iterate(1, 0)],
        add_fns=[constant_rows(np.full(n, c), 1)],
        z0=np.ones(n),
    )
    rec = se_symmetric(prog, constant_profile((n, n)), mc_samples=200, seed=24)
    [(means, ses)] = predict_entrywise(rec, [0, 2], lambda x: x, [("z", 1)],
                                       n_paths=40_000, seed=25)
    assert np.all(ses > 0.0)
    assert np.all(np.abs(means - c) <= 3.0 * ses)


def test_prediction_degenerate_law_is_point_mass():
    n, T = 4, 2
    vals = np.array([0.5, -1.0, 2.0, 0.0])
    rec = se_symmetric(_zero_fn_program(n, T, vals), constant_profile((n, n)),
                       mc_samples=100, seed=26)
    [(means, ses)] = predict_entrywise(rec, [0, 1, 2, 3], lambda x: x, [("z", T)],
                                       n_paths=300, seed=27)
    assert np.allclose(means, vals, atol=1e-13)
    assert np.all(ses == 0.0)


def test_prediction_side_and_step_validation():
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    with pytest.raises(ConfigError):
        predict_entrywise(rec, [0], lambda x: x, [("u", 2)], n_paths=100)
    with pytest.raises(ConfigError):
        predict_entrywise(rec, [0], lambda x: x, [("z", 5)], n_paths=100)
    with pytest.raises(ConfigError):
        predict_entrywise(rec, [n + 3], lambda x: x, [("z", 2)], n_paths=100)


@pytest.mark.parametrize("single", [{"side": "z"}, {"t": 2}])
def test_prediction_takes_cells_only(single):
    # one call shape: a list of (side, t) cells in, one result per cell out;
    # the single-cell keywords used to be ignored whenever cells was given
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    out = predict_entrywise(rec, [0], np.tanh, [("z", 1)], n_paths=100)
    assert isinstance(out, list) and len(out) == 1
    with pytest.raises(TypeError):
        predict_entrywise(rec, [0], np.tanh, cells=[("z", 1)], n_paths=100,
                          **single)


@pytest.mark.parametrize("t", [1.5, True, np.float64(1.0), "1"])
def test_prediction_step_must_be_an_integer(t):
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    with pytest.raises(ConfigError, match="step"):
        predict_entrywise(rec, [0], np.tanh, [("z", t)], n_paths=100)


@pytest.mark.parametrize("T", [2.5, True, np.float64(2.0), "2"])
@pytest.mark.parametrize("builder", ["se_symmetric", "se_asymmetric"])
def test_limit_law_horizon_must_be_an_integer(builder, T):
    # a float horizon used to be truncated and True read as 1
    m, n = 5, 4
    with pytest.raises(ConfigError, match="horizon"):
        if builder == "se_symmetric":
            se_symmetric(build_tanh_iteration(3, np.linspace(0.0, 1.0, n)),
                         constant_profile((n, n)), T=T, mc_samples=100)
        else:
            se_asymmetric(mixed_asymmetric_program(m, n, 3, seed=41),
                          constant_profile((m, n)), T=T, mc_samples=100)


@pytest.mark.parametrize("n_paths", [0, -3, 1, 1.7, True])
def test_prediction_rejects_bad_path_counts(n_paths):
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    with pytest.raises(ConfigError, match="n_paths"):
        predict_entrywise(rec, [0], lambda x: x, [("z", 2)], n_paths=n_paths)


@pytest.mark.parametrize("mc", [2.5, 0, 1, True, "100", np.float64(100.0)])
@pytest.mark.parametrize("builder", ["se_symmetric", "amp_se_symmetric",
                                     "se_asymmetric", "amp_se_asymmetric"])
def test_limit_law_builders_reject_bad_sample_counts(builder, mc):
    m, n, T = 5, 4, 2
    with pytest.raises(ConfigError, match="mc_samples"):
        if builder == "se_symmetric":
            se_symmetric(build_tanh_iteration(T, np.linspace(0.0, 1.0, n)),
                         constant_profile((n, n)), mc_samples=mc)
        elif builder == "amp_se_symmetric":
            amp_se_symmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                             constant_profile((n, n)), np.ones(n), mc_samples=mc)
        elif builder == "se_asymmetric":
            se_asymmetric(mixed_asymmetric_program(m, n, T, seed=41),
                          constant_profile((m, n)), mc_samples=mc)
        else:
            amp_se_asymmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                              [tanh_map(t + 1, t) for t in range(1, T + 1)],
                              constant_profile((m, n)), np.ones(m), np.ones(n),
                              mc_samples=mc)


def test_sample_count_is_recorded_as_an_integer():
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=np.int64(100))
    assert type(rec.mc) is int and rec.to_json_dict()["mc"] == 100


@pytest.mark.parametrize("coords", [[1.5], [True], ["1"], [[0, 1]], 1,
                                    np.ones((2, 2), int)])
def test_prediction_rejects_non_integer_coordinates(coords):
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    with pytest.raises(ConfigError, match="coordinates"):
        predict_entrywise(rec, coords, lambda x: x, [("z", 2)], n_paths=100)


def test_prediction_accepts_integer_sequences():
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.linspace(0.0, 1.0, n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    want = predict_entrywise(rec, [1, 3], np.tanh, [("z", 2)], n_paths=300)[0]
    for coords in ((1, 3), np.array([1, 3]), [np.int32(1), np.int64(3)]):
        got = predict_entrywise(rec, coords, np.tanh, [("z", 2)], n_paths=300)[0]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("coords,count", [(None, 6), ([4, 1], 2), ([], 0)])
def test_prediction_draws_paths_times_coordinates_times_step(monkeypatch, coords, count):
    # one normal per path, coordinate and step, each drawn once; a
    # collapsed law draws one coordinate's
    n, T = 6, 2
    rec = se_symmetric(build_tanh_iteration(T, np.linspace(0.0, 1.0, n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    amp = amp_se_symmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                           constant_profile((n, n)), np.ones(n), mc_samples=100)
    assert amp.side("z").collapsed
    for record, dim in ((rec, count), (amp, 1)):
        drawn = [0]
        with monkeypatch.context() as mp:
            mp.setattr(state_evolution, "Generator", counting_generator(drawn))
            means, _ = predict_entrywise(record, coords, np.tanh, [("z", T)],
                                         n_paths=300)[0]
        assert drawn[0] == 300 * dim * T
        assert means.shape == (n if coords is None else len(coords),)


def test_prediction_of_no_coordinates_is_empty():
    n = 4
    rec = se_symmetric(build_tanh_iteration(2, np.linspace(0.0, 1.0, n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    [(means, ses)] = predict_entrywise(rec, [], np.tanh, [("z", 2)], n_paths=300)
    assert means.shape == ses.shape == (0,)


# ---------------------------------------------------------------------------
# drawing ahead: a helper of the strip pool draws the pieces of a stream
# after the caller's while room admits them, the caller those that no one
# has begun, and one thread draws at a time, in order

def _draws_by(who):
    """draw(i) for a _DrawAhead, noting (i, drawn on the caller)."""
    def draw(i):
        who.append((i, threading.current_thread() is threading.main_thread()))
    return draw


def _wait_for(cond):
    for _ in range(3000):
        if cond():
            return
        time.sleep(0.01)
    raise AssertionError("timed out")


def test_the_helper_draws_ahead_into_free_slots_only(strip_threads):
    # room for two pieces past the caller's: once the helper is idle, it has
    # drawn every piece the rule admits and no more, in order, and waits for
    # room for the next one, if any is left
    strip_threads(2)
    who = []
    with state_evolution._DrawAhead(5, _draws_by(who),
                                    lambda i, taken: i < taken + 2) as ahead:
        for taken in range(6):
            _wait_for(lambda: not ahead.queued)
            assert who == [(i, False) for i in range(min(5, taken + 2))]
            assert ahead.stalled() == (taken + 2 if taken + 2 < 5 else None)
            if taken < 5:
                assert ahead.take() == taken


def test_the_caller_draws_what_the_helper_has_not_begun(strip_threads):
    strip_threads(2)
    helpers = ensembles._strip_pool()[0]
    release = threading.Event()
    busy = helpers.submit(release.wait, 30)
    who = []
    try:
        with state_evolution._DrawAhead(5, _draws_by(who),
                                        lambda i, taken: i <= taken) as ahead:
            assert [ahead.take() for _ in range(5)] == list(range(5))
    finally:
        release.set()
    assert busy.result(timeout=30)
    assert who == [(i, True) for i in range(5)]
    # the task queued behind the busy one returned at once
    assert helpers.submit(lambda: 7).result(timeout=30) == 7


def test_a_helper_draw_error_reaches_the_caller(strip_threads):
    strip_threads(2)
    helper_failed = threading.Event()

    def draw(i):
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise RuntimeError("draw failed")

    with pytest.raises(RuntimeError, match="draw failed"):
        with state_evolution._DrawAhead(4, draw,
                                        lambda i, taken: i <= taken) as ahead:
            ahead.take()
            helper_failed.wait(timeout=30)
            ahead.take()
    assert helper_failed.is_set()
    assert ensembles._strip_pool()[0].submit(lambda: 7).result(timeout=30) == 7


def test_a_failed_caller_leaves_only_after_the_draw_in_flight(strip_threads):
    # the helper is drawing piece k when the caller fails: leaving the with
    # block waits for that draw to end, and no later piece is begun
    strip_threads(2)
    k = 2
    begun, ended = [], []
    in_flight, release = threading.Event(), threading.Event()

    def draw(i):
        begun.append(i)
        if i == k:
            in_flight.set()
            release.wait(timeout=30)
        ended.append(i)

    releaser = threading.Timer(0.2, release.set)
    with pytest.raises(RuntimeError, match="caller failed"):
        with state_evolution._DrawAhead(6, draw, lambda i, taken: True):
            assert in_flight.wait(timeout=30)
            releaser.start()
            raise RuntimeError("caller failed")
    assert ended == list(range(k + 1))
    releaser.join()
    # once the helper is idle, it has begun nothing after piece k
    assert ensembles._strip_pool()[0].submit(lambda: 7).result(timeout=30) == 7
    assert begun == list(range(k + 1))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_the_read_out_draws_its_stream_to_the_end_and_no_further(
        monkeypatch, strip_threads, threads):
    # 30001 paths of 6 coordinates x 2 steps: 21 whole tape pieces and a
    # ragged 22nd
    strip_threads(threads)
    n, T = 6, 2
    rec = se_symmetric(build_tanh_iteration(T, np.linspace(0.0, 1.0, n)),
                       constant_profile((n, n)), mc_samples=100, seed=28)
    want = predict_entrywise(rec, None, np.tanh, [("z", T)], n_paths=30001)
    drawn = [0]
    monkeypatch.setattr(state_evolution, "Generator", counting_generator(drawn))
    got = predict_entrywise(rec, None, np.tanh, [("z", 1), ("z", T)],
                            n_paths=30001)
    assert drawn[0] == 30001 * n * T
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1], want[0]))


def test_concurrent_limit_laws_on_more_threads_than_cores(monkeypatch,
                                                        strip_threads):
    # 8-sample sub-blocks, and 1000-normal tape pieces with room for one
    # piece past the window, so the window moves to the front of the tape
    # for one piece in two (18 of the read-out's 36); on 2 and 3 threads,
    # with a short switch interval, from two callers sharing the pool: a
    # piece drawn out of order, twice, or over normals its caller still
    # reads would move a byte of the record or of its read-out
    monkeypatch.setattr(state_evolution, "_SUB_BLOCK_BYTES", 1)
    monkeypatch.setattr(state_evolution, "_TAPE_PIECE", 1000)
    monkeypatch.setattr(state_evolution, "_TAPE_AHEAD", 1000)
    prog = mixed_asymmetric_program(12, 10, 3, seed=90)
    prof = two_block_profile(12, 10)
    cells = [(s, t) for s in "uv" for t in (1, 2, 3)]

    def digest():
        rec = se_asymmetric(prog, prof, mc_samples=1000, seed=91)
        preds = predict_entrywise(rec, None, np.tanh, cells, n_paths=1000,
                                  seed=92)
        return (json.dumps(rec.to_json_dict()),
                [(m.tobytes(), s.tobytes()) for m, s in preds])

    strip_threads(1)
    want = digest()
    for threads in (2, 3):
        strip_threads(threads)
        got = {}

        def run(k):
            for _ in range(3):
                got.setdefault(k, []).append(digest())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == {k: [want] * 3 for k in (0, 1)}, threads


_FAILED_STEP = """
import dataclasses
from conftest import mixed_asymmetric_program, two_block_profile
from gfomlab.state_evolution import se_asymmetric
prog = mixed_asymmetric_program(300, 150, 3, seed=80)
fn = prog.u_mat_fns[0]
calls = [0]

def trip(h, rows):
    calls[0] += 1
    if calls[0] == 10:
        raise RuntimeError("row function failed")
    return fn.fn(h, rows)

prog.u_mat_fns[0] = dataclasses.replace(fn, fn=trip)
se_asymmetric(prog, two_block_profile(300, 150), mc_samples=20000, seed=81)
"""


def test_a_failed_limit_law_lets_the_interpreter_exit():
    # an error partway through a step, uncaught; the timeout fails the test
    # if a helper kept the process alive
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    out = subprocess.run([sys.executable, "-c", _FAILED_STEP], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1
    assert "RuntimeError: row function failed" in out.stderr


# ---------------------------------------------------------------------------
# structural invariants

def test_horizon_restriction_is_exact_with_same_seed():
    n = 6
    long = se_symmetric(build_tanh_iteration(4, np.ones(n)),
                        constant_profile((n, n)), mc_samples=800, seed=29)
    short = se_symmetric(build_tanh_iteration(2, np.ones(n)),
                         constant_profile((n, n)), mc_samples=800, seed=29)
    long, short = long.side("z"), short.side("z")
    assert np.array_equal(long.law.cov[:, :2, :2], short.law.cov[:, :2, :2])
    for t in range(2):
        assert np.array_equal(long.transform.coeffs[t], short.transform.coeffs[t])


def test_covariance_matrices_symmetric_exactly():
    n = 5
    rec = se_symmetric(mixed_symmetric_program(n, 3, seed=30),
                       constant_profile((n, n)), mc_samples=600, seed=31)
    cov = rec.side("z").law.cov
    assert np.array_equal(cov, np.swapaxes(cov, -1, -2))


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
    seen = {tuple(cov.ravel()) for cov in rec_f.side("z").law.cov}
    assert len(seen) == 1
    gap = np.abs(rec_f.side("z").law.cov - rec_c.side("z").law.cov)
    band = 4.0 * np.hypot(rec_f.side("z").law.cov_se,
                          rec_c.side("z").law.cov_se)
    assert np.all(gap <= band + 1e-12)


def test_doubling_samples_shrinks_errors_like_root_two():
    n, T = 5, 2
    ratios = []
    for seed in range(10):
        r1 = se_symmetric(build_tanh_iteration(T, np.ones(n)),
                          constant_profile((n, n)), mc_samples=1000, seed=seed)
        r2 = se_symmetric(build_tanh_iteration(T, np.ones(n)),
                          constant_profile((n, n)), mc_samples=2000, seed=seed)
        ratios.append(r1.side("z").law.cov_se[0, T - 1, T - 1]
                      / r2.side("z").law.cov_se[0, T - 1, T - 1])
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
    # a slot's floor is min(PSD_FLOOR, -4 ||SE||_F) over its own block
    law = GaussianLawTable(np.ones(2), T=1, homogeneous=False)
    law.cov[:, 0, 0] = -2e-10
    with pytest.raises(NumericalError, match="slot 0"):
        law.factors(1)   # zero standard errors keep the absolute floor
    law.cov_se[0, 0, 0] = 1e-3
    with pytest.raises(NumericalError, match="slot 1"):
        law.factors(1)   # slot 0's errors do not lower slot 1's floor
    law.cov_se[1, 0, 0] = 1e-3
    law.cov[:, 0, 0] = [-3.9e-3, -1e-3]
    assert np.all(law.factors(1) == 0.0)
    law.cov[1, 0, 0] = -4.1e-3
    with pytest.raises(NumericalError, match="-4.100e-03.*slot 1"):
        law.factors(1)
    assert np.all(law.factors(1, coords=[0]) == 0.0)
    # the norm is the Frobenius one over the slot's whole (t, t) block
    law = GaussianLawTable(np.ones(1), T=2, homogeneous=True)
    law.cov_se[0] = [[3e-4, 4e-4], [4e-4, 0.0]]   # floor -4 sqrt(41) 1e-4
    law.cov[0] = np.diag([-2.55e-3, 1.0])
    assert np.all(law.factors(2)[0, :, 0] == 0.0)
    law.cov[0, 0, 0] = -2.57e-3
    with pytest.raises(NumericalError):
        law.factors(2)


@pytest.mark.parametrize("builder", ["se_asymmetric", "amp_se_asymmetric"])
def test_signed_zero_profile_entries_give_the_records_of_plus_zero(builder):
    # rows equal in value are one class: a -0.0 in a profile of ones with a
    # zero column used to split one side's class table while its paths
    # collapsed, and the collapsed start met per-coordinate factors
    m, n, T = 5, 4, 3
    u_fns = [tanh_map(t, t - 1) for t in range(1, T + 1)]
    v_fns = [tanh_map(t + 1, t) for t in range(1, T + 1)]
    zeros = [zero_row_function(t) for t in range(1, T + 1)]
    prog = AsymmetricProgram(T, u_fns, zeros, v_fns, zeros, np.ones(m), np.ones(n))
    dumps = []
    for sign in (1.0, -1.0):
        prof = np.ones((m, n))
        prof[:, 1] = 0.0
        prof[2, 1] = sign * 0.0
        if builder == "se_asymmetric":
            rec = se_asymmetric(prog, prof, mc_samples=500, seed=3)
        else:
            rec = amp_se_asymmetric(u_fns, v_fns, prof, np.ones(m), np.ones(n),
                                    mc_samples=500, seed=3)
        assert rec.side("u").collapsed and not rec.side("v").collapsed
        dumps.append(json.dumps(rec.to_json_dict()))
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize("kind", ["constant", "two_block"])
@pytest.mark.parametrize("builder", ["se_symmetric", "se_asymmetric"])
def test_start_vectors_of_the_wrong_length_are_rejected(builder, kind):
    m, n = 5, 6
    prof = (lambda r, c: constant_profile((r, c))) if kind == "constant" \
        else two_block_profile
    with pytest.raises(ConfigError, match="profile shape"):
        if builder == "se_symmetric":
            se_symmetric(mixed_symmetric_program(n, 2, seed=37), prof(n, n),
                         z0=np.ones(4), mc_samples=100, seed=38)
        else:
            se_asymmetric(mixed_asymmetric_program(m, n, 2, seed=39),
                          prof(m, n), v0=np.ones(7), mc_samples=100, seed=40)


def test_record_side_lookup_and_serialization():
    n, m, T = 4, 6, 2
    rec = se_symmetric(build_tanh_iteration(T, np.ones(n)),
                       constant_profile((n, n)), mc_samples=200, seed=34)
    with pytest.raises(ConfigError):
        rec.side("u")
    z = rec.side("z")
    assert z is rec.sides["z"] and z.coeffs is z.transform.coeffs
    data = json.loads(json.dumps(rec.to_json_dict()))
    assert data["mc"] == 200 and list(data["sides"]) == ["z"]
    assert len(data["sides"]["z"]["coeffs"]) == T
    assert np.allclose(np.array(data["sides"]["z"]["cov"]), z.law.cov)
    # both correction tables of a two-sided record, with their SEs
    rec = se_asymmetric(mixed_asymmetric_program(m, n, T, seed=35),
                        constant_profile((m, n)), mc_samples=200, seed=36)
    with pytest.raises(ConfigError):
        rec.side("z")
    data = json.loads(json.dumps(rec.to_json_dict()))
    for name, lag, width in (("u", 1, m), ("v", 0, n)):
        side = data["sides"][name]
        assert len(side["coeffs"]) == len(side["coeffs_se"]) == T
        for t in range(1, T + 1):
            for key in ("coeffs", "coeffs_se"):
                table = np.array(side[key][t - 1]).reshape(t - lag, width)
                assert np.array_equal(table, getattr(rec.side(name), key)[t - 1])


# ---------------------------------------------------------------------------
# sample-constant partials kept as (R,) rows

_M, _N, _T = 9, 6, 3


def _row_partial_program(name):
    rng = np.random.default_rng(71)
    mu0, xi = rng.normal(size=_N), rng.normal(size=_M)
    masks = (rng.random((_T, _M)) < 0.7).astype(float)
    two_sided = {
        "gd_ridge": lambda: build_gd_ridge(squared_loss(), 0.2, 0.3, mu0, xi, None, _T),
        "gd_ridge_masks": lambda: build_gd_ridge(squared_loss(), 0.2, 0.3, mu0, xi,
                                                 masks, _T),
        "gd_ridge_wavy": lambda: build_gd_ridge(wavy_loss(), 0.2, 0.3, mu0, xi,
                                                masks, _T),
        "pgd_ridge": lambda: build_pgd_linear(squared_loss(), prox_ridge(0.4), 0.2,
                                              mu0, xi, _T),
        "pgd_lasso": lambda: build_pgd_linear(squared_loss(), prox_lasso(0.1), 0.2,
                                              mu0, xi, _T),
        "logistic": lambda: build_logistic(prox_ridge(0.4), 0.2, 0.5, mu0, xi, _T),
    }
    if name == "tanh_gfom":
        return build_tanh_iteration(_T, rng.normal(size=_N))
    if name.startswith("sym_"):
        return symmetrize(two_sided[name[4:]](), _M, _N)
    return two_sided[name]()


def _plane_partials(monkeypatch):
    """Make every RowFunction built from here on return each partial as a
    full (..., R) copy: the plane reference that rows must match."""
    real = programs.RowFunction

    def make(*args, **kwargs):
        rf = real(*args, **kwargs)
        dfn = rf.dfn
        rf.dfn = lambda h, rows, which: np.array(
            np.broadcast_to(dfn(h, rows, which), h.shape[:-1]))
        return rf

    monkeypatch.setattr(programs, "RowFunction", make)


@pytest.mark.parametrize("kind", ["constant", "two_block"])
@pytest.mark.parametrize("name", [
    "gd_ridge", "gd_ridge_masks", "gd_ridge_wavy", "pgd_ridge", "pgd_lasso",
    "logistic", "tanh_gfom", "sym_gd_ridge", "sym_pgd_ridge", "sym_logistic"])
def test_forward_row_partials_keep_bytes(monkeypatch, name, kind):
    # the chained partials of rows and of full planes agree bit for bit, in
    # _forward and in the records the engines build from them
    prog = _row_partial_program(name)
    with monkeypatch.context() as mp:
        _plane_partials(mp)
        ref = _row_partial_program(name)
    symmetric = isinstance(prog, SymmetricProgram)
    width = prog.n if symmetric else prog.m
    prof = (constant_profile((width, prog.n)) if kind == "constant"
            else two_block_profile(width, prog.n))
    build = se_symmetric if symmetric else se_asymmetric
    rec, rec_ref = (build(p, prof, mc_samples=400, seed=72) for p in (prog, ref))
    assert json.dumps(rec.to_json_dict()) == json.dumps(rec_ref.to_json_dict())
    rng = np.random.default_rng(73)
    for side in rec.sides:
        tr = rec.side(side).transform
        tr_ref = state_evolution.HistoryTransform(
            rec_ref.side(side).transform.inner_fns,
            rec_ref.side(side).transform.outer_fns, tr.inner_uses_current,
            tr.corr_includes_current, coeffs=tr.coeffs)
        paths = rng.normal(size=(40, rec.side(side).law.coords, len(tr.coeffs) + 1))
        out, inner, dinner = state_evolution._forward(
            tr, paths.copy(), None, inner_upto=len(tr.coeffs), with_partials=True)
        out_ref, inner_ref, dinner_ref = state_evolution._forward(
            tr_ref, paths.copy(), None, inner_upto=len(tr.coeffs), with_partials=True)
        assert np.array(out).tobytes() == np.array(out_ref).tobytes()
        assert inner.keys() == inner_ref.keys() and dinner.keys() == dinner_ref.keys()
        for key in inner:
            assert inner[key].tobytes() == inner_ref[key].tobytes()
        for key in dinner:
            assert dinner_ref[key].shape == paths.shape[:-1]
            assert np.array(np.broadcast_to(dinner[key], paths.shape[:-1])).tobytes() \
                == dinner_ref[key].tobytes()
        if name.startswith("gd_ridge") and name != "gd_ridge_wavy":
            # a quadratic loss keeps every chained partial a row
            assert all(np.ndim(d) == 1 for d in dinner.values())


def _in_place_record(kind):
    if kind == "raw":
        n = 6
        return amp_se_symmetric([tanh_map(t, t - 1) for t in range(1, 4)],
                                constant_profile((n, n)), np.ones(n),
                                mc_samples=200, seed=74)
    if kind == "symmetric":
        return se_symmetric(mixed_symmetric_program(6, 3, seed=75),
                            constant_profile((6, 6)), mc_samples=200, seed=76)
    return se_asymmetric(mixed_asymmetric_program(5, 7, 3, seed=77),
                         two_block_profile(5, 7), mc_samples=200, seed=78)


@pytest.mark.parametrize("kind", ["raw", "symmetric", "asymmetric"])
def test_forward_transforms_its_paths_in_place(kind):
    # _forward overwrites the paths it is handed and returns them, with the
    # bytes apply gives on a copy; apply leaves its input as it was
    rec = _in_place_record(kind)
    rng = np.random.default_rng(79)
    for side in rec.sides:
        tr, law = rec.side(side).transform, rec.side(side).law
        paths = rng.normal(size=(40, law.coords, law.T + 1))
        before = paths.copy()
        ref = tr.apply(paths)
        assert paths.tobytes() == before.tobytes()
        assert (ref.tobytes() == before.tobytes()) == (tr.outer_fns is None)
        for with_partials in (False, True):
            work = before.copy()
            out = state_evolution._forward(tr, work, None, inner_upto=law.T,
                                           with_partials=with_partials)[0]
            assert out is work
            assert out.tobytes() == ref.tobytes()
