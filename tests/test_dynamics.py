"""Iteration engines: plain, corrected, and leave-k-out runs."""

import numpy as np
import pytest

from conftest import mixed_symmetric_program
from gfomlab.dynamics import (
    run_amp_asymmetric,
    run_amp_symmetric,
    run_asymmetric,
    run_leave_k_out,
    run_symmetric,
)
from gfomlab.ensembles import (
    EnsembleSpec,
    constant_profile,
    gaussian_law,
    sample_symmetric,
)
from gfomlab.erm import prox_ridge, squared_loss
from gfomlab.errors import ConfigError, DivergenceError
from gfomlab.programs import (
    AsymmetricProgram,
    SymmetricProgram,
    affine_combination,
    build_pgd_linear,
    build_power_iteration,
    build_tanh_iteration,
    constant_rows,
    pick_iterate,
    zero_row_function,
)


def _wigner(n, seed):
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        symmetric=True)
    return sample_symmetric(spec, n, seed=seed)


# ---------------------------------------------------------------------------
# plain symmetric runs

def test_zero_matrix_reduces_to_additive_recursion():
    # z_t = 0.5 * z_{t-1} + 1 once the matrix term is gone
    T = 3
    prog = SymmetricProgram(
        T=T,
        mat_fns=[pick_iterate(t, t - 1) for t in range(1, T + 1)],
        add_fns=[affine_combination(t, [0.0] * (t - 1) + [0.5], intercept=1.0)
                 for t in range(1, T + 1)],
        z0=np.ones(2),
    )
    traj = run_symmetric(np.zeros((2, 2)), prog)
    assert np.array_equal(traj.z[1], [1.5, 1.5])
    assert np.array_equal(traj.z[2], [1.75, 1.75])
    assert np.array_equal(traj.z[3], [1.875, 1.875])


def test_zero_matrix_zero_additive_gives_zero():
    prog = build_tanh_iteration(3, np.array([0.7, -0.2]))
    traj = run_symmetric(np.zeros((2, 2)), prog)
    for t in range(1, 4):
        assert np.all(traj.z[t] == 0.0)


def test_permutation_matrix_cycles_coordinates():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    traj = run_symmetric(a, build_power_iteration(2, np.array([1.0, 0.0])))
    assert np.array_equal(traj.z[1], [0.0, 1.0])
    assert np.array_equal(traj.z[2], [1.0, 0.0])


def test_tanh_iteration_matches_inline_oracle():
    n, T = 4, 4
    a = _wigner(n, seed=3)
    z0 = np.array([0.4, -1.0, 0.2, 0.9])
    traj = run_symmetric(a, build_tanh_iteration(T, z0))
    z = z0.copy()
    for t in range(1, T + 1):
        z = a @ np.tanh(z)
        assert np.max(np.abs(traj.z[t] - z)) <= 1e-14


def test_dimension_mismatch_rejected():
    prog = build_power_iteration(1, np.ones(3))
    with pytest.raises(ConfigError):
        run_symmetric(np.eye(4), prog)


def test_divergence_reports_step():
    T = 5
    prog = SymmetricProgram(
        T=T,
        mat_fns=[affine_combination(t, [0.0] * (t - 1) + [100.0])
                 for t in range(1, T + 1)],
        add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        z0=np.full(2, 1e3),
    )
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(DivergenceError) as err:
        run_symmetric(a, prog)
    assert err.value.step == 4
    assert err.value.track == "z"


# ---------------------------------------------------------------------------
# plain asymmetric runs

def test_zero_matrix_decouples_u_track():
    m, n, T = 3, 2, 2
    prog = AsymmetricProgram(
        T=T,
        u_mat_fns=[pick_iterate(t, t - 1) for t in range(1, T + 1)],
        u_add_fns=[affine_combination(t, [0.0] * (t - 1) + [2.0])
                   for t in range(1, T + 1)],
        v_mat_fns=[zero_row_function(t + 1) for t in range(1, T + 1)],
        v_add_fns=[zero_row_function(t) for t in range(1, T + 1)],
        u0=np.array([1.0, -2.0, 0.5]),
        v0=np.ones(n),
    )
    traj = run_asymmetric(np.zeros((m, n)), prog)
    assert np.array_equal(traj.u[1], [2.0, -4.0, 1.0])
    assert np.array_equal(traj.u[2], [4.0, -8.0, 2.0])
    assert np.all(traj.v[1] == 0.0) and np.all(traj.v[2] == 0.0)


def test_one_by_one_linear_maps_hand_values():
    prog = AsymmetricProgram(
        T=1,
        u_mat_fns=[affine_combination(1, [2.0], intercept=1.0)],
        u_add_fns=[affine_combination(1, [3.0])],
        v_mat_fns=[affine_combination(2, [1.0, 1.0])],
        v_add_fns=[affine_combination(1, [-1.0])],
        u0=np.array([2.0]),
        v0=np.array([3.0]),
    )
    traj = run_asymmetric(np.array([[0.5]]), prog)
    assert traj.u[1][0] == 9.5       # 0.5*(2*3+1) + 3*2
    assert traj.v[1][0] == 2.75      # 0.5*(2+9.5) - 3


def test_pgd_ridge_program_one_step_closed_form():
    m, n = 6, 4
    rng = np.random.default_rng(11)
    a = rng.normal(size=(m, n)) / np.sqrt(m)
    mu0, xi = rng.normal(size=n), rng.normal(size=m)
    eta, lam = 0.3, 0.8
    prog = build_pgd_linear(squared_loss(), prox_ridge(lam), eta, mu0, xi, T=1)
    traj = run_asymmetric(a, prog)
    mu1 = prog.meta["mu_from_v"](traj.v[1])
    assert np.max(np.abs(mu1 - eta * a.T @ (a @ mu0 + xi) / (1 + eta * lam))) <= 1e-12


# ---------------------------------------------------------------------------
# leave-k-out

def test_leave_empty_set_bit_matches():
    n = 12
    a = _wigner(n, seed=5)
    prog = mixed_symmetric_program(n, 3, seed=6)
    base = run_symmetric(a, prog)
    loo = run_leave_k_out(a, prog, drop_set=[])
    assert np.array_equal(base.z, loo.z)


def test_leave_everything_out_equals_zero_matrix():
    n = 6
    a = _wigner(n, seed=7)
    prog = mixed_symmetric_program(n, 3, seed=8)
    loo = run_leave_k_out(a, prog, drop_set=list(range(n)))
    zero = run_symmetric(np.zeros((n, n)), prog)
    assert np.array_equal(loo.z, zero.z)


def test_leave_one_out_perturbation_is_small():
    n, T = 1000, 3
    worst = 0.0
    for seed in range(20):
        a = _wigner(n, seed=40 + seed)
        prog = build_tanh_iteration(T, np.ones(n))
        base = run_symmetric(a, prog)
        loo = run_leave_k_out(a, prog, drop_set=[0])
        gap = np.linalg.norm(base.z[T] - loo.z[T]) / np.sqrt(n)
        worst = max(worst, gap)
    assert worst <= 0.2


# ---------------------------------------------------------------------------
# corrected (memory-term) iterations

def test_first_corrected_step_has_no_memory_term():
    n = 5
    a = _wigner(n, seed=9)
    z0 = np.random.default_rng(10).normal(size=n)
    traj = run_amp_symmetric(a, [pick_iterate(1, 0)], [np.zeros((0, n))], z0)
    assert np.allclose(traj.z[1], a @ z0, atol=1e-15)


def test_zero_corrections_bit_match_plain_run():
    n, T = 8, 3
    a = _wigner(n, seed=11)
    z0 = np.random.default_rng(12).normal(size=n)
    fns = [pick_iterate(t, t - 1) for t in range(1, T + 1)]
    ons = [np.zeros((t - 1, n)) for t in range(1, T + 1)]
    amp = run_amp_symmetric(a, fns, ons, z0)
    plain = run_symmetric(a, build_power_iteration(T, z0))
    assert np.array_equal(amp.z, plain.z)


def test_two_step_correction_hand_values():
    # identity updates: second iterate is A^2 z0 - c * z0
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    z0 = np.array([1.0, -1.0, 2.0])
    c = np.array([0.3, -0.2, 0.1])
    fns = [pick_iterate(1, 0), pick_iterate(2, 1)]
    ons = [np.zeros((0, 3)), c[None, :]]
    traj = run_amp_symmetric(a, fns, ons, z0)
    assert np.allclose(traj.z[2], a @ a @ z0 - c * z0, atol=1e-14)


def test_missing_correction_table_rejected():
    n = 4
    a = _wigner(n, seed=13)
    fns = [pick_iterate(1, 0), pick_iterate(2, 1)]
    with pytest.raises(ConfigError):
        run_amp_symmetric(a, fns, [np.zeros((0, n))], np.ones(n))
    with pytest.raises(ConfigError):
        run_amp_symmetric(a, fns, [np.zeros((0, n)), np.zeros((2, n))], np.ones(n))


def test_two_sided_first_step_no_memory():
    m, n = 4, 3
    rng = np.random.default_rng(14)
    a = rng.normal(size=(m, n))
    u0, v0 = rng.normal(size=m), rng.normal(size=n)
    traj = run_amp_asymmetric(
        a,
        [pick_iterate(1, 0)],
        [pick_iterate(2, 1)],
        [np.zeros((0, m))],
        [np.zeros((1, n))],
        u0, v0,
    )
    assert np.allclose(traj.u[1], a @ v0, atol=1e-15)
    assert np.allclose(traj.v[1], a.T @ (a @ v0), atol=1e-14)


def test_two_sided_zero_corrections_two_step_hand_values():
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    u0 = np.array([0.0, 0.0])
    v0 = np.array([1.0, -1.0])
    T = 2
    u_fns = [pick_iterate(t, t - 1) for t in range(1, T + 1)]
    v_fns = [pick_iterate(t + 1, t) for t in range(1, T + 1)]
    u_ons = [np.zeros((t - 1, 2)) for t in range(1, T + 1)]
    v_ons = [np.zeros((t, 2)) for t in range(1, T + 1)]
    traj = run_amp_asymmetric(a, u_fns, v_fns, u_ons, v_ons, u0, v0)
    assert np.array_equal(traj.u[1], [-1.0, 4.0])
    assert np.array_equal(traj.v[1], [11.0, -6.0])
    assert np.array_equal(traj.u[2], [-1.0, 39.0])
    assert np.array_equal(traj.v[2], [116.0, -41.0])


def test_two_sided_zero_matrix_pure_memory_dynamics():
    m = n = 2
    T = 2
    u_fns = [pick_iterate(t, t - 1) for t in range(1, T + 1)]
    v_fns = [constant_rows(np.ones(m), t + 1) for t in range(1, T + 1)]
    u_ons = [np.full((t - 1, m), 0.5) for t in range(1, T + 1)]
    v_ons = [np.full((t, n), 0.5) for t in range(1, T + 1)]
    v0 = np.array([2.0, -4.0])
    traj = run_amp_asymmetric(np.zeros((m, n)), u_fns, v_fns, u_ons, v_ons,
                              np.zeros(m), v0)
    assert np.array_equal(traj.v[1], -0.5 * v0)
    assert np.array_equal(traj.u[2], [-0.5, -0.5])
    assert np.allclose(traj.v[2], -0.5 * (v0 - 0.5 * v0), atol=1e-15)


# ---------------------------------------------------------------------------
# structural properties

def test_permutation_equivariance():
    n = 5
    a = _wigner(n, seed=15)
    prog = mixed_symmetric_program(n, 3, seed=16)
    perm = np.array([3, 0, 4, 1, 2])
    base = run_symmetric(a, prog)
    prog_p = SymmetricProgram(T=prog.T, mat_fns=prog.mat_fns,
                              add_fns=prog.add_fns, z0=prog.z0[perm])
    permuted = run_symmetric(a[np.ix_(perm, perm)], prog_p)
    for t in range(4):
        assert np.allclose(permuted.z[t], base.z[t][perm], atol=1e-12)
