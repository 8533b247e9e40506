"""Row functions, named program builders, and the two-sided embedding."""

import math

import numpy as np
import pytest

from conftest import (affine_combination, mixed_asymmetric_program,
                      mixed_symmetric_program, wavy_loss)
from gfomlab.dynamics import run_asymmetric, run_symmetric
from gfomlab.ensembles import (
    EnsembleSpec,
    constant_profile,
    gaussian_law,
    sample_asymmetric,
    sample_symmetric,
)
from gfomlab.erm import (
    logistic_dloss_x,
    prox_lasso,
    prox_ridge,
    prox_zero,
    squared_loss,
)
from gfomlab.errors import ConfigError
from gfomlab.programs import (
    AsymmetricProgram,
    RowFunction,
    SymmetricProgram,
    build_gd_ridge,
    build_logistic,
    build_pgd_linear,
    build_power_iteration,
    check_partials,
    constant_rows,
    embed_matrix,
    extract_embedded_tracks,
    pick_iterate,
    symmetrize,
    tanh_map,
    validate_program,
    zero_row_function,
)


def _asym_matrix(m, n, seed):
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)
    return sample_asymmetric(spec, m, n, seed=seed)


# ---------------------------------------------------------------------------
# power iteration

def test_power_iteration_identity_matrix_fixes_basis_vector():
    prog = build_power_iteration(1, z0=np.array([1.0, 0.0, 0.0]))
    traj = run_symmetric(np.eye(3), prog)
    assert np.array_equal(traj.z[1], [1.0, 0.0, 0.0])


def test_power_iteration_two_steps_is_squared_matrix():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2.0
    z0 = rng.normal(size=6)
    traj = run_symmetric(a, build_power_iteration(2, z0))
    assert np.allclose(traj.z[2], a @ a @ z0, atol=1e-13)


def test_power_iteration_three_steps_scaled_swap():
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    traj = run_symmetric(a, build_power_iteration(3, np.array([1.0, 0.0])))
    assert np.allclose(traj.z[3], [0.0, 2.0 ** -1.5], atol=1e-15)


# ---------------------------------------------------------------------------
# proximal gradient programs

def test_pgd_program_one_step_no_regularizer():
    m, n = 7, 5
    a = _asym_matrix(m, n, seed=1)
    rng = np.random.default_rng(2)
    mu0, xi = rng.normal(size=n), rng.normal(size=m)
    y = a @ mu0 + xi
    eta = 0.3
    prog = build_pgd_linear(squared_loss(), prox_zero(), eta, mu0, xi, T=1)
    traj = run_asymmetric(a, prog)
    mu1 = prog.meta["mu_from_v"](traj.v[1])
    assert np.allclose(mu1, eta * a.T @ y, atol=1e-13)


def test_pgd_program_one_step_ridge_shrinks():
    m, n = 6, 4
    a = _asym_matrix(m, n, seed=3)
    rng = np.random.default_rng(4)
    mu0, xi = rng.normal(size=n), rng.normal(size=m)
    eta, lam = 0.25, 0.7
    prog = build_pgd_linear(squared_loss(), prox_ridge(lam), eta, mu0, xi, T=1)
    traj = run_asymmetric(a, prog)
    mu1 = prog.meta["mu_from_v"](traj.v[1])
    assert np.allclose(mu1, eta * a.T @ (a @ mu0 + xi) / (1.0 + eta * lam), atol=1e-13)


def test_pgd_program_lasso_zero_matrix_stays_zero():
    m, n = 5, 5
    rng = np.random.default_rng(5)
    prog = build_pgd_linear(squared_loss(), prox_lasso(0.4), 0.5,
                            rng.normal(size=n), rng.normal(size=m), T=3)
    traj = run_asymmetric(np.zeros((m, n)), prog)
    for t in range(1, 4):
        assert np.all(prog.meta["mu_from_v"](traj.v[t]) == 0.0)


# ---------------------------------------------------------------------------
# (stochastic) gradient descent program

def test_gd_program_one_full_sample_step():
    m, n = 8, 5
    a = _asym_matrix(m, n, seed=6)
    rng = np.random.default_rng(7)
    mu0, xi = rng.normal(size=n), rng.normal(size=m)
    eta = 0.2
    masks = np.ones((1, m))
    prog = build_gd_ridge(squared_loss(), eta, 0.0, mu0, xi, masks, T=1)
    traj = run_asymmetric(a, prog)
    mu1 = prog.meta["mu_from_v"](traj.v[1])
    assert np.allclose(mu1, eta * a.T @ (a @ mu0 + xi), atol=1e-13)


def test_gd_program_zero_mask_freezes_iterate():
    m, n = 6, 4
    a = _asym_matrix(m, n, seed=8)
    rng = np.random.default_rng(9)
    prog = build_gd_ridge(squared_loss(), 0.3, 0.0, rng.normal(size=n),
                          rng.normal(size=m), np.zeros((3, m)), T=3)
    traj = run_asymmetric(a, prog)
    for t in range(1, 4):
        assert np.allclose(traj.v[t], traj.v[t - 1], atol=1e-15)


def test_gd_program_zero_data_fixed_point():
    m, n = 5, 3
    prog = build_gd_ridge(squared_loss(), 0.4, 1.5, np.zeros(n), np.zeros(m),
                          np.ones((2, m)), T=2)
    traj = run_asymmetric(np.zeros((m, n)), prog)
    for t in range(3):
        assert np.all(prog.meta["mu_from_v"](traj.v[t]) == 0.0)


# ---------------------------------------------------------------------------
# logistic gradient pieces

def test_logistic_margin_derivative_sign_convention():
    # score 0, positive noisy margin: derivative is -rho'(0) = -1/2
    assert logistic_dloss_x(0.0, 0.0, 1.3, 0.0) == pytest.approx(-0.5)
    assert logistic_dloss_x(0.0, 0.0, -1.3, 0.0) == pytest.approx(0.5)
    assert logistic_dloss_x(0.0, 2.0, -1.3, 0.0) == pytest.approx(-0.5)


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
def test_logistic_margin_derivative_bounded(sigma):
    rng = np.random.default_rng(10)
    x = rng.normal(scale=3.0, size=10_000)
    y = rng.normal(scale=3.0, size=10_000)
    xi = rng.normal(scale=3.0, size=10_000)
    d = logistic_dloss_x(x, y, xi, sigma)
    assert np.all(np.abs(d) <= 1.0)


def test_logistic_program_validates_partials():
    rng = np.random.default_rng(11)
    prog = build_logistic(prox_ridge(0.5), 0.2, 0.3, rng.normal(size=4),
                          rng.normal(size=6), T=3)
    validate_program(prog, seed=0, probes=60)


@pytest.mark.parametrize("name,value", [
    ("eta", math.nan), ("eta", -1.0), ("eta", math.inf),
    ("sigma", math.nan), ("sigma", math.inf), ("clamp", math.nan),
    ("clamp", 0.0)])
def test_logistic_program_rejects_bad_rates(name, value):
    # a negative rate used to surface only at the prox's first step, a
    # non-finite rate or width, or a NaN clamp, not at all
    args = {"eta": 0.2, "sigma": 0.3, "clamp": None, name: value}
    with pytest.raises(ConfigError, match=name):
        build_logistic(prox_ridge(0.5), args["eta"], args["sigma"], np.ones(4),
                       np.ones(6), T=2, clamp=args["clamp"])


def test_logistic_program_accepts_zero_rate_and_width():
    prog = build_logistic(prox_ridge(0.5), 0.0, 0.0, np.ones(4), np.ones(6), T=2)
    assert prog.T == 2


@pytest.mark.parametrize("missing", ["u", "v"])
def test_asymmetric_program_refuses_additive_functions_on_one_side(missing):
    # every side has additive functions or none has: with v's alone the
    # executor failed on u's missing list and the limit law dropped v's
    prog = mixed_asymmetric_program(5, 4, 2, seed=40)
    add = {"u_add_fns": prog.u_add_fns, "v_add_fns": prog.v_add_fns,
           f"{missing}_add_fns": None}
    with pytest.raises(ConfigError, match="every side"):
        AsymmetricProgram(T=2, u_mat_fns=prog.u_mat_fns, v_mat_fns=prog.v_mat_fns,
                          u0=prog.u0, v0=prog.v0, **add)


# ---------------------------------------------------------------------------
# row function contracts

def test_affine_combination_rejects_wrong_width():
    with pytest.raises(ConfigError):
        affine_combination(3, [1.0, 2.0])


@pytest.mark.parametrize("arity", range(1, 11))
def test_affine_combination_bytes_do_not_depend_on_layout(arity):
    # the limit-law engines hand row functions column planes, the executors
    # a transposed (width, t) history; fixed_order_sum, which also mixes the
    # engines' paths, gives one result whatever the layout
    rng = np.random.default_rng(70 + arity)
    rf = affine_combination(arity, rng.normal(size=arity), intercept=0.1)
    hist = rng.normal(size=(6, 30, arity))
    planes = np.moveaxis(np.ascontiguousarray(np.moveaxis(hist, -1, 0)), 0, -1)
    assert rf(planes).tobytes() == rf(hist).tobytes()
    transposed = np.ascontiguousarray(hist[0].T).T
    assert rf(transposed).tobytes() == rf(hist[0]).tobytes()


def test_row_function_partial_matches_finite_differences():
    rng = np.random.default_rng(12)
    for rf in [tanh_map(3, 1), pick_iterate(2, 0),
               affine_combination(4, [0.3, -0.2, 0.1, 0.5], intercept=1.0),
               zero_row_function(2), constant_rows(rng.normal(size=5), 3)]:
        assert check_partials(rf, rng, probes=100, rows_count=5) <= 0.0


def test_bad_partial_is_caught():
    bad = RowFunction(
        arity=1,
        fn=lambda h, rows: h[..., 0] ** 2,
        dfn=lambda h, rows, which: np.full(h.shape[:-1], 3.14),
        row_constant=True,
    )
    prog = SymmetricProgram(T=1, mat_fns=[bad], add_fns=[zero_row_function(1)],
                            z0=np.zeros(3))
    with pytest.raises(ConfigError):
        validate_program(prog)


def test_partials_of_any_broadcastable_shape_pass_validation():
    # a partial that does not vary over the samples may be 0-d or an (R,)
    # row; the checks broadcast it over the samples before reading one
    slopes = np.array([0.5, -1.0, 2.0])
    scalar = RowFunction(
        arity=2,
        fn=lambda h, rows: 2.0 * h[..., 0] - h[..., 1],
        dfn=lambda h, rows, which: np.array(2.0 if which == 0 else -1.0),
    )
    per_row = RowFunction(
        arity=1,
        fn=lambda h, rows: slopes[rows] * h[..., 0],
        dfn=lambda h, rows, which: slopes[rows],
        row_constant=False,
    )
    assert scalar.partial(0, [0.3, 0.7], 1) == -1.0
    assert per_row.partial(2, [0.3], 0) == 2.0
    prog = SymmetricProgram(T=2, mat_fns=[per_row, scalar],
                            add_fns=[zero_row_function(1), zero_row_function(2)],
                            z0=np.zeros(3))
    validate_program(prog, probes=20)
    off = RowFunction(arity=1, fn=lambda h, rows: 3.0 * h[..., 0],
                      dfn=lambda h, rows, which: np.array(3.1))
    with pytest.raises(ConfigError):
        validate_program(SymmetricProgram(T=1, mat_fns=[off],
                                          add_fns=[zero_row_function(1)],
                                          z0=np.zeros(3)))


# ---------------------------------------------------------------------------
# asymmetric -> symmetric embedding

def test_embedding_single_step_matrix_map():
    m, n = 4, 3
    a = _asym_matrix(m, n, seed=13)
    v0 = np.random.default_rng(14).normal(size=n)
    prog = mixed_asymmetric_program(m, n, 1, seed=15)
    prog.u0[:] = 0.0
    prog.v0[:] = v0
    # replace the u-side matrix map with the identity on v0
    prog.u_mat_fns[0] = pick_iterate(1, 0)
    prog.u_add_fns[0] = zero_row_function(1)
    direct = run_asymmetric(a, prog)
    sym = symmetrize(prog, m, n)
    emb = run_symmetric(embed_matrix(a), sym)
    u, v = extract_embedded_tracks(emb.z, m, n, 1)
    assert np.allclose(direct.u[1], a @ v0, atol=1e-14)
    assert np.allclose(u[1], direct.u[1], atol=1e-14)
    assert np.allclose(v[1], direct.v[1], atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_embedding_reproduces_tracks_small(seed):
    m = n = 3
    a = _asym_matrix(m, n, seed=seed)
    prog = mixed_asymmetric_program(m, n, 2, seed=100 + seed)
    direct = run_asymmetric(a, prog)
    emb = run_symmetric(embed_matrix(a), symmetrize(prog, m, n))
    u, v = extract_embedded_tracks(emb.z, m, n, 2)
    for t in range(3):
        assert np.max(np.abs(u[t] - direct.u[t])) <= 1e-12
        assert np.max(np.abs(v[t] - direct.v[t])) <= 1e-12


def test_embedding_zero_init_vanishing_maps():
    m, n, T = 4, 5, 3
    a = _asym_matrix(m, n, seed=16)
    u_mat = [tanh_map(t, t - 1) for t in range(1, T + 1)]
    u_add = [zero_row_function(t) for t in range(1, T + 1)]
    v_mat = [tanh_map(t + 1, t) for t in range(1, T + 1)]
    v_add = [zero_row_function(t) for t in range(1, T + 1)]
    prog = AsymmetricProgram(
        T=T, u_mat_fns=u_mat, u_add_fns=u_add, v_mat_fns=v_mat, v_add_fns=v_add,
        u0=np.zeros(m), v0=np.zeros(n))
    direct = run_asymmetric(a, prog)
    emb = run_symmetric(embed_matrix(a), symmetrize(prog, m, n))
    u, v = extract_embedded_tracks(emb.z, m, n, T)
    for t in range(T + 1):
        assert np.all(direct.u[t] == 0.0) and np.all(direct.v[t] == 0.0)
        assert np.all(u[t] == 0.0) and np.all(v[t] == 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_embedding_exactness_mixed_programs(seed):
    m, n, T = 6, 5, 4
    a = _asym_matrix(m, n, seed=20 + seed)
    prog = mixed_asymmetric_program(m, n, T, seed=200 + seed)
    direct = run_asymmetric(a, prog)
    emb = run_symmetric(embed_matrix(a), symmetrize(prog, m, n))
    u, v = extract_embedded_tracks(emb.z, m, n, T)
    for t in range(T + 1):
        scale = max(1.0, np.max(np.abs(direct.u[t])), np.max(np.abs(direct.v[t])))
        assert np.max(np.abs(u[t] - direct.u[t])) <= 1e-12 * scale
        assert np.max(np.abs(v[t] - direct.v[t])) <= 1e-12 * scale


def test_embedding_off_track_blocks_stay_zero():
    m, n, T = 4, 3, 2
    a = _asym_matrix(m, n, seed=30)
    prog = mixed_asymmetric_program(m, n, T, seed=31)
    emb = run_symmetric(embed_matrix(a), symmetrize(prog, m, n))
    # even steps carry (u, 0), odd steps carry (0, v)
    for t in range(1, T + 1):
        assert np.all(emb.z[2 * t][m:] == 0.0)
        assert np.all(emb.z[2 * t + 1][:m] == 0.0)


def test_embedding_dimension_mismatch_rejected():
    prog = mixed_asymmetric_program(4, 3, 2, seed=40)
    with pytest.raises(ConfigError):
        symmetrize(prog, 5, 3)


# ---------------------------------------------------------------------------
# equivalence with the directly coded proximal gradient loop

def test_pgd_program_matches_direct_solver_route():
    from gfomlab.erm import ErmProblem, pgd_linear

    m, n, T = 40, 50, 4
    a = _asym_matrix(m, n, seed=41)
    rng = np.random.default_rng(42)
    mu0, xi = rng.normal(size=n), rng.normal(size=m)
    eta, lam = 0.15, 0.6
    prox = prox_ridge(lam)
    prog = build_pgd_linear(squared_loss(), prox, eta, mu0, xi, T=T)
    traj = run_asymmetric(a, prog)
    problem = ErmProblem(a=a, prox=prox, eta=eta, loss=squared_loss(),
                         mu0=mu0, xi=xi)
    mus = pgd_linear(problem, T)
    for t in range(T + 1):
        got = prog.meta["mu_from_v"](traj.v[t])
        assert np.max(np.abs(got - mus[t])) <= 1e-12 * max(1.0, np.max(np.abs(mus[t])))


def test_named_builders_pass_partial_validation():
    rng = np.random.default_rng(43)
    mu0, xi = rng.normal(size=5), rng.normal(size=7)
    masks = (rng.random((3, 7)) < 0.7).astype(float)
    two_sided = [
        build_pgd_linear(squared_loss(), prox_ridge(0.4), 0.2, mu0, xi, T=3),
        build_gd_ridge(squared_loss(), 0.2, 0.3, mu0, xi, masks, T=3),
        build_logistic(prox_ridge(0.4), 0.2, 0.5, mu0, xi, T=3),
    ]
    progs = two_sided + [symmetrize(prog, 7, 5) for prog in two_sided] + [
        build_power_iteration(3, rng.normal(size=6)),
        build_gd_ridge(wavy_loss(), 0.2, 0.3, mu0, xi, masks, T=3),
        mixed_symmetric_program(5, 4, seed=44),
        mixed_asymmetric_program(7, 5, 4, seed=45),
    ]
    for prog in progs:
        validate_program(prog, seed=1, probes=60)
