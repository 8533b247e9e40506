"""Shared randomized-instance builders used by several test modules."""

import numpy as np

from gfomlab.ensembles import VarianceProfile
from gfomlab.programs import (
    AsymmetricProgram,
    SymmetricProgram,
    affine_combination,
    tanh_map,
)


def mixed_symmetric_program(n, T, seed):
    """Random program alternating tanh and affine rows, with memory terms."""
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=n)
    mat_fns, add_fns = [], []
    for t in range(1, T + 1):
        if t % 2 == 1:
            mat_fns.append(tanh_map(t, t - 1))
        else:
            mat_fns.append(affine_combination(t, rng.normal(size=t) / t, intercept=0.1))
        add_fns.append(affine_combination(t, rng.normal(size=t) * 0.2))
    return SymmetricProgram(T=T, mat_fns=mat_fns, add_fns=add_fns, z0=z0)


def mixed_asymmetric_program(m, n, T, seed):
    """Random two-sided program; the v-side matrix map reads the current u."""
    rng = np.random.default_rng(seed)
    u0 = rng.normal(size=m)
    v0 = rng.normal(size=n)
    u_mat, u_add, v_mat, v_add = [], [], [], []
    for t in range(1, T + 1):
        if t % 2 == 1:
            u_mat.append(tanh_map(t, t - 1))
            v_mat.append(affine_combination(t + 1, rng.normal(size=t + 1) / (t + 1)))
        else:
            u_mat.append(affine_combination(t, rng.normal(size=t) / t, intercept=-0.1))
            v_mat.append(tanh_map(t + 1, t))
        u_add.append(affine_combination(t, rng.normal(size=t) * 0.2))
        v_add.append(affine_combination(t, rng.normal(size=t) * 0.2))
    return AsymmetricProgram(T=T, u_mat_fns=u_mat, u_add_fns=u_add,
                             v_mat_fns=v_mat, v_add_fns=v_add, u0=u0, v0=v0)


def two_block_profile(m, n):
    """Two-block variance profile, symmetric when m == n; being
    heterogeneous, it takes the per-coordinate paths of the engines."""
    v = np.ones((m, n))
    v[: m // 2, : n // 2] = 3.0
    v[m // 2 :, n // 2 :] = 0.5
    return VarianceProfile(v)
