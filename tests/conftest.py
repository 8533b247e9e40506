"""Shared randomized-instance builders and fixtures used by several test
modules."""

import numpy as np
import pytest

from gfomlab import ensembles
from gfomlab.ensembles import VarianceProfile
from gfomlab.erm import Loss
from gfomlab.errors import ConfigError
from gfomlab.programs import (
    AsymmetricProgram,
    RowFunction,
    SymmetricProgram,
    tanh_map,
)
from gfomlab.state_evolution import fixed_order_sum


def affine_combination(arity, weights, intercept=0.0):
    """sum_j weights[j] * h_j + intercept, summed by ``fixed_order_sum``:
    the memory terms of the random test programs.  No builder of the package
    mixes more than one history column."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (arity,):
        raise ConfigError("weights must have one entry per history column")

    def fn(h, rows):
        out = fixed_order_sum([h[..., j] for j in range(arity)], weights,
                              np.empty(h.shape[:-1]))
        return out + float(intercept)

    return RowFunction(
        arity=arity,
        fn=fn,
        dfn=lambda h, rows, which: np.full(h.shape[-2:-1], weights[which]),
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


def wavy_loss():
    """Non-constant curvature, still strongly convex: takes the Monte Carlo
    route of the gradient-descent limit law."""
    return Loss(
        value=lambda x: 0.5 * np.square(x) + 0.1 * np.cos(x),
        d1=lambda x: np.asarray(x, float) - 0.1 * np.sin(x),
        d2=lambda x: 1.0 - 0.1 * np.cos(np.asarray(x, float)),
        quadratic=False,
    )


def counting_generator(drawn):
    """A stand-in for numpy's Generator class whose instances add the count
    of every normal they draw to drawn[0]."""

    class CountingGenerator:
        def __init__(self, bit_generator):
            self.gen = np.random.Generator(bit_generator)

        def standard_normal(self, size=None, dtype=np.float64, out=None):
            got = self.gen.standard_normal(size, dtype=dtype, out=out)
            drawn[0] += got.size
            return got

    return CountingGenerator


@pytest.fixture
def strip_threads(monkeypatch):
    """``strip_threads(k)`` runs the strip pool (``ensembles._strip_pool``)
    on k threads, the caller and k - 1 helpers, whatever the machine's CPU
    count: the samplers draw their strips there, and the limit laws draw
    their normals ahead on one helper."""
    pools = []

    def force(k):
        monkeypatch.setattr(ensembles, "_cpus", lambda: k)
        monkeypatch.setattr(ensembles, "_pool", None)
        pools.append(ensembles._strip_pool()[0])

    yield force
    for pool in pools:
        if pool is not None:
            pool.shutdown()
