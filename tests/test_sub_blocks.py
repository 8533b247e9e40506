"""Sub-blocked Monte Carlo engines: the size of a sub-block changes no output
byte, and memory stays bounded as the coordinate count grows."""

import tracemalloc

import numpy as np
import pytest

import gfomlab.state_evolution as se
from conftest import (mixed_asymmetric_program, mixed_symmetric_program,
                      two_block_profile)
from gfomlab.ensembles import constant_profile
from gfomlab.erm import squared_loss
from gfomlab.programs import build_gd_ridge, build_tanh_iteration

DEFAULT = se._SUB_BLOCK_BYTES
WHOLE = 1 << 40   # every block in one piece, the layout before sub-blocking
TINY = 1          # every block in pieces of _SUB_ALIGN samples
BUDGETS = (WHOLE, DEFAULT, TINY)
MIB = 1 << 20


def _profile(kind, m, n):
    if kind == "constant":
        return constant_profile((m, n))
    return two_block_profile(m, n)


def _under_budgets(monkeypatch, fn):
    out = []
    for budget in BUDGETS:
        monkeypatch.setattr(se, "_SUB_BLOCK_BYTES", budget)
        out.append(fn())
    return out


def test_sub_blocks_tile_a_block_in_aligned_pieces(monkeypatch):
    monkeypatch.setattr(se, "_SUB_BLOCK_BYTES", TINY)
    pieces = se._sub_blocks(3616, 400)
    assert pieces[0] == (0, se._SUB_ALIGN) and pieces[-1] == (3584, 3616)
    assert all(hi - lo == se._SUB_ALIGN for lo, hi in pieces[:-1])
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    monkeypatch.setattr(se, "_SUB_BLOCK_BYTES", DEFAULT)
    # a block that fits the budget stays whole
    assert se._sub_blocks(4096, 1) == [(0, 4096)]
    sizes = {hi - lo for lo, hi in se._sub_blocks(4096, 40)[:-1]}
    assert sizes == {3264}


# mc 9000 = 4096 + 4096 + 808: with the tiny budget every block splits and
# the last one ends in a ragged piece; with the default budget the
# 40-coordinate engines split into ragged pieces too

@pytest.mark.parametrize("fd_check", [False, True])
@pytest.mark.parametrize("kind", ["constant", "two_block"])
def test_se_symmetric_bytes_do_not_depend_on_sub_blocks(monkeypatch, kind, fd_check):
    n = 40
    prog = mixed_symmetric_program(n, 3, seed=40)
    prof = _profile(kind, n, n)
    recs = _under_budgets(monkeypatch, lambda: se.se_symmetric(
        prog, prof, mc_samples=9000, seed=41, fd_check=fd_check).to_json_dict())
    assert recs[0] == recs[1] == recs[2]
    assert (recs[0]["fd_gap"] is not None) == fd_check


@pytest.mark.parametrize("fd_check", [False, True])
@pytest.mark.parametrize("kind", ["constant", "two_block"])
def test_se_asymmetric_bytes_do_not_depend_on_sub_blocks(monkeypatch, kind, fd_check):
    m, n = 48, 40
    prog = mixed_asymmetric_program(m, n, 3, seed=42)
    prof = _profile(kind, m, n)
    recs = _under_budgets(monkeypatch, lambda: se.se_asymmetric(
        prog, prof, mc_samples=9000, seed=43, fd_check=fd_check).to_json_dict())
    assert recs[0] == recs[1] == recs[2]
    assert (recs[0]["fd_gap"] is not None) == fd_check


def test_collapsed_path_bytes_do_not_depend_on_sub_blocks(monkeypatch):
    n = 30
    fns = build_tanh_iteration(3, np.ones(n)).mat_fns
    recs = _under_budgets(monkeypatch, lambda: se.amp_se_symmetric(
        fns, constant_profile((n, n)), np.ones(n), mc_samples=9000,
        seed=44).to_json_dict())
    assert recs[0]["collapsed"] == {"z": True}
    assert recs[0] == recs[1] == recs[2]


@pytest.mark.parametrize("kind", ["constant", "two_block"])
def test_predict_entrywise_bytes_do_not_depend_on_sub_blocks(monkeypatch, kind):
    m, n = 48, 40
    rec = se.se_asymmetric(mixed_asymmetric_program(m, n, 3, seed=45),
                           _profile(kind, m, n), mc_samples=1000, seed=46)
    for side, dim in (("u", m), ("v", n)):
        for t in (1, 3):
            # 20000 paths = one 16384-sample block plus a 3616 remainder
            outs = _under_budgets(monkeypatch, lambda: se.predict_entrywise(
                rec, np.arange(dim), np.tanh, side=side, t=t, n_paths=20000,
                seed=47))
            for means, ses in outs[1:]:
                assert np.array_equal(means, outs[0][0])
                assert np.array_equal(ses, outs[0][1])


# ---------------------------------------------------------------------------
# memory bounds; numpy reports its buffers to tracemalloc.  Drawn as whole
# blocks, these two calls peaked at 1050 MiB and 476 MiB.

def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_entrywise_memory_is_bounded():
    n = 400
    z0 = np.random.default_rng(48).normal(size=n)
    rec = se.se_symmetric(build_tanh_iteration(3, z0), constant_profile((n, n)),
                          mc_samples=500, seed=49)
    assert not rec.collapsed["z"]
    # the per-block psi buffer alone is 16384 x 400 floats (52 MB)
    peak = _peak_bytes(lambda: se.predict_entrywise(
        rec, np.arange(n), np.square, t=3, n_paths=20000, seed=50))
    assert peak < 100 * MIB, f"peak {peak / MIB:.0f} MiB"


def test_two_sided_engine_memory_is_bounded():
    m, n = 400, 200
    rng = np.random.default_rng(51)
    prog = build_gd_ridge(squared_loss(), 0.2, 0.1, rng.normal(size=n),
                          rng.normal(size=m), None, 3)
    peak = _peak_bytes(lambda: se.se_asymmetric(
        prog, constant_profile((m, n)), mc_samples=4096, seed=52,
        normalization="inv_sqrt_n"))
    assert peak < 32 * MIB, f"peak {peak / MIB:.0f} MiB"
