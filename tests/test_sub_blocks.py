"""Sub-blocked Monte Carlo engines: the size of a sub-block changes no output
byte, and memory stays bounded as the coordinate count grows."""

import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

import gfomlab.state_evolution as se
from conftest import (mixed_asymmetric_program, mixed_symmetric_program,
                      two_block_profile, wavy_loss)
from gfomlab.ensembles import constant_profile
from gfomlab.erm import squared_loss
from gfomlab.gd_se import g_coefficient_nested_sum, gd_se
from gfomlab.programs import build_gd_ridge, build_tanh_iteration, tanh_map

DEFAULT = se._SUB_BLOCK_BYTES
WHOLE = 1 << 40   # every block in one piece, the layout before sub-blocking
TINY = 1          # every block in pieces of 8 samples
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
    assert pieces[0] == (0, 8) and pieces[-1] == (3608, 3616)
    assert all(hi - lo == 8 for lo, hi in pieces)
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    monkeypatch.setattr(se, "_SUB_BLOCK_BYTES", DEFAULT)
    # a block that fits the budget stays whole
    assert se._sub_blocks(4096, 1) == [(0, 4096)]
    sizes = {hi - lo for lo, hi in se._sub_blocks(4096, 40)[:-1]}
    assert sizes == {3264}
    # wide paths: multiples of _SUB_ALIGN while one fits, else of 8 (16
    # samples of 8000 values fill the budget)
    assert {hi - lo for lo, hi in se._sub_blocks(4096, 1600)} == {64}
    assert {hi - lo for lo, hi in se._sub_blocks(4096, 8000)} == {16}


def _assert_law_ignores_probe(probed, plain):
    # the finite-difference probe runs its own pass: every array but fd_gap
    # equals the record built without it
    assert probed["fd_gap"] is not None and plain["fd_gap"] is None
    assert {**probed, "fd_gap": None} == plain


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
    if fd_check:
        _assert_law_ignores_probe(recs[0], se.se_symmetric(
            prog, prof, mc_samples=9000, seed=41).to_json_dict())


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
    if fd_check:
        _assert_law_ignores_probe(recs[0], se.se_asymmetric(
            prog, prof, mc_samples=9000, seed=43).to_json_dict())


def test_collapsed_path_bytes_do_not_depend_on_sub_blocks(monkeypatch):
    n = 30
    fns = build_tanh_iteration(3, np.ones(n)).mat_fns
    recs = _under_budgets(monkeypatch, lambda: se.amp_se_symmetric(
        fns, constant_profile((n, n)), np.ones(n), mc_samples=9000,
        seed=44).to_json_dict())
    assert recs[0]["sides"]["z"]["collapsed"]
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
                rec, np.arange(dim), np.tanh, [(side, t)], n_paths=20000,
                seed=47)[0])
            for means, ses in outs[1:]:
                assert np.array_equal(means, outs[0][0])
                assert np.array_equal(ses, outs[0][1])


def _read_out_records(kind):
    """Records the read-out serves: two-sided gd_ridge, symmetric tanh_gfom
    and a collapsed corrected iteration."""
    m, n, T = 48, 40, 3
    rng = np.random.default_rng(62)
    gd = se.se_asymmetric(build_gd_ridge(squared_loss(), 0.2, 0.1, rng.normal(size=n),
                                         rng.normal(size=m), None, T),
                          _profile(kind, m, n), mc_samples=2000, seed=63)
    sym = se.se_symmetric(build_tanh_iteration(T, rng.normal(size=n)),
                          _profile(kind, n, n), mc_samples=2000, seed=64)
    amp = se.amp_se_symmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                              constant_profile((n, n)), np.ones(n),
                              mc_samples=2000, seed=65)
    assert amp.side("z").collapsed and not sym.side("z").collapsed
    return gd, sym, amp


@pytest.mark.parametrize("coords", [None, [17, 0, 5, 39], []],
                         ids=["every", "subset", "empty"])
@pytest.mark.parametrize("kind", ["constant", "two_block"])
def test_multi_cell_read_out_equals_single_cell_calls(monkeypatch, kind, coords):
    # 17000 paths = one 16384-sample block plus a 616 remainder; each cell
    # of the one-pass call, under the default and the tiny budget, against
    # its own call under the default budget.  Each one-pass call follows a
    # read-out of a record of another width and is made twice, so no call
    # reads what its workspace held in another
    rng = np.random.default_rng(66)
    recs = _read_out_records(kind)
    for i, rec in enumerate(recs):
        cells = [(s, t) for s in rec.sides for t in range(1, 4)]
        cells = [cells[i] for i in rng.permutation(len(cells))]
        want = [se.predict_entrywise(rec, coords, np.tanh, [(s, t)],
                                     n_paths=17000, seed=67)[0] for s, t in cells]
        other = recs[i - 1]
        for budget in (DEFAULT, TINY):
            monkeypatch.setattr(se, "_SUB_BLOCK_BYTES", budget)
            se.predict_entrywise(other, None, np.square,
                                 cells=[(s, 3) for s in other.sides],
                                 n_paths=3000, seed=68)
            runs = [se.predict_entrywise(rec, coords, np.tanh, cells=cells,
                                         n_paths=17000, seed=67) for _ in range(2)]
            monkeypatch.setattr(se, "_SUB_BLOCK_BYTES", DEFAULT)
            for got in runs:
                assert len(got) == len(cells)
                for (means, ses), (w_means, w_ses) in zip(got, want):
                    assert means.tobytes() == w_means.tobytes()
                    assert ses.tobytes() == w_ses.tobytes()


@pytest.mark.parametrize("kind", ["constant", "two_block"])
def test_gd_se_bytes_do_not_depend_on_sub_blocks(monkeypatch, kind):
    # the Monte Carlo route of the gradient-descent limit law, under masks
    m, n, T = 48, 40, 3
    rng = np.random.default_rng(57)
    mu0, xi = rng.normal(size=n), 0.5 * rng.normal(size=m)
    masks = (rng.random((T, m)) < 0.7) * 1.0

    def run():
        st = gd_se(wavy_loss(), 0.3, 0.2, mu0, xi, masks, _profile(kind, m, n),
                   T, mc_samples=9000, seed=58)
        return st.to_json_dict(), g_coefficient_nested_sum(st, 1, T).tolist()

    outs = _under_budgets(monkeypatch, run)
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------------
# path mixing: _draw_paths against the einsum formula it replaced, with
# shared (1, p, p) and per-coordinate (R, p, p) factors, one stream for all
# columns (strided draws) and one stream per column

def _normal_columns(p, b, r, per_column):
    """p (b, r) normal columns: one stream each, as the engines draw them,
    or strided columns of one stream's (b, r, p) draws, as the read-out
    takes them."""
    if per_column:
        return [Generator(Philox(61 + q)).standard_normal((b, r)) for q in range(p)]
    g = Generator(Philox(61)).standard_normal((b, r, p))
    return [g[..., j] for j in range(p)]


def _einsum_paths(cols, factors, x0, b):
    r, p = x0.shape[0], factors.shape[-1]
    g = np.stack(cols, axis=-1)
    paths = np.empty((b, r, p + 1))
    paths[..., 0] = x0
    if factors.shape[0] == 1:
        paths[..., 1:] = np.einsum("ij,brj->bri", factors[0], g)
    else:
        paths[..., 1:] = np.einsum("rij,brj->bri", factors, g)
    return paths


def _paths_both_ways(p, shared, per_column):
    rng = np.random.default_rng(60 + p)
    r, b = 37, 200
    factors = rng.normal(size=(1 if shared else r, p, p))
    x0 = rng.normal(size=r)
    cols = _normal_columns(p, b, r, per_column)
    return _einsum_paths(cols, factors, x0, b), se._draw_paths(cols, factors, x0, b)


MIXINGS = [pytest.param(shared, per_column, id=f"{fac}-{streams}")
           for shared, fac in ((True, "shared"), (False, "per_coordinate"))
           for per_column, streams in ((False, "one_stream"), (True, "column_streams"))]


@pytest.mark.parametrize("shared,per_column", MIXINGS)
@pytest.mark.parametrize("p", range(1, 8))
def test_draw_paths_mixes_as_einsum_did_bit_for_bit(p, shared, per_column):
    want, got = _paths_both_ways(p, shared, per_column)
    assert got.tobytes() == want.tobytes()
    # every path column is one contiguous plane
    assert all(got[..., j].flags.c_contiguous for j in range(p + 1))


@pytest.mark.parametrize("shared,per_column", MIXINGS)
@pytest.mark.parametrize("p", range(8, 11))
def test_draw_paths_mixes_as_einsum_did_to_rounding_from_p_8(p, shared, per_column):
    # from 8 terms einsum sums with a fused multiply-add kernel, which
    # separate numpy multiplies and adds cannot reproduce
    want, got = _paths_both_ways(p, shared, per_column)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _add_pairwise(acc, b, fill, leaf):
    """One b-sample block into ``acc``, leaf by leaf down numpy's tree."""
    for n, closes in se._leaf_schedule(b, leaf):
        acc.fold(fill(n), closes)


def _filler(vals):
    """fill(n) for _add_pairwise: the next n columns of ``vals``, copied
    into a C-contiguous buffer."""
    pos = [0]

    def fill(n):
        lo = pos[0]
        pos[0] += n
        return np.array(vals[:, lo:lo + n], order="C")

    return fill


@pytest.mark.parametrize("leaf", [128, 300])
@pytest.mark.parametrize("b", [1, 7, 8, 127, 128, 129, 1000, 3616, 16384])
def test_pairwise_walk_matches_whole_buffer_row_sums(b, leaf):
    # the tree walk against numpy's row sums over the whole (coordinates, b)
    # buffer, the layout it replaced
    rng = np.random.default_rng(54)
    vals = 3.0 + rng.standard_t(3, size=(5, b))
    vals[2] = 2.5                                       # a constant row
    acc = se._MeanAccumulator(5)
    _add_pairwise(acc, b, _filler(vals), leaf)
    dev = vals - vals[:, :1]
    assert acc.sum.tobytes() == dev.sum(axis=1).tobytes()
    assert acc.sumsq.tobytes() == np.square(dev).sum(axis=1).tobytes()
    assert acc.count == b
    assert acc.se()[2] == 0.0


def _add_column(acc, samples):
    """The reference: a whole (b, 1) column of samples added at once."""
    if acc.shift is None:
        acc.shift = np.array(samples[0], dtype=float)
    dev = samples - acc.shift
    acc.sum += dev.sum(axis=0)
    acc.sumsq += np.square(dev).sum(axis=0)
    acc.count += samples.shape[0]


def test_row_accumulator_matches_one_column_accumulator_per_coordinate():
    # the one (coordinates, b) accumulator against the reference it
    # replaced: one (b, 1) column accumulator per coordinate
    rng = np.random.default_rng(53)
    dim = 7
    rows = se._MeanAccumulator(dim)
    cols = [se._MeanAccumulator(1) for _ in range(dim)]
    for b in (16384, 1, 37, 3616):
        block = 3.0 + rng.standard_t(3, size=(b, dim))
        block[:, 0] = 2.5                               # a constant coordinate
        for i in range(dim):
            _add_column(cols[i], block[:, i : i + 1])
        _add_pairwise(rows, b, _filler(block.T), 128)
    assert rows.mean().tobytes() == np.concatenate(
        [a.mean() for a in cols]).tobytes()
    assert rows.se().tobytes() == np.concatenate([a.se() for a in cols]).tobytes()
    assert rows.se()[0] == 0.0


# ---------------------------------------------------------------------------
# memory bounds; numpy reports its buffers to tracemalloc.  Drawn as whole
# blocks, these calls peaked at 1050 MiB and 476 MiB; holding one psi buffer
# per 16384-sample block, the read-out peaked at 62 MiB (400 coordinates)
# and 309 MiB (2000 coordinates).

def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _read_out_peak(n):
    z0 = np.random.default_rng(48).normal(size=n)
    rec = se.se_symmetric(build_tanh_iteration(3, z0), constant_profile((n, n)),
                          mc_samples=500, seed=49)
    assert not rec.side("z").collapsed
    return _peak_bytes(lambda: se.predict_entrywise(
        rec, np.arange(n), np.square, [("z", 3)], n_paths=20000, seed=50))


def test_predict_entrywise_memory_is_bounded():
    peak = _read_out_peak(400)
    assert peak < 16 * MIB, f"peak {peak / MIB:.0f} MiB"


def test_predict_entrywise_memory_does_not_grow_with_a_block_per_coordinate():
    peak = _read_out_peak(2000)
    assert peak < 32 * MIB, f"peak {peak / MIB:.0f} MiB"


def test_one_pass_read_out_memory_does_not_grow_with_the_path_count():
    # every (side, step) cell of a 400 x 200 gd_ridge record in one pass:
    # the tape between the slowest and fastest cell holds at most one leaf
    # of normals, so doubling the paths leaves the peak where it was.  The
    # transform overwrites the workspace's paths in place; with a second set
    # of planes for the transformed history the peak was 6.5 MiB
    m, n, T = 400, 200, 3
    rng = np.random.default_rng(68)
    rec = se.se_asymmetric(build_gd_ridge(squared_loss(), 0.2, 0.1, rng.normal(size=n),
                                          rng.normal(size=m), None, T),
                           constant_profile((m, n)), mc_samples=2000, seed=69)
    cells = [(s, t) for s in ("u", "v") for t in range(1, T + 1)]
    peaks = [_peak_bytes(lambda: se.predict_entrywise(
        rec, None, np.square, cells=cells, n_paths=n_paths, seed=70))
        for n_paths in (20000, 40000)]
    assert peaks[0] < 6 * MIB, f"peak {peaks[0] / MIB:.1f} MiB"
    assert peaks[1] <= 1.1 * peaks[0], [p / MIB for p in peaks]


@pytest.mark.parametrize("kind,m,n", [
    pytest.param(kind, m, n, id=kind if m == 400 else f"{kind}-{m}x{n}")
    for m, n in ((400, 200), (2000, 1000)) for kind in ("constant", "two_block")])
def test_two_sided_engine_memory_is_bounded(kind, m, n):
    # the two-block engine kept a (statistics, block, coordinates) buffer
    # and peaked at 98 MiB at 400 x 200.  At 2000 x 1000 a path holds 8000
    # values per sample, and 64-sample pieces peaked at 53 MiB; of the
    # bound, 15 MiB are the weights
    rng = np.random.default_rng(51)
    prog = build_gd_ridge(squared_loss(), 0.2, 0.1, rng.normal(size=n),
                          rng.normal(size=m), None, 3)
    prof = _profile(kind, m, n)
    peak = _peak_bytes(lambda: se.se_asymmetric(
        prog, prof, mc_samples=4096, seed=52))
    assert peak < 32 * MIB, f"peak {peak / MIB:.0f} MiB"


def test_gd_se_monte_carlo_memory_is_bounded():
    # drawing a tenth of the paths at once, (mc/10, m, T) normals and 2t
    # (mc/10, m) statistics, this peaked at 66 MiB
    m, n = 800, 400
    rng = np.random.default_rng(55)
    mu0, xi = rng.normal(size=n), 0.5 * rng.normal(size=m)
    peak = _peak_bytes(lambda: gd_se(wavy_loss(), 0.2, 0.1, mu0, xi, None,
                                     constant_profile((m, n)), 3,
                                     mc_samples=4096, seed=56))
    assert peak < 32 * MIB, f"peak {peak / MIB:.0f} MiB"
