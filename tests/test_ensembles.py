"""Entry laws, variance profiles, and matrix sampling."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import two_block_profile
from gfomlab import ensembles
from gfomlab.ensembles import (
    STRIP_ROWS,
    EnsembleSpec,
    EntryLaw,
    VarianceProfile,
    constant_profile,
    gaussian_law,
    profile_weights,
    rademacher_law,
    sample_asymmetric,
    sample_symmetric,
    shifted_bernoulli_law,
    uniform_pm_law,
)
from gfomlab.errors import ConfigError
from gfomlab.harness import ExperimentConfig, _Plan, _replicates
from gfomlab.seeds import (DOMAIN_ENSEMBLE_A, DOMAIN_ENSEMBLE_B, DOMAIN_REPLICATE,
                           child_sequence, entry_uniforms)

SRC = Path(__file__).resolve().parents[1] / "src"


def replicate_matrices(law_b, n, reps, seed):
    """Each replicate's law-A (gaussian) and law-B symmetric n x n matrices,
    as (reps, n, n) arrays, drawn by the harness's replicate loop."""
    cfg = ExperimentConfig(experiment="universality_averaged", program="tanh_amp",
                           n=n, replicates=reps, seed=seed)
    (a, b), _ = _replicates(cfg, _Plan(n), [gaussian_law(), law_b],
                            np.ravel, "replicate streams")
    return a.reshape(reps, n, n), b.reshape(reps, n, n)


@pytest.mark.parametrize("law", [
    gaussian_law(),
    rademacher_law(),
    uniform_pm_law(),
    shifted_bernoulli_law(0.3),
    shifted_bernoulli_law(0.8),
])
def test_entry_law_standardized(law):
    rng = np.random.default_rng(11)
    x = law.transform(rng.random(10 ** 6))
    assert abs(x.mean()) < 5e-3
    assert abs(x.var() - 1.0) < 1e-2


def test_shifted_bernoulli_support_and_weights():
    p = 0.2
    law = shifted_bernoulli_law(p)
    lo = -math.sqrt((1 - p) / p)
    hi = math.sqrt(p / (1 - p))
    x = law.transform(np.random.default_rng(3).random(200_000))
    vals = np.unique(x)
    assert np.allclose(vals, [lo, hi])
    # P(lo) = p, P(hi) = 1 - p; binomial SE ~ 0.001 at this count
    assert abs(np.mean(x == lo) - p) < 5e-3
    # the two-point law has a nonzero third moment, unlike the other laws
    assert abs((x ** 3).mean() - (2 * p - 1) / math.sqrt(p * (1 - p))) < 5e-2


def test_entry_law_parameter_validation():
    with pytest.raises(ConfigError):
        EntryLaw("cauchy")
    with pytest.raises(ConfigError):
        EntryLaw("shifted_bernoulli")
    with pytest.raises(ConfigError):
        EntryLaw("shifted_bernoulli", p=1.0)
    with pytest.raises(ConfigError):
        EntryLaw("gaussian", p=0.5)


def test_variance_profile_validation():
    with pytest.raises(ConfigError):
        VarianceProfile(np.array([[1.0, -0.5], [0.5, 1.0]]))
    with pytest.raises(ConfigError):
        VarianceProfile(np.array([[np.inf, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConfigError):
        VarianceProfile(np.ones((2, 3))).require_symmetric()
    asym = VarianceProfile(np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ConfigError):
        asym.require_symmetric()


def _rows_of(form, row, rows):
    """``rows`` copies of ``row``: a dense array, or a read-only broadcast
    view of the one row (zero strides along the rows)."""
    row = np.asarray(row, dtype=float)
    if form == "dense":
        return np.tile(row, (rows, 1))
    return np.broadcast_to(row, (rows, row.size))


@pytest.mark.parametrize("form", ["dense", "broadcast"])
def test_profile_checks_on_dense_and_broadcast_values(form):
    for bad in (np.nan, np.inf, -np.inf):
        # a non-finite entry is reported ahead of a negative one
        with pytest.raises(ConfigError, match="non-finite"):
            VarianceProfile(_rows_of(form, [1.0, bad, -1.0], 3))
    with pytest.raises(ConfigError, match="negative"):
        VarianceProfile(_rows_of(form, [1.0, -0.5, 2.0], 3))
    zeros = VarianceProfile(_rows_of(form, [-0.0, 0.0, -0.0], 3))
    assert zeros.is_constant()
    EnsembleSpec(gaussian_law(), zeros, symmetric=True)
    assert not VarianceProfile(_rows_of(form, [1.0, 2.0, 1.0], 3)).is_constant()
    # equal rows of distinct entries are not symmetric
    with pytest.raises(ConfigError, match="symmetric profile"):
        EnsembleSpec(gaussian_law(), VarianceProfile(_rows_of(form, [1.0, 2.0, 3.0], 3)),
                     symmetric=True)
    # a symmetric non-constant profile over more than one strip, then made
    # asymmetric at one pair of entries: inside the last strip, or across
    # the last rows of two strips
    n = 2 * STRIP_ROWS + 3
    sym = np.add.outer(np.arange(n), np.arange(n)) % 7 + 1.0
    as_form = np.array if form == "dense" else lambda v: np.broadcast_to(v, v.shape)
    EnsembleSpec(gaussian_law(), VarianceProfile(as_form(sym)),
                 symmetric=True)
    for i, j in [(n - 1, n - 3), (2 * STRIP_ROWS - 1, STRIP_ROWS - 1)]:
        broken = sym.copy()
        broken[i, j] += 1.0
        with pytest.raises(ConfigError, match="symmetric profile"):
            EnsembleSpec(gaussian_law(), VarianceProfile(as_form(broken)),
                         symmetric=True)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_profile_is_constant(shape):
    prof = VarianceProfile(np.zeros(shape))
    assert prof.is_constant()
    spec = EnsembleSpec(gaussian_law(), prof, symmetric=False)
    # no entry to take a scale from: the sampler reads the (empty) profile
    assert spec._scale is None
    assert sample_asymmetric(spec, *shape, seed=0).shape == shape
    if shape[0] == shape[1]:
        EnsembleSpec(gaussian_law(), prof, symmetric=True)
    else:
        with pytest.raises(ConfigError, match="not square"):
            EnsembleSpec(gaussian_law(), prof, symmetric=True)


def test_constant_profile_holds_one_value():
    n = 2000
    tracemalloc.start()
    try:
        prof = constant_profile((n, n), 2.0)
        specs = [EnsembleSpec(law, prof, symmetric=True)
                 for law in (gaussian_law(), rademacher_law())]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * n * n * 8, peak
    assert [spec._scale for spec in specs] == [math.sqrt(2.0)] * 2
    with pytest.raises(ValueError, match="read-only"):
        prof.values[0, 0] = 1.0


def test_normalization_consistency_enforced():
    prof = constant_profile((4, 4))
    with pytest.raises(ConfigError):
        EnsembleSpec(gaussian_law(), prof, symmetric=True,
                     normalization="inv_sqrt_m").denominator(4, 4)
    with pytest.raises(ConfigError):
        EnsembleSpec(gaussian_law(), prof, symmetric=False,
                     normalization="inv_sqrt_q")


@pytest.mark.parametrize("symmetric", [True, False])
def test_zero_profile_gives_zero_matrix(symmetric):
    if symmetric:
        spec = EnsembleSpec(gaussian_law(), constant_profile((5, 5), 0.0),
                            symmetric=True)
        a = sample_symmetric(spec, 5, seed=7)
    else:
        spec = EnsembleSpec(gaussian_law(), constant_profile((3, 5), 0.0),
                            symmetric=False)
        a = sample_asymmetric(spec, 3, 5, seed=7)
    assert np.all(a == 0.0)


def test_rademacher_two_by_two_support_and_symmetry():
    spec = EnsembleSpec(rademacher_law(), constant_profile((2, 2)),
                        symmetric=True)
    a = sample_symmetric(spec, 2, seed=5)
    r = 1.0 / math.sqrt(2.0)
    assert set(np.abs(a).ravel()) == {r}
    assert a[0, 1] == a[1, 0]


def test_gaussian_row_norms_in_expected_band():
    # max_k ||A_k.|| concentrates near sqrt(2) at this size
    n = 500
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        symmetric=True)
    hits = 0
    for seed in range(100):
        a = sample_symmetric(spec, n, seed=seed)
        top = np.linalg.norm(a, axis=1).max()
        hits += 0.8 <= top <= 1.3
    assert hits >= 99


def test_single_entry_scaled_rademacher():
    spec = EnsembleSpec(rademacher_law(), constant_profile((1, 1), 4.0),
                        symmetric=False)
    vals = {sample_asymmetric(spec, 1, 1, seed=s)[0, 0] for s in range(40)}
    assert vals == {-2.0, 2.0}


def test_rectangular_mean_square_matches_normalization():
    # the sampler's mean square is the limit laws' weight profile / n, not
    # profile / m; its relative standard error here is sqrt(2 / (m n)) = 0.25%
    m, n = 800, 400
    spec = EnsembleSpec(gaussian_law(), constant_profile((m, n)),
                        symmetric=False)
    a = sample_asymmetric(spec, m, n, seed=2)
    assert a.shape == (m, n)
    w = profile_weights(spec.profile, m, n)
    assert abs((a ** 2).mean() / w.mean() - 1.0) < 0.01


def test_replicate_streams_entry_variance_across_laws():
    # variance of one fixed entry estimated over replicates; the matched
    # second moments make the two estimates agree within MC noise
    n, reps = 4, 10_000
    a, b = replicate_matrices(rademacher_law(), n, reps, seed=0)
    xa, xb = a[:, 0, 0], b[:, 0, 0]
    va, vb = xa.var(), xb.var()
    se = math.hypot(np.std(xa ** 2) / math.sqrt(reps), np.std(xb ** 2) / math.sqrt(reps))
    assert abs(va - vb) <= 3.0 * se
    assert abs(va - 1.0 / n) <= 4.0 * se + 4.0 / n / math.sqrt(reps)


def test_replicate_streams_same_law_draw_independent_matrices():
    # replicate r's law-A and law-B matrices come from the streams
    # (seed, REPLICATE, r, ENSEMBLE_A) and (seed, REPLICATE, r, ENSEMBLE_B)
    spec = EnsembleSpec(gaussian_law(), constant_profile((6, 6)),
                        symmetric=True)
    a, b = (x[1] for x in replicate_matrices(gaussian_law(), 6, 2, seed=19))
    for got, dom in ((a, DOMAIN_ENSEMBLE_A), (b, DOMAIN_ENSEMBLE_B)):
        assert np.array_equal(got, sample_symmetric(spec, 6, child_sequence(
            19, DOMAIN_REPLICATE, 1, dom)))
    assert a.shape == b.shape == (6, 6)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, a.T) and np.array_equal(b, b.T)


def test_row_varying_profile_reproduced_in_second_moments():
    # sigma2_ij = (i+1)/m depends on the row only; averaging squared entries
    # along each row over several seeds recovers the limit laws' weights
    # profile / n, which differ from profile / m by a factor 2 here
    m, n = 250, 500
    prof = VarianceProfile(np.tile(((np.arange(m) + 1.0) / m)[:, None], (1, n)))
    spec = EnsembleSpec(gaussian_law(), prof, symmetric=False)
    acc = np.zeros((m, n))
    seeds = 40
    for s in range(seeds):
        acc += sample_asymmetric(spec, m, n, seed=s) ** 2
    est = acc.mean(axis=1) / seeds
    rel = np.abs(est / profile_weights(prof, m, n)[:, 0] - 1.0)
    assert rel.max() < 0.05


def test_profile_weights_expose_entry_second_moments():
    prof = constant_profile((3, 6), 2.0)
    w = profile_weights(prof, 3, 6)
    assert w.shape == (3, 6)
    # a dense array with the bits of dividing a dense profile, as the
    # engines sum its rows and columns
    assert w.flags.c_contiguous and w.flags.writeable
    assert w.tobytes() == (np.full((3, 6), 2.0) / 6.0).tobytes()
    assert np.all(w == 2.0 / 6.0)
    # every squared Rademacher entry is its weight, up to rounding
    a = sample_asymmetric(EnsembleSpec(rademacher_law(), prof, symmetric=False),
                          3, 6, seed=0)
    assert np.allclose(a ** 2, w, rtol=1e-15, atol=0.0)
    with pytest.raises(ConfigError):
        profile_weights(prof, 4, 6)


def test_symmetry_is_exact():
    spec = EnsembleSpec(uniform_pm_law(), constant_profile((31, 31)),
                        symmetric=True)
    a = sample_symmetric(spec, 31, seed=13)
    assert np.array_equal(a, a.T)


def test_replicate_streams_second_moments_within_band():
    # |E a_ij^2 - E b_ij^2| <= 4/sqrt(R) * sigma2_ij/n for a few entries
    n, reps = 5, 2000
    a, b = replicate_matrices(shifted_bernoulli_law(0.25), n, reps, seed=1000)
    sa, sb = (a ** 2).sum(axis=0), (b ** 2).sum(axis=0)
    bound = 4.0 / math.sqrt(reps) / n
    for i, j in [(0, 0), (1, 2), (3, 4), (4, 4)]:
        assert abs(sa[i, j] - sb[i, j]) / reps <= bound


def test_determinism_and_seed_sensitivity():
    spec = EnsembleSpec(gaussian_law(), constant_profile((8, 8)),
                        symmetric=True)
    a1 = sample_symmetric(spec, 8, seed=99)
    a2 = sample_symmetric(spec, 8, seed=99)
    a3 = sample_symmetric(spec, 8, seed=100)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_truncation_zeroes_large_entries():
    n = 50
    spec = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                        symmetric=True)
    cut = EnsembleSpec(gaussian_law(), constant_profile((n, n)),
                       symmetric=True, truncate=0.5)
    a = sample_symmetric(spec, n, seed=4)
    b = sample_symmetric(cut, n, seed=4)
    thresh = 0.5 * math.sqrt(math.log(n)) / math.sqrt(n)
    assert np.all(b[np.abs(a) > thresh] == 0.0)
    assert np.array_equal(b[np.abs(a) <= thresh], a[np.abs(a) <= thresh])
    assert np.any(b != a)


@pytest.mark.parametrize("truncate", [-1.0, 0.0, float("nan"), float("inf"),
                                      True, "0.5"])
def test_truncation_must_be_finite_and_positive(truncate):
    with pytest.raises(ConfigError, match="truncate"):
        EnsembleSpec(gaussian_law(), constant_profile((4, 4)),
                     symmetric=True, truncate=truncate)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None])
def test_samplers_reject_bad_seeds(seed):
    sym = EnsembleSpec(gaussian_law(), constant_profile((3, 3)),
                       symmetric=True)
    asym = EnsembleSpec(gaussian_law(), constant_profile((1, 1)),
                        symmetric=False)
    with pytest.raises(ConfigError, match="seed"):
        sample_symmetric(sym, 3, seed)
    with pytest.raises(ConfigError, match="seed"):
        sample_asymmetric(asym, 1, 1, seed)
    # the replicate streams take the seed of a validated config
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(experiment="universality_averaged", program="tanh_amp",
                         n=3, seed=seed).validate()


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 401, 4002, 4003,
                                   STRIP_ROWS * 65, STRIP_ROWS * 65 + 1])
def test_entry_uniforms_start_continues_the_flat_stream(start):
    seq = np.random.SeedSequence(31, spawn_key=(0, 2))
    count = 500
    whole = entry_uniforms(seq, start + count)
    assert np.array_equal(entry_uniforms(seq, count, start=start), whole[start:])


@pytest.mark.parametrize("symmetric,shape", [(True, (1000, 1000)),
                                             (False, (800, 400))])
def test_sampler_scratch_stays_below_half_the_output(symmetric, shape):
    spec = EnsembleSpec(gaussian_law(), constant_profile(shape),
                        symmetric=symmetric)
    tracemalloc.start()
    try:
        if symmetric:
            a = sample_symmetric(spec, shape[0], seed=8)
        else:
            a = sample_asymmetric(spec, *shape, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    strip = STRIP_ROWS * shape[1] * 8
    assert peak < a.nbytes + 2 * strip, (peak - a.nbytes) / strip


ALL_LAWS = [gaussian_law(), rademacher_law(), uniform_pm_law(),
            shifted_bernoulli_law(0.3)]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("truncate", [None, 0.6])
@pytest.mark.parametrize("rows", [1, 3, 5, STRIP_ROWS])
@pytest.mark.parametrize("symmetric,shape", [(True, (67, 67)),
                                             (False, (130, 67))])
@pytest.mark.parametrize("profile", ["zero_row", "ones", "zeros"])
def test_strip_size_does_not_change_the_bits(monkeypatch, law, truncate, rows,
                                             symmetric, shape, profile):
    # odd n: a strip's word count is not a multiple of Philox's four words
    # per counter step, so strips start inside a step
    m, n = shape
    if profile == "zero_row":
        values = np.random.default_rng(4).uniform(0.0, 3.0, shape)
        if symmetric:
            values = values + values.T
        # a zero row (and column) times negative variates gives -0.0
        values[2] = 0.0
        values[:, 2] = 0.0
    else:
        values = np.full(shape, 1.0 if profile == "ones" else 0.0)
    spec = EnsembleSpec(law, VarianceProfile(values), symmetric=symmetric,
                        truncate=truncate)
    refs = [_drawn_at_once(spec, m, n, seed).tobytes()
            for seed in _seed_forms(17)]
    monkeypatch.setattr(ensembles, "STRIP_ROWS", rows)
    assert [_sample(spec, m, n, seed).tobytes()
            for seed in _seed_forms(17)] == refs


def _seed_forms(seed):
    """Both forms a sampler takes its seed in: an int, and a spawned
    SeedSequence, as every replicate passes (``harness._replicates``)."""
    return seed, child_sequence(seed, DOMAIN_REPLICATE, 1, DOMAIN_ENSEMBLE_A)


def _drawn_at_once(spec, m, n, seed):
    """The documented steps on the whole matrix's words, drawn at once."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    u = entry_uniforms(seed, m * n).reshape(m, n)
    x = spec.law.transform(u) * np.sqrt(spec.profile.values)
    if spec.truncate is not None:
        x[np.abs(x) > spec.truncate * math.sqrt(math.log(max(m, n)))] = 0.0
    if spec.symmetric:
        x = np.triu(x) + np.triu(x, 1).T
    return x / math.sqrt(n)


def _sample(spec, m, n, seed):
    if spec.symmetric:
        return sample_symmetric(spec, n, seed)
    return sample_asymmetric(spec, m, n, seed)


def _profile(kind, shape):
    if kind == "two_block":
        return two_block_profile(*shape)
    return constant_profile(shape, 2.5 if kind == "constant" else 0.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("truncate", [None, 0.6])
@pytest.mark.parametrize("profile", ["constant", "zero", "two_block"])
@pytest.mark.parametrize("symmetric,shape", [
    (True, (67, 67)), (True, (130, 130)), (True, (5, 5)),
    (False, (130, 67)), (False, (67, 130)), (False, (5, 3))])
def test_thread_count_does_not_change_the_bits(monkeypatch, strip_threads, law,
                                               truncate, profile, symmetric,
                                               shape):
    # 5-row strips start at words r0 * n that are not multiples of Philox's
    # four words per counter step, and no shape is a whole number of strips
    m, n = shape
    spec = EnsembleSpec(law, _profile(profile, shape), symmetric=symmetric,
                        truncate=truncate)
    refs = [_drawn_at_once(spec, m, n, seed).tobytes()
            for seed in _seed_forms(23)]
    for rows in [5, STRIP_ROWS]:
        monkeypatch.setattr(ensembles, "STRIP_ROWS", rows)
        for threads in [1, 2, 3]:
            strip_threads(threads)
            assert [_sample(spec, m, n, seed).tobytes()
                    for seed in _seed_forms(23)] == refs, (rows, threads)


def test_concurrent_callers_on_more_threads_than_cores(monkeypatch,
                                                       strip_threads):
    # one-row strips on 3 threads, with a short switch interval, from two
    # callers sharing the pool: a strip lost or left half drawn would show
    # as garbage in the uninitialised output
    strip_threads(3)
    monkeypatch.setattr(ensembles, "STRIP_ROWS", 1)
    specs = [EnsembleSpec(law, constant_profile((150, 150)),
                          symmetric=True) for law in ALL_LAWS[:2]]
    refs = [_drawn_at_once(spec, 150, 150, seed=4).tobytes() for spec in specs]
    got = {}

    def draw(k):
        for _ in range(5):
            got.setdefault(k, []).append(
                sample_symmetric(specs[k], 150, seed=4).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=draw, args=(k,)) for k in (0, 1)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == {k: [refs[k]] * 5 for k in (0, 1)}


def test_a_helper_strip_error_reaches_the_caller(monkeypatch, strip_threads):
    strip_threads(2)
    monkeypatch.setattr(ensembles, "STRIP_ROWS", 4)
    spec = EnsembleSpec(gaussian_law(), constant_profile((16, 12)),
                        symmetric=False)
    expected = sample_asymmetric(spec, 16, 12, seed=2).tobytes()
    helper_failed = threading.Event()
    transform = EntryLaw.transform

    def failing(law, u, out=None):
        if threading.current_thread() is threading.main_thread():
            # the caller's first strip waits, so a helper takes a strip
            helper_failed.wait(timeout=30)
        else:
            helper_failed.set()
            raise RuntimeError("strip failed")
        return transform(law, u, out)

    monkeypatch.setattr(EntryLaw, "transform", failing)
    with pytest.raises(RuntimeError, match="strip failed"):
        sample_asymmetric(spec, 16, 12, seed=2)
    assert helper_failed.is_set()
    monkeypatch.setattr(EntryLaw, "transform", transform)
    assert sample_asymmetric(spec, 16, 12, seed=2).tobytes() == expected


@pytest.mark.parametrize("threads", [1, 3])
def test_a_caller_strip_error_reaches_the_caller(monkeypatch, strip_threads,
                                                 threads):
    strip_threads(threads)
    monkeypatch.setattr(ensembles, "STRIP_ROWS", 4)
    spec = EnsembleSpec(rademacher_law(), constant_profile((20, 20)),
                        symmetric=True)
    expected = sample_symmetric(spec, 20, seed=6).tobytes()
    transform = EntryLaw.transform

    def failing(law, u, out=None):
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError("strip failed")
        return transform(law, u, out)

    monkeypatch.setattr(EntryLaw, "transform", failing)
    with pytest.raises(RuntimeError, match="strip failed"):
        sample_symmetric(spec, 20, seed=6)
    monkeypatch.setattr(EntryLaw, "transform", transform)
    assert sample_symmetric(spec, 20, seed=6).tobytes() == expected


_FIRST_SAMPLE = """
import sys, threading
import gfomlab
from gfomlab.cli import parse_config
from gfomlab.ensembles import _strip_pool
parse_config(sys.argv[1]).validate()
print(threading.active_count())
spec = gfomlab.EnsembleSpec(gfomlab.gaussian_law(),
                            gfomlab.constant_profile((200, 200)),
                            symmetric=True)
gfomlab.sample_symmetric(spec, 200, seed=1)
print(threading.active_count(), _strip_pool()[1])
"""


def test_threads_start_with_the_first_sample_and_end_with_the_interpreter(
        tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "universality_averaged",
                                  "program": "tanh_amp", "n": 100}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the timeout fails the test if a helper thread kept the process alive
    out = subprocess.run([sys.executable, "-c", _FIRST_SAMPLE, str(config)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    before, after = out.stdout.splitlines()
    assert before == "1"
    running, threads = map(int, after.split())
    # the caller plus at most threads - 1 helpers, which 4 strips do use
    assert 1 < running <= threads if threads > 1 else running == 1


_FORK = """
import os, signal
import gfomlab
spec = gfomlab.EnsembleSpec(gfomlab.gaussian_law(),
                            gfomlab.constant_profile((200, 200)),
                            symmetric=True)
a = gfomlab.sample_symmetric(spec, 200, seed=1)
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child left waiting for the parent's threads dies
    b = gfomlab.sample_symmetric(spec, 200, seed=1)
    os._exit(0 if b.tobytes() == a.tobytes() else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_samples_on_its_own_threads():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _FORK], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


def _historic_transform(law, u):
    """Each law's variates as first written, from whole-array temporaries."""
    if law.kind == "gaussian":
        return ndtri(np.maximum(u, 1e-300))
    if law.kind == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if law.kind == "uniform_pm":
        return (2.0 * u - 1.0) * math.sqrt(3.0)
    p = law.p
    return np.where(u < p, -math.sqrt((1.0 - p) / p), math.sqrt(p / (1.0 - p)))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
def test_transform_into_out_matches_transform(law):
    p = 0.3
    edges = [0.0, 5e-324, 1e-300, 0.25, np.nextafter(0.5, 0.0), 0.5,
             np.nextafter(0.5, 1.0), np.nextafter(p, 0.0), p,
             np.nextafter(p, 1.0), 1.0 - 2.0 ** -53]
    u = np.random.default_rng(9).random(3 * 40)
    u[:len(edges)] = edges
    u = u.reshape(3, 40)
    kept = u.copy()
    expected = law.transform(u)
    assert u.tobytes() == kept.tobytes()  # without out, u is left alone
    assert expected.tobytes() == _historic_transform(law, u).tobytes()
    # the symmetric sampler's + 0.0 step relies on this under a constant profile
    assert not np.signbit(expected[expected == 0.0]).any()
    # a strided band of a larger array, from a strided view of scratch words
    words = np.full((3, 47), np.nan)
    words[:, 7:] = u
    big = np.full((5, 50), np.nan)
    out = big[1:4, 5:45]
    assert law.transform(words[:, 7:], out=out) is out
    assert np.ascontiguousarray(out).tobytes() == expected.tobytes()
    assert np.isnan(big[[0, 4]]).all() and np.isnan(big[:, 45:]).all()
    assert np.isnan(big[:, :5]).all()
