"""Golden artifacts: small configs whose CSV bytes are fixed by history.

Each ``golden/<case>.json`` runs through ``cli.run_experiment``; its
``{experiment}.csv`` and ``{experiment}_plot.csv`` must equal the files kept
in ``golden/<case>/`` byte for byte.  ``golden/records.json`` pins the
limit-law records of the four builders the same way, as one sha256 digest
per case over every array of every side and two read-outs, and the
gradient-descent limit law of ``gd_se``, as one digest per loss, profile
and sample mask over every table, the key parameters at every step and the
nested-sum coefficients.  ``golden/samples.json`` pins the sampled
matrices, as one digest per sampler, law, profile, truncation and
normalization over a grid of sizes and seeds.  ``golden/trajectories.json``
pins the iterates of every executor on sampled matrices, the corrected
ones with non-zero memory tables.  A change that alters them
on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which bytes moved and why.  The script rewrites and
prints each golden CSV path and each digest key (as ``file: case``) whose
bytes moved, and prints nothing when none did.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import (mixed_asymmetric_program, mixed_symmetric_program,
                      two_block_profile, wavy_loss)
from gfomlab.cli import parse_config, run_experiment
from gfomlab.dynamics import (run_amp_asymmetric, run_amp_symmetric,
                              run_asymmetric, run_leave_k_out, run_symmetric)
from gfomlab.ensembles import (NORMALIZATIONS, EnsembleSpec, VarianceProfile,
                               constant_profile, gaussian_law, rademacher_law,
                               sample_asymmetric, sample_symmetric,
                               shifted_bernoulli_law, uniform_pm_law)
from gfomlab.erm import prox_lasso, prox_ridge, squared_loss
from gfomlab.gd_se import g_coefficient_nested_sum, gd_key_params, gd_se
from gfomlab import state_evolution
from gfomlab.harness import EXPERIMENTS
from gfomlab.programs import (build_gd_ridge, build_logistic,
                              build_pgd_linear, build_tanh_iteration, tanh_map)
from gfomlab.state_evolution import (amp_se_asymmetric, amp_se_symmetric,
                                     gfom_to_amp, predict_entrywise,
                                     se_asymmetric, se_symmetric)

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json")
               if p.stem not in ("records", "samples", "trajectories"))
RECORDS = GOLDEN / "records.json"
SAMPLES = GOLDEN / "samples.json"
TRAJECTORIES = GOLDEN / "trajectories.json"


def _artifacts(case, out_dir):
    config = parse_config(GOLDEN / f"{case}.json")
    run_experiment(config, out_dir)
    stem = config.experiment
    return {name: (Path(out_dir) / name).read_bytes()
            for name in (f"{stem}.csv", f"{stem}_plot.csv")}


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden_bytes(case, tmp_path):
    for name, data in _artifacts(case, tmp_path).items():
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"


def test_every_experiment_has_a_golden_config():
    # so every kind of report has its CSV bytes pinned through the one writer
    experiments = {json.loads((GOLDEN / f"{case}.json").read_text())["experiment"]
                   for case in CASES}
    assert set(EXPERIMENTS) <= experiments


# the JSON keys of each experiment's report; perfbench/child.py reads
# statistics[*].gap and .tolerance, details.replicates_used and divergent
_COMPARISON = {"name", "passed", "runtime_seconds", "divergent", "details",
               "statistics"}
REPORT_KEYS = {
    "universality_averaged": _COMPARISON,
    "universality_entrywise": _COMPARISON,
    "se_vs_simulation": _COMPARISON,
    "gd_gaussianity": _COMPARISON,
    "decay": {"name", "passed", "runtime_seconds", "slope", "r_squared",
              "converged", "residual", "rows"},
    "delocalization": {"name", "passed", "runtime_seconds", "prefactor",
                       "rows"},
}
STATISTIC_KEYS = {"label", "estimate_a", "estimate_b", "gap", "se",
                  "tolerance", "passed"}


@pytest.mark.parametrize("case", CASES)
def test_report_json_keys(case, tmp_path):
    config = parse_config(GOLDEN / f"{case}.json")
    manifest = run_experiment(config, tmp_path)
    # every golden config passes its own gates
    assert manifest.passed is True
    report = json.loads((tmp_path / f"{config.experiment}.json").read_text())
    assert set(report) == REPORT_KEYS[config.experiment]
    assert report["name"] == config.experiment
    assert report["passed"] is manifest.passed
    assert isinstance(report["runtime_seconds"], float)
    # one JSON row or statistic per CSV line
    lines = (tmp_path / f"{config.experiment}.csv").read_text().splitlines()
    assert len(report.get("rows", report.get("statistics"))) == len(lines) - 1
    if "rows" in report:
        return
    for st in report["statistics"]:
        assert set(st) == STATISTIC_KEYS
        assert isinstance(st["gap"], float) and isinstance(st["tolerance"], float)
    used = report["details"]["replicates_used"]
    assert type(used) is int and 2 <= used <= config.replicates
    divergent = report["divergent"]
    assert all(type(v) is int for v in divergent.values())
    assert used + sum(divergent.values()) == config.replicates


# ---------------------------------------------------------------------------
# limit-law records: 24x24 symmetric and 30x24 two-sided instances, T = 3,
# 5000 samples (a full block plus a remainder)

M, N, T, MC = 30, 24, 3, 5000
PROFILES = {"constant": lambda m, n: constant_profile((m, n)),
            "two_block": two_block_profile}


def _build(builder, kind):
    prof = PROFILES[kind]
    rng = np.random.default_rng(70)
    z0, u0, v0 = rng.normal(size=N), rng.normal(size=M), rng.normal(size=N)
    if builder.startswith("se_symmetric"):
        return se_symmetric(mixed_symmetric_program(N, T, seed=71), prof(N, N),
                            mc_samples=MC, seed=72,
                            fd_check=builder.endswith("fd"))
    if builder.startswith("se_asymmetric"):
        return se_asymmetric(mixed_asymmetric_program(M, N, T, seed=73),
                             prof(M, N), mc_samples=MC, seed=74,
                             fd_check=builder.endswith("fd"))
    if builder.startswith("amp_se_symmetric"):
        # a constant start collapses the path on the constant profile
        start = np.ones(N) if builder.endswith("constant") else z0
        return amp_se_symmetric(build_tanh_iteration(T, start).mat_fns,
                                prof(N, N), start, mc_samples=MC, seed=75)
    return amp_se_asymmetric([tanh_map(t, t - 1) for t in range(1, T + 1)],
                             [tanh_map(t + 1, t) for t in range(1, T + 1)],
                             prof(M, N), u0, v0, mc_samples=MC, seed=76)


BUILDERS = ("se_symmetric", "se_symmetric_fd", "se_asymmetric",
            "se_asymmetric_fd", "amp_se_symmetric_varying",
            "amp_se_symmetric_constant", "amp_se_asymmetric")

# gradient descent on 24 samples of 30 signal coordinates, T = 4: a quadratic
# loss (closed form) and a non-quadratic one (Monte Carlo), on full samples
# and under random sample masks

GD_M, GD_N, GD_T = 24, 30, 4
GD_LOSSES = {"quadratic": squared_loss, "wavy": wavy_loss}
GD_CASES = [f"gd_se/{loss}/{kind}/{sample}" for loss in GD_LOSSES
            for kind in PROFILES for sample in ("full", "masked")]
RECORD_CASES = [f"{b}/{k}" for b in BUILDERS for k in PROFILES] + GD_CASES


def _put(h, a):
    a = np.ascontiguousarray(a, dtype=float)
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def _gd_record(loss, kind, sample):
    rng = np.random.default_rng(78)
    mu0, xi = rng.normal(size=GD_N), 0.5 * rng.normal(size=GD_M)
    masks = (rng.random((GD_T, GD_M)) < 0.7) * 1.0 if sample == "masked" else None
    return gd_se(loss, 0.3, 0.2, mu0, xi, masks, PROFILES[kind](GD_M, GD_N),
                 GD_T, mc_samples=MC, seed=79)


def _gd_digest(case):
    _, loss, kind, sample = case.split("/")
    st = _gd_record(GD_LOSSES[loss](), kind, sample)
    h = hashlib.sha256()
    for a in (st.m_matrix, st.u_cov, st.v_cov, st.v_cov_se, *st.f_tables,
              *st.g_tables, *st.g_tables_se):
        _put(h, a)
    for t in range(GD_T + 1):
        law = gd_key_params(st, t)
        _put(h, law.bias)
        _put(h, law.variance)
        for s in range(1, t + 1):
            _put(h, g_coefficient_nested_sum(st, s, t))
    return h.hexdigest()


def _record_digest(case, one_pass=False):
    """The case's digest; with ``one_pass`` a record's read-outs come from
    one predict_entrywise call over every (side, step) cell, which must
    give each cell the bytes of its own call."""
    if case.startswith("gd_se/"):
        return _gd_digest(case)
    builder, kind = case.split("/")
    rec = _build(builder, kind)
    if one_pass:
        cells = [(name, t) for name in rec.sides for t in range(1, T + 1)]
        preds = dict(zip(cells, predict_entrywise(rec, None, np.tanh, cells,
                                                  n_paths=3000, seed=77)))
    h = hashlib.sha256(repr(rec.fd_gap).encode())
    for name, side in rec.sides.items():
        h.update(name.encode())
        for a in (side.law.x0, side.law.cov, side.law.cov_se,
                  *side.coeffs, *side.coeffs_se):
            _put(h, a)
        for t in (1, T):
            pred = preds[(name, t)] if one_pass else predict_entrywise(
                rec, np.arange(side.law.coords), np.tanh, [(name, t)],
                n_paths=3000, seed=77)[0]
            for a in pred:
                _put(h, a)
    return h.hexdigest()


@pytest.mark.parametrize("case", RECORD_CASES)
def test_records_match_golden_digests(case):
    assert _record_digest(case) == json.loads(RECORDS.read_text())[case]


# the limit laws draw their normals ahead on the strip pool's helper when one
# is free, and on the caller when none is: no byte may depend on which.  The
# two-sided records, each read out through one six-cell call, and a Monte
# Carlo gd_se record, under 1, 2 and 3 forced threads

THREADED_CASES = [f"{b}/{k}" for b in ("se_asymmetric", "se_asymmetric_fd",
                                       "amp_se_asymmetric")
                  for k in PROFILES] + ["gd_se/wavy/two_block/masked"]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_records_do_not_depend_on_the_helper_threads(strip_threads, threads):
    strip_threads(threads)
    pinned = json.loads(RECORDS.read_text())
    for case in THREADED_CASES:
        assert _record_digest(case, one_pass=True) == pinned[case], case


def _tripwire(fn, left):
    """``fn``, raising on the call that brings left[0] down to 0 (never
    while it is infinite)."""

    def trip(*args):
        left[0] -= 1
        if left[0] == 0:
            raise RuntimeError("tripwire")
        return fn(*args)

    return trip


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("stage", ["step", "read_out", "gd_se"])
def test_a_failed_limit_law_leaves_no_draw_behind(monkeypatch, strip_threads,
                                                  stage, threads):
    # 8-sample sub-blocks: a step runs 625 of them, a read-out cell 375 and
    # gd_se's second step calls the loss slope twice in each of its 625, each
    # drawn ahead, so the failure comes while the helper may be drawing the
    # next piece.  The error reaches the caller, and the next record still
    # has its pinned bytes
    strip_threads(threads)
    left = [math.inf]
    prog = mixed_asymmetric_program(M, N, T, seed=73)
    fn = prog.u_mat_fns[0]
    prog.u_mat_fns[0] = dataclasses.replace(fn, fn=_tripwire(fn.fn, left))
    prof = two_block_profile(M, N)
    loss = wavy_loss()
    loss = dataclasses.replace(loss, d1=_tripwire(loss.d1, left))
    with monkeypatch.context() as mp:
        mp.setattr(state_evolution, "_SUB_BLOCK_BYTES", 1)
        if stage == "read_out":
            rec = se_asymmetric(prog, prof, mc_samples=MC, seed=74)
        left[0] = {"step": 1000, "read_out": 500, "gd_se": 1000}[stage]
        with pytest.raises(RuntimeError, match="tripwire"):
            if stage == "step":
                se_asymmetric(prog, prof, mc_samples=MC, seed=74)
            elif stage == "read_out":
                predict_entrywise(rec, None, np.tanh,
                                  [(s, t) for s in "uv" for t in (1, 2, 3)],
                                  n_paths=3000, seed=77)
            else:
                _gd_record(loss, "two_block", "masked")
    assert left[0] == 0   # nothing ran on after the failure
    case = ("gd_se/wavy/two_block/masked" if stage == "gd_se"
            else "se_asymmetric/two_block")
    assert _record_digest(case) == json.loads(RECORDS.read_text())[case]


# a heterogeneous record, of the two-sided engine or of gd_se's Monte Carlo
# route, and its read-out must not depend on how many threads BLAS splits
# its products over; a fresh interpreter per thread count, since OpenBLAS
# reads the setting when it loads

_THREADED_RECORD = """
import hashlib, json
import numpy as np
from conftest import mixed_asymmetric_program, two_block_profile, wavy_loss
from gfomlab.gd_se import gd_se
from gfomlab.state_evolution import predict_entrywise, se_asymmetric
rec = se_asymmetric(mixed_asymmetric_program(300, 150, 3, seed=80),
                    two_block_profile(300, 150), mc_samples=5000, seed=81)
rng = np.random.default_rng(82)
st = gd_se(wavy_loss(), 0.3, 0.2, rng.normal(size=150),
           0.5 * rng.normal(size=300), None, two_block_profile(300, 150), 3,
           mc_samples=5000, seed=83)
for d in (rec.to_json_dict(), st.to_json_dict()):
    print(hashlib.sha256(json.dumps(d).encode()).hexdigest())
h = hashlib.sha256()
for means, ses in predict_entrywise(rec, None, np.tanh,
                                    [(s, t) for s in "uv" for t in (1, 2, 3)],
                                    n_paths=5000, seed=84):
    h.update(means.tobytes() + ses.tobytes())
print(h.hexdigest())
"""


def test_heterogeneous_record_does_not_depend_on_blas_threads():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _THREADED_RECORD], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.split())
    assert len(digests[0]) == 3 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# sampled matrices: sizes on both sides of 64-row boundaries, constant
# profiles (a zero one among them) and a heterogeneous one with a zero row and
# column, whose entries are -0.0 times a negative variate before
# symmetrization.  tobytes() tells -0.0 from +0.0.

SAMPLE_LAWS = {"gaussian": gaussian_law(), "rademacher": rademacher_law(),
               "uniform_pm": uniform_pm_law(),
               "shifted_bernoulli": shifted_bernoulli_law(0.3)}
TRUNCATIONS = {"off": None, "0.5": 0.5}
SYM_SHAPES = [(n, n) for n in (1, 2, 63, 64, 65, 129)]
ASYM_SHAPES = [(1, 1), (7, 3), (130, 300)]


def _hetero_profile(m, n):
    values = np.outer(np.arange(m) % 3 + 1, np.arange(n) % 3 + 1) * 0.5
    k = min(m, n) // 2
    values[k, :] = 0.0
    values[:, k] = 0.0
    return VarianceProfile(values)


SAMPLE_PROFILES = {"c1": lambda m, n: constant_profile((m, n), 1.0),
                   "c2.5": lambda m, n: constant_profile((m, n), 2.5),
                   "c0": lambda m, n: constant_profile((m, n), 0.0),
                   "hetero": _hetero_profile}


def _sample_cases():
    cases = {}
    for law, prof, cut in itertools.product(SAMPLE_LAWS, SAMPLE_PROFILES,
                                            TRUNCATIONS):
        cases[f"symmetric/{law}/{prof}/{cut}"] = (
            law, prof, cut, "inv_sqrt_n", SYM_SHAPES)
        for norm in NORMALIZATIONS:
            cases[f"asymmetric/{law}/{prof}/{cut}/{norm}"] = (
                law, prof, cut, norm, ASYM_SHAPES)
    for law in ("gaussian", "rademacher"):
        cases[f"symmetric/{law}/c1/off/n1000"] = (
            law, "c1", "off", "inv_sqrt_n", [(1000, 1000)])
    return cases


SAMPLE_CASES = _sample_cases()


def _sample_digest(case):
    law, prof, cut, norm, shapes = SAMPLE_CASES[case]
    symmetric = case.startswith("symmetric")
    h = hashlib.sha256()
    for m, n in shapes:
        spec = EnsembleSpec(SAMPLE_LAWS[law], SAMPLE_PROFILES[prof](m, n),
                            symmetric=symmetric, normalization=norm,
                            truncate=TRUNCATIONS[cut])
        for seed in (5, np.random.SeedSequence(2024, spawn_key=(3, 7, 0))):
            if symmetric:
                a = sample_symmetric(spec, n, seed)
            else:
                a = sample_asymmetric(spec, m, n, seed)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_samples_match_golden_digests(case):
    assert _sample_digest(case) == json.loads(SAMPLES.read_text())[case]


# ---------------------------------------------------------------------------
# executor trajectories: every executor on Gaussian matrices, 40x40 and
# 50x40, T = 4; the corrected runs take their memory tables from a limit law

TR_M, TR_N, TR_T, TR_MC = 50, 40, 4, 2000
TRAJECTORY_CASES = ("run_symmetric/mixed", "run_leave_k_out/mixed",
                    "run_asymmetric/mixed", "run_asymmetric/gd_ridge_masked",
                    "run_asymmetric/gd_ridge_lam0",
                    "run_asymmetric/pgd_lasso", "run_asymmetric/logistic",
                    "run_amp_symmetric/amp_se", "run_amp_symmetric/gfom_to_amp",
                    "run_amp_asymmetric/amp_se",
                    "run_amp_asymmetric/gfom_to_amp")


def _gaussian_matrix(m, n, seed):
    symmetric = m is None
    spec = EnsembleSpec(gaussian_law(), constant_profile((m or n, n)),
                        symmetric=symmetric)
    if symmetric:
        return sample_symmetric(spec, n, seed)
    return sample_asymmetric(spec, m, n, seed)


def _trajectory(case):
    m, n, T = TR_M, TR_N, TR_T
    a_sym, a = _gaussian_matrix(None, n, 90), _gaussian_matrix(m, n, 91)
    rng = np.random.default_rng(92)
    mu0, xi = rng.normal(size=n), 0.5 * rng.normal(size=m)
    masks = (rng.random((T, m)) < 0.7) * 1.0
    sym, asym = mixed_symmetric_program(n, T, 93), mixed_asymmetric_program(m, n, T, 94)
    executor, what = case.split("/")
    if case == "run_symmetric/mixed":
        return run_symmetric(a_sym, sym)
    if executor == "run_leave_k_out":
        return run_leave_k_out(a_sym, sym, [3, 17, 38])
    if case == "run_asymmetric/mixed":
        return run_asymmetric(a, asym)
    if what == "gd_ridge_masked":
        return run_asymmetric(a, build_gd_ridge(squared_loss(), 0.3, 0.2, mu0,
                                                xi, masks, T))
    if what == "gd_ridge_lam0":
        # no ridge: the decay's intercept -eta lam mu0 is a signed zero
        return run_asymmetric(a, build_gd_ridge(squared_loss(), 0.3, 0.0, mu0,
                                                xi, masks, T))
    if what == "pgd_lasso":
        return run_asymmetric(a, build_pgd_linear(squared_loss(), prox_lasso(0.1),
                                                  0.25, mu0, xi, T))
    if what == "logistic":
        return run_asymmetric(a, build_logistic(prox_ridge(0.1), 0.5, 0.2, mu0,
                                                xi, T))
    if case == "run_amp_symmetric/amp_se":
        fns = build_tanh_iteration(T, sym.z0).mat_fns
        rec = amp_se_symmetric(fns, constant_profile((n, n)), sym.z0,
                               mc_samples=TR_MC, seed=95)
        return run_amp_symmetric(a_sym, fns, rec.side("z").coeffs, sym.z0)
    if case == "run_amp_symmetric/gfom_to_amp":
        rec = se_symmetric(sym, constant_profile((n, n)), mc_samples=TR_MC,
                           seed=96)
        return run_amp_symmetric(a_sym, *gfom_to_amp(sym, rec)["z"], sym.z0)
    if case == "run_amp_asymmetric/amp_se":
        u_fns = [tanh_map(t, t - 1) for t in range(1, T + 1)]
        v_fns = [tanh_map(t + 1, t) for t in range(1, T + 1)]
        rec = amp_se_asymmetric(u_fns, v_fns, constant_profile((m, n)),
                                asym.u0, asym.v0, mc_samples=TR_MC, seed=97)
        return run_amp_asymmetric(a, u_fns, v_fns, rec.side("u").coeffs,
                                  rec.side("v").coeffs, asym.u0, asym.v0)
    rec = se_asymmetric(asym, constant_profile((m, n)), mc_samples=TR_MC,
                        seed=98)
    amp = gfom_to_amp(asym, rec)
    return run_amp_asymmetric(a, amp["u"][0], amp["v"][0], amp["u"][1],
                              amp["v"][1], asym.u0, asym.v0)


def _trajectory_digest(case):
    traj = _trajectory(case)
    h = hashlib.sha256()
    for name in ("z", "u", "v"):
        track = getattr(traj, name)
        if track is not None:
            h.update(name.encode())
            _put(h, track)
    return h.hexdigest()


@pytest.mark.parametrize("case", TRAJECTORY_CASES)
def test_trajectories_match_golden_digests(case):
    assert _trajectory_digest(case) == json.loads(TRAJECTORIES.read_text())[case]


@pytest.mark.parametrize("path, cases", [(RECORDS, RECORD_CASES),
                                         (SAMPLES, SAMPLE_CASES),
                                         (TRAJECTORIES, TRAJECTORY_CASES)],
                         ids=["records", "samples", "trajectories"])
def test_golden_digest_files_hold_exactly_the_tested_cases(path, cases):
    # a digest whose case is no longer generated would sit there unchecked
    assert set(json.loads(path.read_text())) == set(cases)


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            (GOLDEN / case).mkdir(exist_ok=True)
            for name, data in _artifacts(case, work).items():
                path = GOLDEN / case / name
                if not path.exists() or path.read_bytes() != data:
                    path.write_bytes(data)
                    print(path.relative_to(GOLDEN.parent.parent))
    for path, digest, cases in ((RECORDS, _record_digest, RECORD_CASES),
                                (SAMPLES, _sample_digest, SAMPLE_CASES),
                                (TRAJECTORIES, _trajectory_digest,
                                 TRAJECTORY_CASES)):
        old = json.loads(path.read_text()) if path.exists() else {}
        new = {case: digest(case) for case in cases}
        for case in sorted(set(old) | set(new)):
            if old.get(case) != new.get(case):
                print(f"{path.name}: {case}")
        if new != old:
            path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
