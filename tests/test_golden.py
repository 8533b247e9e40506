"""Golden artifacts: small configs whose CSV bytes are fixed by history.

Each ``golden/<case>.json`` runs through ``cli.run_experiment``; its
``{experiment}.csv`` and ``{experiment}_plot.csv`` must equal the files kept
in ``golden/<case>/`` byte for byte.  ``golden/records.json`` pins the
limit-law records of the four builders the same way, as one sha256 digest
per case over every array of every side and two read-outs.  A change that
alters them on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which bytes moved and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import (mixed_asymmetric_program, mixed_symmetric_program,
                      two_block_profile)
from gfomlab.cli import parse_config, run_experiment
from gfomlab.ensembles import constant_profile
from gfomlab.programs import build_tanh_iteration, tanh_map
from gfomlab.state_evolution import (amp_se_asymmetric, amp_se_symmetric,
                                     predict_entrywise, se_asymmetric,
                                     se_symmetric)

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem != "records")
RECORDS = GOLDEN / "records.json"


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
RECORD_CASES = [f"{b}/{k}" for b in BUILDERS for k in PROFILES]


def _record_digest(case):
    builder, kind = case.split("/")
    rec = _build(builder, kind)
    h = hashlib.sha256(repr(rec.fd_gap).encode())

    def put(a):
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())

    for name, side in rec.sides.items():
        h.update(name.encode())
        for a in (side.law.x0, side.law.cov, side.law.cov_se,
                  *side.coeffs, *side.coeffs_se):
            put(a)
        for t in (1, T):
            for a in predict_entrywise(rec, np.arange(side.law.coords), np.tanh,
                                       side=name, t=t, n_paths=3000, seed=77):
                put(a)
    return h.hexdigest()


@pytest.mark.parametrize("case", RECORD_CASES)
def test_records_match_golden_digests(case):
    assert _record_digest(case) == json.loads(RECORDS.read_text())[case]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            (GOLDEN / case).mkdir(exist_ok=True)
            for name, data in _artifacts(case, work).items():
                (GOLDEN / case / name).write_bytes(data)
    digests = {case: _record_digest(case) for case in RECORD_CASES}
    RECORDS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
