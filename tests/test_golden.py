"""Golden artifacts: small configs whose CSV bytes are fixed by history.

Each ``golden/<case>.json`` runs through ``cli.run_experiment``; its
``{experiment}.csv`` and ``{experiment}_plot.csv`` must equal the files kept
in ``golden/<case>/`` byte for byte.  A change that alters them on purpose
re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which bytes moved and why.
"""

import tempfile
from pathlib import Path

import pytest

from gfomlab.cli import parse_config, run_experiment

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


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


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            (GOLDEN / case).mkdir(exist_ok=True)
            for name, data in _artifacts(case, work).items():
                (GOLDEN / case / name).write_bytes(data)
