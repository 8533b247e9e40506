"""Self-checks of the benchmark.

    python3 -m pytest -q perfbench

Every layer span a workload should exercise must fire, so that an import
refactor in ``src/`` cannot silently drop a layer to 0 s; tracing must not
change the artifacts.  The workloads run here with fewer replicates and
Monte Carlo samples, which keeps the same calls.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

import run


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_spans_fire_and_tracing_keeps_bytes(workload, work):
    config = dict(run.WORKLOADS[workload]["config"], seed=0, replicates=3,
                  mc_samples=2000)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    plain = run.run_child(config_path, work / "plain", "plain", 120)
    traced = run.run_child(config_path, work / "traced", "traced", 120)
    assert traced["missing_targets"] == []
    assert run.missing_layers(workload, traced) == []
    assert traced["digests"] == plain["digests"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_leaves_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(40))) == {"pct": 75.0, "value": 29}
