"""Record the artifact digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py --seeds 16

Runs every workload once per seed 0..N-1 in a plain child, with the same
pinned environment as run.py, and writes perfbench/digests.json: the sha256
of ``{experiment}.csv`` and ``{experiment}_plot.csv`` and the verdict.
Record only on the commit whose artifact bytes are the reference; README.md
names it.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DEADLINE_S, DIGESTS, WORK, WORKLOADS, run_child


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    table = {}
    try:
        for name, workload in WORKLOADS.items():
            for seed in range(args.seeds):
                config_path = work / "config.json"
                config_path.write_text(
                    json.dumps(dict(workload["config"], seed=seed)))
                out = work / f"{name}-{seed}"
                sample = run_child(config_path, out, "plain", DEADLINE_S)
                table.setdefault(name, {})[str(seed)] = {
                    "digests": sample["digests"], "passed": sample["passed"]}
                print(f"{name} seed {seed}: passed={sample['passed']} "
                      f"run_s={sample['run_s']:.2f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
