"""One benchmark sample, run in a fresh process.

    python3 child.py CONFIG OUT_DIR SPAWNED_AT MODE

MODE is ``probe`` (set-up only), ``plain`` or ``traced``.  SPAWNED_AT is the
parent's ``time.monotonic()`` just before it started this process; the
system-wide monotonic clock makes the two readings comparable.  The child
prints one JSON object on stdout: its set-up time, and for a run the run
time, verdict, artifact digests, its own peak RSS and, when traced, the
per-layer span summary.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _environment():
    import platform

    import numpy
    import scipy

    def blas(config):
        return config["Build Dependencies"]["blas"].get("openblas configuration")

    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy.show_config(mode="dicts")),
            "scipy_openblas": blas(scipy.show_config(mode="dicts"))}


def _report_counters(report_path):
    report = json.loads(report_path.read_text())
    ratios = [abs(st["gap"]) / st["tolerance"]
              for st in report["statistics"] if st["tolerance"] > 0]
    return {"replicates": report["details"]["replicates_used"],
            "divergent": sum(report["divergent"].values()),
            "gate_ratio_max": max(ratios, default=0.0)}


def main(argv):
    config_path, out_dir, spawned_at, mode = argv
    import gfomlab
    from gfomlab.cli import parse_config, run_experiment
    config = parse_config(config_path)
    result = {"setup_s": time.monotonic() - float(spawned_at),
              "package": gfomlab.__file__}
    if mode == "probe":
        result["env"] = _environment()
        print(json.dumps(result))
        return 0
    tracer = None
    if mode == "traced":
        from spans import Tracer
        tracer = Tracer().install()
    tic = time.perf_counter()
    manifest = run_experiment(config, out_dir)
    result["run_s"] = time.perf_counter() - tic
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = Path(out_dir)
    stem = config.experiment
    result["passed"] = bool(manifest.passed)
    result["digests"] = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in (f"{stem}.csv", f"{stem}_plot.csv")}
    result["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    result.update(_report_counters(out / f"{stem}.json"))
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
