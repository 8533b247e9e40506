"""Closed-loop benchmark of gfomlab experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports gfomlab from ``src/`` there.
One client sends one experiment at a time and waits for it: every sample is
a fresh child process (``child.py``) that imports the package, parses the
config and calls ``gfomlab.cli.run_experiment`` once, as ``gfomlab run``
does.  Four set-up-only children come first; then, for ``--seconds``, a
sample starts only if it should end within that window, judged by the
length of the one before it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced samples alternate and the last line
carries the per-layer metrics of the traced ones (see ``spans.py``).  The
line before it holds medians with sample counts, tail percentiles, failure
reasons, digests and the pinned environment.  README.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

# One BLAS thread: with two, CPU time doubled for the same wall time.
BLAS_THREADS = 1
# Set-up-only children per run, after one untimed warm-up that fills the
# bytecode and file caches (users pay neither on every run).  Set-up time
# of identical children ranged over 0.77-1.28 s, so take several.
SETUP_PROBES = 4
# The whole run, warm-up included, must end well within 180 s.
DEADLINE_S = 170.0

_GD = {"eta": 0.2, "lam": 0.1}

WORKLOADS = {
    # acceptance criterion 6: symmetric sampler through matched_pair, two
    # entry-law transforms; sampling is about 90% of the run
    "universality_sym": {
        "config": {"experiment": "universality_averaged",
                   "program": "tanh_amp", "n": 1000, "T": 3,
                   "replicates": 50, "psi": "square", "law_b": "rademacher",
                   "mc_samples": 20000},
        "layers": ("harness.self", "programs.build", "ensembles.sample",
                   "ensembles.spec", "dynamics.iterate",
                   "state_evolution.se", "cli.write"),
    },
    # acceptance criterion 5: asymmetric sampler plus gradient descent,
    # 1000-replicate loop and KS test; the limit law is exact here
    "gd_gaussianity": {
        "config": {"experiment": "gd_gaussianity", "program": "gd_ridge",
                   "n": 400, "m": 800, "T": 3, "replicates": 1000,
                   "coordinates": [0, 1, 2, 3, 4], "program_params": _GD},
        "layers": ("harness.self", "programs.build", "ensembles.sample",
                   "ensembles.spec", "erm.gd", "gd_se.se", "cli.write"),
    },
    # two-sided limit-law engine plus its entrywise read-out; sampling is
    # about 1%, so every sampling change bypasses it.  50 replicates, not 5:
    # with 5 the standard error has 4 degrees of freedom and the 4-sigma
    # gate failed on 1 seed in 20.
    "limit_law_gd_ridge": {
        "config": {"experiment": "se_vs_simulation", "program": "gd_ridge",
                   "n": 200, "m": 400, "T": 3, "replicates": 50,
                   "mc_samples": 20000, "program_params": _GD},
        "layers": ("harness.self", "programs.build", "ensembles.sample",
                   "ensembles.spec", "dynamics.iterate",
                   "state_evolution.se", "state_evolution.predict",
                   "cli.write"),
    },
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}

PER_LAYER = {
    "ensembles.sample_s": "s", "ensembles.entries": "count",
    "ensembles.ns_per_entry": "ns", "ensembles.spec_s": "s",
    "programs.build_s": "s",
    "dynamics.iterate_s": "s", "dynamics.matvecs": "count",
    "dynamics.matvec_gbps": "GB/s",
    "erm.gd_s": "s",
    "state_evolution.se_s": "s", "state_evolution.predict_s": "s",
    "state_evolution.predict_calls": "count",
    "state_evolution.rss_growth_mb": "MB",
    "gd_se.se_s": "s",
    "harness.self_s": "s", "harness.replicates": "count",
    "harness.divergent": "count", "harness.gate_ratio_max": "ratio",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "trace.run_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class ChildError(Exception):
    """One child process failed."""


class ChildTimeout(ChildError):
    """The run's deadline passed while a child was due or running."""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(config_path, out_dir, mode, timeout):
    """Run one child; return its JSON result or raise ChildError."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(config_path),
             str(out_dir), f"{spawned:.9f}", mode],
            env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildTimeout(f"{mode} child timed out after {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        raise ChildError(f"{mode} child exited {proc.returncode}: {lines[-1]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildError(f"gfomlab imported from {result['package']}, "
                         f"not from {SRC}")
    return result


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def timing(values):
    return {"median": statistics.median(values), "n": len(values),
            "tail": tail(values)}


def layer_metrics(sample):
    """Per-layer figures of one traced sample, keyed as in PER_LAYER."""
    layers = sample["layers"]

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    sample_s = get("ensembles.sample", "self_s")
    entries = get("ensembles.sample", "entries")
    iterate_s = get("dynamics.iterate", "self_s")
    return {
        "ensembles.sample_s": sample_s,
        "ensembles.entries": entries,
        "ensembles.ns_per_entry": 1e9 * sample_s / entries if entries else 0.0,
        "ensembles.spec_s": get("ensembles.spec", "self_s"),
        "programs.build_s": get("programs.build", "self_s"),
        "dynamics.iterate_s": iterate_s,
        "dynamics.matvecs": get("dynamics.iterate", "matvecs"),
        # computed bytes of A per product over the whole executor time
        "dynamics.matvec_gbps": (get("dynamics.iterate", "matvec_bytes")
                                 / iterate_s / 1e9) if iterate_s else 0.0,
        "erm.gd_s": get("erm.gd", "self_s"),
        "state_evolution.se_s": get("state_evolution.se", "self_s"),
        "state_evolution.predict_s": get("state_evolution.predict", "self_s"),
        "state_evolution.predict_calls": get("state_evolution.predict", "calls"),
        "state_evolution.rss_growth_mb":
            get("state_evolution.se", "rss_growth_mb")
            + get("state_evolution.predict", "rss_growth_mb"),
        "gd_se.se_s": get("gd_se.se", "self_s"),
        "harness.self_s": get("harness.self", "self_s"),
        "harness.replicates": sample["replicates"],
        "harness.divergent": sample["divergent"],
        "harness.gate_ratio_max": sample["gate_ratio_max"],
        "cli.write_s": get("cli.write", "self_s"),
        "cli.bytes_written": sample["bytes_written"],
        "trace.run_s": sample["run_s"],
    }


def missing_layers(workload, sample):
    """Layers the workload should exercise that the traced sample never hit."""
    return [layer for layer in WORKLOADS[workload]["layers"]
            if sample["layers"].get(layer, {}).get("calls", 0) == 0]


def recorded_digests(workload, seed):
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = table.get(workload, {}).get(str(seed))
    return None if entry is None else entry["digests"]


def measure(workload, seed, seconds, trace):
    """Run the closed loop; return (info, result) as printed."""
    if not (SRC / "gfomlab" / "__init__.py").is_file():
        raise BenchError(f"no gfomlab sources under {SRC}")
    start = time.monotonic()
    loadavg = os.getloadavg()
    recorded = recorded_digests(workload, seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        config = dict(WORKLOADS[workload]["config"], seed=seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        runs = 0

        def child(mode):
            nonlocal runs
            runs += 1
            remaining = DEADLINE_S - (time.monotonic() - start)
            if remaining <= 0:
                raise ChildTimeout("out of time before the child started")
            return run_child(config_path, work / f"out-{runs}", mode,
                             remaining)

        try:
            env = child("probe")["env"]
            setups = [child("probe")["setup_s"] for _ in range(SETUP_PROBES)]
        except ChildError as exc:
            raise BenchError(f"set-up failed: {exc}") from exc
        modes = ("plain", "traced") if trace else ("plain",)
        samples, failures = [], []
        attempted = 0
        t0 = time.monotonic()
        previous = 0.0  # wall time of the last sample, child start to exit
        while attempted < len(modes) or \
                time.monotonic() - t0 + previous <= seconds:
            mode = modes[attempted % len(modes)]
            attempted += 1
            tic = time.monotonic()
            try:
                sample = child(mode)
            except ChildTimeout as exc:
                failures.append(str(exc))
                break
            except ChildError as exc:
                failures.append(str(exc))
                continue
            finally:
                previous = time.monotonic() - tic
            sample["mode"] = mode
            samples.append(sample)
            setups.append(sample["setup_s"])
            if not sample["passed"]:
                failures.append(f"{mode} sample: verdict failed")
            elif recorded is not None and sample["digests"] != recorded:
                failures.append(f"{mode} sample: digests differ from the "
                                f"recorded ones")
            elif sample["digests"] != samples[0]["digests"]:
                failures.append(f"{mode} sample: digests differ from the "
                                f"first sample of this run")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_mode = {m: [s for s in samples if s["mode"] == m] for m in modes}
    if not all(by_mode.values()):
        raise BenchError("no sample completed in some mode: "
                         + "; ".join(failures))
    plain_run = [s["run_s"] for s in by_mode["plain"]]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "config": config,
        "env": dict(env, nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)),
                    loadavg_at_start=loadavg, blas_threads=BLAS_THREADS),
        "timings": {"run_s": timing(plain_run), "setup_s": timing(setups)},
        "failures": failures,
        "digests": samples[0]["digests"],
        "checked_against_recorded": recorded is not None,
    }
    if trace:
        traced = by_mode["traced"]
        per_sample = [layer_metrics(s) for s in traced]
        metrics = {name: statistics.median(m[name] for m in per_sample)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (metrics["trace.run_s"]
                                       - statistics.median(plain_run))
        units = PER_LAYER
        info["timings"]["trace.run_s"] = timing([s["run_s"] for s in traced])
        info["missing_layers"] = sorted({layer for s in traced
                                         for layer in missing_layers(workload, s)})
        info["missing_targets"] = traced[0]["missing_targets"]
        for layer in info["missing_layers"]:
            print(f"perfbench: warning: layer {layer} never ran on "
                  f"{workload}", file=sys.stderr)
    else:
        metrics = {
            "run_s": statistics.median(plain_run),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                             for s in by_mode["plain"]),
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
