"""Config parsing, experiment dispatch, artifact persistence, exit codes.

Config files are JSON with a fixed key set (unknown keys are rejected so
typos fail loudly).  Every run is a pure function of (config, master seed):
the manifest records a canonical config hash so reruns can be audited.
Exit codes: 0 pass, 1 tolerance failure, 2 configuration error,
3 numerical error.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import scipy

from .errors import ConfigError, NumericalError
from .harness import (ComparisonReport, DecayReport, DelocalizationReport,
                      ExperimentConfig, list_experiments, list_programs,
                      run_named_experiment, write_json, write_lines)


def parse_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(data)


def serialize_config(config, path):
    write_json(path, config.to_dict())


def config_hash(config):
    """sha256 of the canonical (sorted-key) JSON form; insensitive to the
    key order of the source file."""
    canon = json.dumps(config.to_dict(), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _versions():
    from . import __version__
    return {"artifact": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


@dataclasses.dataclass
class RunManifest:
    config_hash: str
    master_seed: int
    versions: dict
    started: str
    finished: str | None = None
    outputs: list = dataclasses.field(default_factory=list)
    status: str = "running"
    passed: bool | None = None
    error: str | None = None
    config: dict | None = None

    def to_json_dict(self):
        return dataclasses.asdict(self)

    def save(self, path):
        write_json(path, self.to_json_dict())


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def run_experiment(config, out_dir, dry_run=False):
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_hash=config_hash(config),
                           master_seed=config.seed, versions=_versions(),
                           started=_now(), config=config.to_dict())
    manifest_path = out / "manifest.json"
    if dry_run:
        manifest.status = "dry-run"
        manifest.finished = _now()
        manifest.outputs = [str(manifest_path)]
        manifest.save(manifest_path)
        return manifest
    try:
        report = run_named_experiment(config)
    except Exception as exc:
        manifest.status = "partial"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.finished = _now()
        manifest.save(manifest_path)
        raise
    stem = config.experiment
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    plot_path = out / f"{stem}_plot.csv"
    report.to_csv(csv_path)
    report.save_json(json_path)
    emit_plot_data(report, plot_path)
    manifest.outputs = [str(csv_path), str(json_path), str(plot_path),
                        str(manifest_path)]
    manifest.status = "complete"
    manifest.passed = report.passed
    manifest.finished = _now()
    manifest.save(manifest_path)
    return manifest


_T_IN_LABEL = re.compile(r"\bt=(\d+)")


def _plot_rows(report):
    if isinstance(report, ComparisonReport):
        for i, st in enumerate(report.statistics):
            hit = _T_IN_LABEL.search(st.label)
            x = int(hit.group(1)) if hit else i
            yield (st.label, x, st.gap, st.se)
    elif isinstance(report, DecayReport):
        for t, l2, linf in report.rows:
            yield ("l2_over_sqrt_n", t, l2, 0.0)
        for t, l2, linf in report.rows:
            yield ("sup_norm", t, linf, 0.0)
    elif isinstance(report, DelocalizationReport):
        for r in report.rows:
            yield (r["track"], r["t"], r["ratio"], 0.0)
    else:
        raise ConfigError(f"cannot plot report of type {type(report).__name__}")


def emit_plot_data(report, path):
    """CSV (series, x, y, y_err) for external plotting.

    ``report`` is a single report, or a list of (x, ComparisonReport) pairs
    for sweeps (one series per statistic label, x as given).
    """
    lines = ["series,x,y,y_err"]
    if isinstance(report, list):
        for x, rep in report:
            for st in rep.statistics:
                lines.append(f"{st.label},{x:.17g},{st.gap:.17g},{st.se:.17g}")
    else:
        for series, x, y, yerr in _plot_rows(report):
            lines.append(f"{series},{x},{y:.17g},{yerr:.17g}")
    write_lines(path, lines)


def _apply_overrides(config, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.replicates is not None:
        updates["replicates"] = args.replicates
    if updates:
        config = dataclasses.replace(config, **updates)
        config.validate()
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gfomlab",
        description="first-order-method simulation and verification laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--replicates", type=int, default=None)
    run_p.add_argument("--dry-run", action="store_true")
    val_p = sub.add_parser("validate", help="check a config file")
    val_p.add_argument("--config", required=True)
    sub.add_parser("list-programs", help="known iteration programs")
    sub.add_parser("list-experiments", help="known experiment kinds")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(parse_config(args.config), args)
            manifest = run_experiment(config, args.out, dry_run=args.dry_run)
            if manifest.status == "dry-run":
                print(f"dry-run: manifest written to {manifest.outputs[0]}")
                return 0
            print(f"experiment {config.experiment}: "
                  f"{'pass' if manifest.passed else 'FAIL'} "
                  f"({len(manifest.outputs)} artifacts in {args.out})")
            return 0 if manifest.passed else 1
        if args.command == "validate":
            config = parse_config(args.config)
            print(f"config ok: experiment={config.experiment} "
                  f"program={config.program} hash={config_hash(config)[:12]}")
            return 0
        if args.command == "list-programs":
            for name, desc in list_programs():
                print(f"{name}: {desc}")
            return 0
        for name in list_experiments():
            print(name)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
