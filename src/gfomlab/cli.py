"""Config parsing, experiment dispatch, artifact persistence, exit codes.

Config files are JSON with a fixed key set (unknown keys are rejected so
typos fail loudly).  Every run is a pure function of (config, master seed):
the manifest records a canonical config hash so reruns can be audited.
Exit codes: 0 pass, 1 tolerance failure, 2 configuration error (an output
path that cannot be written among them), 3 numerical error.
"""

import argparse
import contextlib
import dataclasses
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from .errors import ConfigError, NumericalError
from .harness import (ExperimentConfig, list_experiments, list_programs,
                      run_named_experiment, write_csv, write_json)


def parse_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(data)


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


@contextlib.contextmanager
def _writing(out):
    """Report an OSError raised while writing into ``out`` as a ConfigError
    naming the path: the output path is part of the run's configuration."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write to {exc.filename or out}: "
                          f"{exc.strerror or exc}") from exc


def run_experiment(config, out_dir, dry_run=False):
    config.validate()
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_hash=config_hash(config),
                           master_seed=config.seed, versions=_versions(),
                           started=_now(), config=config.to_dict())
    manifest_path = out / "manifest.json"
    if dry_run:
        manifest.status = "dry-run"
        manifest.finished = _now()
        manifest.outputs = [str(manifest_path)]
        with _writing(out):
            manifest.save(manifest_path)
        return manifest
    try:
        report = run_named_experiment(config)
    except Exception as exc:
        manifest.status = "partial"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.finished = _now()
        with _writing(out):
            manifest.save(manifest_path)
        raise
    stem = config.experiment
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    plot_path = out / f"{stem}_plot.csv"
    with _writing(out):
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


def emit_plot_data(report, path):
    """CSV (series, x, y, y_err) of the report's plot rows, for external
    plotting."""
    write_csv(path, "series,x,y,y_err", report.plot_rows())


def _apply_overrides(config, args):
    """The config with ``--seed`` and ``--replicates`` applied; the run
    validates it."""
    updates = {key: getattr(args, key) for key in ("seed", "replicates")
               if getattr(args, key) is not None}
    return dataclasses.replace(config, **updates)


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


if __name__ == "__main__":
    sys.exit(main())
