"""Config files, dispatch, artifacts, manifests, exit codes."""

import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gfomlab.cli import (
    config_hash,
    emit_plot_data,
    main,
    parse_config,
    run_experiment,
)
from gfomlab.errors import ConfigError, NumericalError
from gfomlab.harness import (ExperimentConfig, Statistic, comparison_report,
                             delocalization_report, list_experiments,
                             write_json)
import test_harness as th


def write_config(tmp_path, name="cfg.json", **overrides):
    data = dict(experiment="universality_averaged", program="tanh_gfom",
                n=20, T=2, replicates=4, seed=0, mc_samples=500)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# config files

def test_minimal_config_gets_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text('{"experiment": "se_vs_simulation", '
                    '"program": "power_iteration", "n": 100, "T": 2}')
    cfg = parse_config(path)
    assert cfg.replicates == 50 and cfg.psi == "square"
    assert cfg.law_a == "gaussian" and cfg.seed == 0


def test_parse_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, n=-5))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, horizon=3))
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.json")


@pytest.mark.parametrize("key,value", [
    ("seed", -1), ("seed", 1.5), ("seed", "7"), ("seed", True),
    ("n", 20.0), ("n", "20"), ("m", 1.5), ("T", True), ("replicates", 4.5),
    ("mc_samples", "500"),
    ("coordinates", [1.5]), ("coordinates", ["a"]), ("coordinates", 3),
    ("coordinates", [True]), ("coordinates", []), ("coordinates", [-1]),
    ("law_a_param", "x"), ("law_b_param", "x"),
    ("law_b_param", float("inf")), ("law_a_param", False),
])
def test_main_rejects_non_integer_counts_and_negative_seeds(tmp_path, capsys,
                                                            key, value):
    path = write_config(tmp_path, **{key: value})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{key} must be" in capsys.readouterr().err


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "experiment": ,\n}')
    with pytest.raises(ConfigError, match=r"line 2 column"):
        parse_config(path)


def test_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path, law_b="rademacher",
                                    program_params={}))
    out = tmp_path / "serialized.json"
    write_json(out, cfg.to_dict())
    assert parse_config(out) == cfg


def test_config_hash_stable_under_key_reordering(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"experiment": "decay", "program": "pgd_linear", '
                 '"n": 30, "m": 20, "T": 5}')
    b.write_text('{"T": 5, "m": 20, "n": 30, "program": "pgd_linear", '
                 '"experiment": "decay"}')
    ha, hb = config_hash(parse_config(a)), config_hash(parse_config(b))
    assert ha == hb and len(ha) == 64
    c = parse_config(write_config(tmp_path, seed=7))
    assert config_hash(c) != ha


# ---------------------------------------------------------------------------
# plot data

def test_plot_data_reads_step_from_labels(tmp_path):
    rows = [Statistic("psi_avg[t=1]", 1.0, 0.9, 0.05, 0.2),
            Statistic("psi_avg[t=2]", 2.0, 1.8, 0.06, 0.24),
            Statistic("overall", 3.0, 3.0, 0.0, 0.1)]
    rep = comparison_report("demo", rows)
    path = tmp_path / "plot.csv"
    emit_plot_data(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "series,x,y,y_err"
    assert lines[1].startswith("psi_avg[t=1],1,")
    assert lines[2].startswith("psi_avg[t=2],2,")
    # no step in the label: falls back to the row index
    assert lines[3].startswith("overall,2,")
    got_gap = float(lines[1].split(",")[2])
    assert got_gap == rows[0].gap


def test_plot_data_empty_report_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_plot_data(comparison_report("empty", []), path)
    assert path.read_text() == "series,x,y,y_err\n"


def test_plot_data_decay_rows(tmp_path):
    report = th.convergence_decay_report(th._ridge_problem(3, n=30, m=40), 5)
    path = tmp_path / "decay_plot.csv"
    emit_plot_data(report, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 6
    assert lines[1].startswith("l2_over_sqrt_n,0,")
    assert lines[7].startswith("sup_norm,0,")
    assert all(line.endswith(",0") for line in lines[1:])


def test_plot_data_delocalization_rows(tmp_path):
    report = delocalization_report(np.ones((2, 10)))
    path = tmp_path / "deloc_plot.csv"
    emit_plot_data(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[1].startswith("z,0,1,")


# ---------------------------------------------------------------------------
# run_experiment and manifests

def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(write_config(tmp_path, law_b="gaussian", seed=3))
    out = tmp_path / "out"
    manifest = run_experiment(cfg, out)
    assert manifest.status == "complete"
    assert manifest.passed is True
    assert manifest.config_hash == config_hash(cfg)
    assert set(manifest.versions) == {"artifact", "numpy", "scipy"}
    datetime.datetime.fromisoformat(manifest.started)
    datetime.datetime.fromisoformat(manifest.finished)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "universality_averaged.csv",
                     "universality_averaged.json",
                     "universality_averaged_plot.csv"]
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["status"] == "complete"
    assert saved["config"]["n"] == 20
    report = json.loads((out / "universality_averaged.json").read_text())
    assert report["passed"] is True


def test_run_experiment_dry_run(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out = tmp_path / "dry"
    manifest = run_experiment(cfg, out, dry_run=True)
    assert manifest.status == "dry-run"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert manifest.passed is None


def test_run_experiment_partial_manifest_on_failure(tmp_path):
    cfg = ExperimentConfig(experiment="gd_gaussianity", program="gd_ridge",
                           n=10, m=16, T=2, replicates=4, seed=0,
                           program_params={"eta": 1e6})
    out = tmp_path / "broken"
    with pytest.raises(NumericalError):
        run_experiment(cfg, out)
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["status"] == "partial"
    assert saved["error"].startswith("NumericalError")
    assert saved["passed"] is None
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cfg = parse_config(write_config(tmp_path, law_b="rademacher", seed=5))
        run_experiment(cfg, out)
    for name in ("universality_averaged.csv", "universality_averaged_plot.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_fields_reingest_exactly(tmp_path):
    cfg = parse_config(write_config(tmp_path, law_b="rademacher", seed=9))
    out = tmp_path / "exact"
    run_experiment(cfg, out)
    report = json.loads((out / "universality_averaged.json").read_text())
    lines = (out / "universality_averaged.csv").read_text().strip().split("\n")
    for line, st in zip(lines[1:], report["statistics"]):
        parts = line.split(",")
        assert float(parts[1]) == st["estimate_a"]
        assert float(parts[2]) == st["estimate_b"]
        assert float(parts[3]) == st["gap"]
        assert float(parts[4]) == st["se"]


# ---------------------------------------------------------------------------
# command line entry point

def test_main_run_pass_and_overrides(tmp_path, capsys):
    path = write_config(tmp_path, law_b="gaussian", seed=0)
    out = tmp_path / "cli_out"
    code = main(["run", "--config", str(path), "--out", str(out),
                 "--seed", "12", "--replicates", "6"])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["master_seed"] == 12
    assert saved["config"]["replicates"] == 6


def test_main_run_tolerance_failure_exit_1(tmp_path, capsys):
    # about one large entry per row under law B moves psi = abs by 6 to 10
    # SE at t=2 (seeds 0-9), well beyond the 4-SE gate
    path = write_config(tmp_path, n=200, replicates=30, psi="abs",
                        law_b="shifted_bernoulli", law_b_param=0.005)
    code = main(["run", "--config", str(path), "--out",
                 str(tmp_path / "fail_out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_config_error_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, program="nope")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("blocked,extra", [
    (None, []), ("universality_averaged.csv", []),
    ("manifest.json", ["--dry-run"])])
def test_main_unwritable_output_exit_2(tmp_path, capsys, blocked, extra):
    # an output path that cannot be written is a configuration error, not a
    # traceback with exit 1, which means a tolerance failure
    path = write_config(tmp_path)
    out = tmp_path / "out"
    if blocked is None:
        out.write_text("a file where the output directory goes")
        target = out
    else:
        target = out / blocked
        target.mkdir(parents=True)
    code = main(["run", "--config", str(path), "--out", str(out), *extra])
    assert code == 2
    assert (f"configuration error: cannot write to {target}: "
            in capsys.readouterr().err)


def test_cli_module_path_runs_main(tmp_path):
    # ``python -m gfomlab.cli`` is the same entry point as ``python -m
    # gfomlab``: a bad config exits 2 instead of skipping the run
    path = write_config(tmp_path, program="nope")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "gfomlab.cli", "run", "--config",
                          str(path), "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    assert "configuration error" in out.stderr
    # the module runs once, not as a second copy after the package import
    assert "RuntimeWarning" not in out.stderr


def test_main_rejects_bad_program_param_value_exit_2(tmp_path, capsys):
    # a value the plan builder cannot convert is a configuration error, not
    # a failed verdict
    path = write_config(tmp_path, program="gd_ridge", m=16,
                        program_params={"eta": "x"})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "eta must be a finite number" in capsys.readouterr().err


def test_main_numerical_error_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, experiment="gd_gaussianity",
                        program="gd_ridge", m=16, n=10,
                        program_params={"eta": 1e6})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o3")])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_main_dry_run(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "dry_cli"
    code = main(["run", "--config", str(path), "--out", str(out), "--dry-run"])
    assert code == 0
    assert "dry-run" in capsys.readouterr().out
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_main_validate(tmp_path, capsys):
    good = write_config(tmp_path)
    assert main(["validate", "--config", str(good)]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write_config(tmp_path, name="bad.json", replicates=1)
    assert main(["validate", "--config", str(bad)]) == 2


def test_main_validate_rejects_program_the_experiment_cannot_read(tmp_path, capsys):
    # caught before any plan is built, so tanh_amp's limit law never runs
    path = write_config(tmp_path, experiment="gd_gaussianity", program="tanh_amp")
    assert main(["validate", "--config", str(path)]) == 2
    assert "gd_gaussianity needs program gd_ridge" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    (dict(experiment="se_vs_simulation", n=50, replicates=5,
          law_b="rademacher", mc_samples=200), "law_b"),
    (dict(experiment="gd_gaussianity", program="gd_ridge", m=30,
          law_b="rademacher"), "law_b"),
    (dict(law_b_param=0.3), "law_b_param"),
])
def test_main_validate_rejects_a_law_b_the_run_would_ignore(tmp_path, capsys,
                                                            overrides, key):
    # an experiment that draws law A alone never reads law B, and law B's
    # parameter means nothing without law B
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 2
    assert f"{key} " in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    (dict(program="power_iteration", m=20), "m"),
    (dict(m=20), "m"),
    (dict(program="tanh_amp", m=20), "m"),
    (dict(program="logistic", m=16, program_params={"prox_lam": 0.2}),
     "prox_lam"),
    (dict(program="pgd_linear", m=16,
          program_params={"prox": "zero", "prox_lam": 0.2}), "prox_lam"),
    (dict(program="pgd_linear", m=16, program_params={"prox_lam": 0.2}),
     "prox_lam"),
    (dict(program="logistic", m=16,
          program_params={"prox": "zero", "prox_lam": 0.2}), "prox_lam"),
    (dict(experiment="decay", program="pgd_linear", m=16), "replicates"),
    (dict(experiment="delocalization"), "replicates"),
    (dict(experiment="gd_gaussianity", program="gd_ridge", m=16, psi="abs"),
     "psi"),
    (dict(experiment="decay", program="pgd_linear", m=16, psi="abs"), "psi"),
    (dict(experiment="delocalization", psi="abs"), "psi"),
    (dict(coordinates=[1]), "coordinates"),
    (dict(experiment="se_vs_simulation", coordinates=[1]), "coordinates"),
    (dict(experiment="decay", program="pgd_linear", m=16, coordinates=[1]),
     "coordinates"),
    (dict(experiment="delocalization", coordinates=[1]), "coordinates"),
])
def test_main_validate_rejects_keys_the_run_would_ignore(tmp_path, capsys,
                                                         overrides, key):
    # m on an n x n program, a prox weight without a prox to weigh, and
    # replicates, psi or coordinates where the experiment reads none: each
    # used to be accepted and ignored
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 2
    assert f"configuration error: {key} is read only by" in capsys.readouterr().err


def test_main_validate_rejects_a_subsample_that_decay_ignores(tmp_path, capsys):
    # decay runs the full sample, so with subsample it used to write the
    # full-sample run's decay.csv byte for byte
    data = dict(experiment="decay", program="gd_ridge", n=20, m=40, T=5)
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(dict(data, program_params={"subsample": 0.5})))
    assert main(["validate", "--config", str(path)]) == 2
    assert ("configuration error: decay runs the full sample and ignores "
            "subsample" in capsys.readouterr().err)


def test_main_validate_rejects_logistic_at_n_1(tmp_path, capsys):
    # the score clamp 20 log n is 0 at n = 1: validate said "config ok", and
    # run exited 2 on a clamp that no config key sets
    data = dict(experiment="delocalization", program="logistic", n=1, m=4)
    path = tmp_path / "logistic.json"
    path.write_text(json.dumps(data))
    for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
        assert main(command + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: n must be >= 2 for logistic" in err
        assert "clamp must be" not in err
    assert not (tmp_path / "o").exists()
    path.write_text(json.dumps(dict(data, n=2)))
    assert main(["validate", "--config", str(path)]) == 0


def _run_decay_with_replicates(tmp_path, capsys, replicates):
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(dict(experiment="decay", program="pgd_linear",
                                    n=20, m=16, T=3)))
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out),
                 "--replicates", replicates])
    assert code == 2
    assert ("configuration error: replicates is read only by"
            in capsys.readouterr().err)
    assert not out.exists()


def test_main_run_rejects_a_replicates_override_the_run_would_ignore(
        tmp_path, capsys):
    _run_decay_with_replicates(tmp_path, capsys, "6")


def test_main_run_rejects_the_default_replicates_where_the_run_ignores_it(
        tmp_path, capsys):
    # 50 is the default replicate count, which decay ignores all the same
    _run_decay_with_replicates(tmp_path, capsys, "50")


@pytest.mark.parametrize("experiment", list_experiments())
def test_config_written_by_to_dict_parses_again(tmp_path, experiment):
    # to_dict writes every key: those the experiment reads at their
    # defaults, those it ignores as null
    cfg = ExperimentConfig(experiment=experiment, program="gd_ridge", n=20,
                           m=30).validate()
    reads = {"universality_averaged": ("replicates", "psi"),
             "universality_entrywise": ("replicates", "psi", "coordinates"),
             "se_vs_simulation": ("replicates", "psi"),
             "gd_gaussianity": ("replicates", "coordinates")}.get(experiment, ())
    defaults = {"replicates": 50, "psi": "square", "coordinates": [0]}
    for key, value in defaults.items():
        assert getattr(cfg, key) == (value if key in reads else None), key
    assert cfg.law_b is None
    path = tmp_path / "cfg.json"
    write_json(path, cfg.to_dict())
    assert parse_config(path) == cfg


@pytest.mark.parametrize("overrides", [
    dict(experiment="universality_entrywise", coordinates=[2, 2]),
    dict(experiment="gd_gaussianity", program="gd_ridge", m=16,
         coordinates=[1, 0, 1]),
])
def test_main_rejects_repeated_coordinates(tmp_path, capsys, overrides):
    # a repeated coordinate used to write its rows twice, and
    # report.statistic(label) found only the first of them
    path = write_config(tmp_path, **overrides)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("configuration error: coordinates must not repeat"
            in capsys.readouterr().err)


@pytest.mark.parametrize("overrides, key", [
    (dict(program=["tanh_gfom"]), "program"),
    (dict(program={"a": 1}), "program"),
    (dict(psi=["square"]), "psi"),
])
def test_main_validate_rejects_a_name_that_is_not_a_string(tmp_path, capsys,
                                                           overrides, key):
    # a list or an object where a name goes used to reach the menu lookup
    # and die there with a TypeError traceback and exit 1
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {key} must be a string" in err
    assert "Traceback" not in err


def test_main_validate_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    # read as UTF-8 whatever the locale; a byte that does not decode used to
    # escape as a UnicodeDecodeError traceback with exit 1
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes().replace(b'"tanh_gfom"', b'"tanh_gfom\xff"'))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read config {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("program, params", [
    ("pgd_linear", {"eta": -1.0}),
    ("pgd_linear", {"eta": 0.0}),
    ("pgd_linear", {"prox": "lasso", "prox_lam": -1.0}),
    ("gd_ridge", {"lam": -1.0}),
    ("gd_ridge", {"eta": -0.5}),
    ("logistic", {"sigma": -1.0}),
])
def test_main_validate_runs_the_builders_range_checks(tmp_path, capsys, program, params):
    # a value the program builder rejects exits 2 at validate, not at run
    path = write_config(tmp_path, program=program, m=16, program_params=params)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config ok" not in capsys.readouterr().out


def test_main_listings(capsys):
    assert main(["list-programs"]) == 0
    out = capsys.readouterr().out
    for name in ("power_iteration", "tanh_gfom", "tanh_amp", "pgd_linear",
                 "gd_ridge", "logistic"):
        assert name in out
    assert main(["list-experiments"]) == 0
    listed = capsys.readouterr().out.strip().split("\n")
    assert "universality_averaged" in listed and "decay" in listed
