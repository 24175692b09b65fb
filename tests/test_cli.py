"""CLI: subcommands, override precedence, exit codes."""

import json
import re
from argparse import Namespace

import pytest

from prb_oracle import cli, rapp
from prb_oracle.cli import (
    _resolve_run_config,
    default_config_path,
    dispatch,
    write_default_config,
)
from prb_oracle.forecasters import TrainingDiverged
from prb_oracle.rapp import ExperimentConfig
from prb_oracle.traces import load_csv

TINY_CONFIG = {
    "seed": 3,
    "train_fraction": 0.8,
    "percentiles": [0.1, 0.5, 0.9],
    "trace": {"kind": "synthetic", "weeks": 2, "seed": 11},
    "models": {
        "sff": {"epochs": 1, "num_samples": 10},
        "lstm": {"epochs": 1},
    },
}


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def _run_args(**kw):
    defaults = dict(config=None, seed=None, out=None, models=None, percentiles=None)
    return Namespace(**{**defaults, **kw})


def test_bundled_default_config_is_valid():
    doc = json.loads(default_config_path().read_text())
    ExperimentConfig.from_dict(doc)
    assert doc["train_fraction"] == 0.8
    assert doc["max_prb"] == 160
    assert doc["trace"]["weeks"] == 10
    assert "power" not in doc
    assert sorted(doc["models"]) == ["deepar", "lstm", "sff", "transformer"]
    for m in doc["models"].values():
        assert m["epochs"] == 5
    # Minibatches of 32 at lr 1e-2; the transformer at batch 8 and lr 3e-3.
    recipe = {kind: (m["batch_size"], m["lr"]) for kind, m in doc["models"].items()}
    assert recipe == {"sff": (32, 0.01), "deepar": (32, 0.01), "transformer": (8, 0.003),
                      "lstm": (32, 0.01)}
    assert doc["percentiles"] == [0.05, 0.25, 0.5, 0.75, 0.9, 0.99]


def test_write_default_config(tmp_path):
    copy = write_default_config(tmp_path / "default.json")
    assert copy.read_text() == default_config_path().read_text()


def test_gen_trace_round_trip(tmp_path, tiny_config_file):
    out = tmp_path / "trace.csv"
    status = dispatch(["gen-trace", "--config", str(tiny_config_file), "--out", str(out)])
    assert status == 0
    series = load_csv(out)
    assert len(series) == 2 * 168


def test_gen_trace_seed_override_changes_noise(tmp_path, tiny_config_file):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert dispatch(["gen-trace", "--config", str(tiny_config_file), "--out", str(a)]) == 0
    assert dispatch(["gen-trace", "--config", str(tiny_config_file), "--out", str(b), "--seed", "99"]) == 0
    assert dispatch(["gen-trace", "--config", str(tiny_config_file), "--out", str(c), "--seed", "99"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_run_happy_path_writes_four_tables_plus_report(tmp_path, tiny_config_file):
    out = tmp_path / "results"
    status = dispatch(["run", "--config", str(tiny_config_file), "--out", str(out)])
    assert status == 0
    for name in ("report.json", "table1.csv", "table2.csv", "hourly.csv", "provisioning.csv"):
        assert (out / name).exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["seed"] == 3
    assert sorted(doc["models"]) == ["lstm", "sff"]


def test_run_seed_override_deterministic(tmp_path, tiny_config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert dispatch(["run", "--config", str(tiny_config_file), "--seed", "7",
                     "--out", str(out_a), "--models", "sff"]) == 0
    assert dispatch(["run", "--config", str(tiny_config_file), "--seed", "7",
                     "--out", str(out_b), "--models", "sff"]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_run_does_not_mutate_config_file(tmp_path, tiny_config_file):
    before = tiny_config_file.read_bytes()
    dispatch(["run", "--config", str(tiny_config_file), "--out", str(tmp_path / "o"),
              "--models", "lstm"])
    assert tiny_config_file.read_bytes() == before


def test_inspect_prints_percentile_columns(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "results"
    dispatch(["run", "--config", str(tiny_config_file), "--out", str(out)])
    capsys.readouterr()
    assert dispatch(["inspect", str(out)]) == 0
    printed = capsys.readouterr().out
    header = printed.splitlines()[0]
    assert ("p10" in header) and ("p50" in header) and ("p90" in header)
    assert "true_data" in printed
    # sff rows carry one numeric cell per configured percentile
    sff_saving = [l for l in printed.splitlines() if l.startswith("sff") and "saving%" in l]
    assert len(sff_saving[0].split()) == 2 + len(TINY_CONFIG["percentiles"])


def test_inspect_missing_report_fails(tmp_path, capsys):
    assert dispatch(["inspect", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    (TINY_CONFIG, "no 'baselines' key"),  # a config file is not a report
    ({"baselines": {}, "models": {}}, "no 'percentiles' key"),
    ([1, 2], "no 'percentiles' key"),
    ("{not json", "not valid JSON (Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1))"),
    ({"percentiles": [0.5], "baselines": {"true_data": {"power_saving_percent": 1}},
      "models": {"sff": {}}}, "no 'models.sff.power_saving_percent' key"),
    ({"percentiles": 5}, "'percentiles' must be a list of numbers, got 5"),
    ({"percentiles": [0.5], "baselines": {"true_data": {"power_saving_percent": "x"}}},
     "'baselines.true_data.power_saving_percent' must be a number, got 'x'"),
    ({"percentiles": [0.5], "baselines": {"true_data": {"power_saving_percent": 1}},
      "models": {"sff": {"power_saving_percent": {"0.5": None}}}},
     "'models.sff.power_saving_percent.0.5' must be a number, got None"),
    ({"percentiles": [0.5], "baselines": {"true_data": {"power_saving_percent": 1.0}}, "models": 5},
     "'models' must be an object, got 5"),
])
def test_inspect_of_a_json_that_is_not_a_report_is_an_error_line(tmp_path, capsys, doc, message):
    path = tmp_path / "report.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert dispatch(["inspect", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path} is not a report: {message}\n")


def test_unknown_flag_nonzero_exit():
    assert dispatch(["run", "--bogus"]) != 0


def test_unreadable_config_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert dispatch(["run", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen-trace"])
@pytest.mark.parametrize("text, got", [("5", "a number"), ("[1, 2]", "an array"),
                                       ("null", "null"), ('"ab"', "a string")])
def test_a_config_that_is_not_a_json_object_is_an_error_line(tmp_path, capsys, command, text, got):
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert dispatch([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config {path} must be a JSON object, got {got}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"trace": {"wekes": 2}}, "unknown keys ['wekes'] in trace block"),
    ({"models": {"sff": {"epoch": 1}}}, "unknown keys ['epoch'] in models.sff block"),
    ({"trace": {"kind": "csv"}}, "csv trace block needs a 'path' key"),
    ({"trace": {"kind": "csv", "path": "t.csv", "weeks": 2}}, "unknown keys ['weeks'] in trace block"),
    ({"models": {"sff": {"kind": "lstm"}}}, "unknown keys ['kind'] in models.sff block"),
    ({"models": {"sff": {"seed": 12345}}}, "unknown keys ['seed'] in models.sff block"),
    ({"models": {"deepar": {"seed": 1}}}, "unknown keys ['seed'] in models.deepar block"),
    ({"models": {"lstm": {"epochs": 1, "heads": 4}}}, "unknown keys ['heads'] in models.lstm block"),
    ({"models": {"lstm": {"num_samples": 10}}}, "unknown keys ['num_samples'] in models.lstm block"),
    ({"models": {"transformer": {"hidden": [8]}}}, "unknown keys ['hidden'] in models.transformer block"),
    ({"models": {"sff": {"epochs": "2"}}}, "models.sff.epochs must be an integer, got '2'"),
    ({"trace": {"weeks": "2"}}, "trace.weeks must be an integer, got '2'"),
    ({"percentiles": 0.5}, "percentiles must be a list of numbers, got 0.5"),
    ({"max_prb": "160"}, "max_prb must be an integer, got '160'"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"train_fraction": "0.8"}, "train_fraction must be a number, got '0.8'"),
    ({"models": {"sff": {"hidden": 40}}}, "models.sff.hidden must be a list of integers, got 40"),
    ({"models": {"sff": {"hidden": [40, 4.5]}}}, "models.sff.hidden must be a list of integers, got [40, 4.5]"),
    ({"models": {"lstm": {"epochs": True}}}, "models.lstm.epochs must be an integer, got True"),
    ({"models": {"deepar": {"lr": "1e-3"}}}, "models.deepar.lr must be a number, got '1e-3'"),
    ({"percentiles": [0.5, "0.9"]}, "percentiles must be a list of numbers, got [0.5, '0.9']"),
    ({"percentiles": []}, "percentiles must be strictly increasing within (0,1), got ()"),
    ({"trace": {"kind": "csv", "path": 7}}, "trace.path must be a string, got 7"),
    ({"models": {"sff": {"lr": float("nan")}}}, "models.sff.lr must be finite and > 0, got nan"),
    ({"models": {"sff": {"lr": -0.5}}}, "models.sff.lr must be finite and > 0, got -0.5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"trace": {"seed": -3}}, "trace.seed must be >= 0, got -3"),
    ({"trace": {"weeks": 0}}, "trace.weeks must be >= 1, got 0"),
    ({"models": {"sff": {"num_samples": 0}}}, "models.sff.num_samples must be positive, got 0"),
    ({"max_prb": 0}, "max_prb must be >= 1, got 0"),
    ({"trace": {"base_load": 130.0}}, "trace.base_load + trace.daily_amplitude = 170.0 exceeds max_prb 160"),
    ({"models": {}}, "models block names no model"),
    ({"models": {"deepar": {"batch_size": 0}}}, "models.deepar.batch_size must be positive, got 0"),
    ({"train_fraction": 1.5}, "train_fraction must be in (0,1), got 1.5"),
    ({"models": {"sff": {"horizon": 12}}}, "unknown keys ['horizon'] in models.sff block"),
    ({"models": {"deepar": {"context_len": 24, "epochs": 1}}},
     "unknown keys ['context_len'] in models.deepar block"),
    ({"context_len": 0}, "context_len must be >= 1, got 0"),
    ({"horizon": 0}, "horizon must be >= 1, got 0"),
    ({"horizon": 2.5}, "horizon must be an integer, got 2.5"),
])
def test_bad_config_block_is_an_error_line(tmp_path, capsys, monkeypatch, doc, message):
    monkeypatch.setattr(rapp, "generate_synthetic", None)  # building a trace would raise
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["base_load", "daily_amplitude", "noise_std", "floor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_trace_float_is_an_error_line_naming_it(tmp_path, capsys, monkeypatch,
                                                            field, value):
    # json reads NaN and ±Infinity; such a trace would fail later on
    # non-finite values without naming the field, or clip to a constant.
    monkeypatch.setattr(rapp, "generate_synthetic", None)  # building a trace would raise
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trace": {field: value}}))
    assert dispatch(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: trace.{field} must be finite, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_gen_trace_rejects_a_bad_train_fraction(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train_fraction": 1.5}))
    out = tmp_path / "t.csv"
    assert dispatch(["gen-trace", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: train_fraction must be in (0,1), got 1.5\n"
    assert not out.exists()
    with pytest.raises(ValueError, match=r"train_fraction must be in \(0,1\), got 1.5"):
        ExperimentConfig(train_fraction=1.5)


def test_too_short_test_segment_names_the_settings_that_fix_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rapp, "fit", None)  # training would raise
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"train_fraction": 0.98, "trace": {"weeks": 2}}))
    assert dispatch(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: test segment of 7 hours (336-hour trace at train_fraction 0.98) shorter than "
        "context+horizon (24+24); lower train_fraction or lengthen the trace\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_batch_larger_than_the_train_windows_is_an_error_line(tmp_path, capsys, monkeypatch):
    # Such a run would take one step per epoch and report its savings
    # without a warning.
    monkeypatch.setattr(rapp, "fit", None)  # training would raise
    path = tmp_path / "big_batch.json"
    path.write_text(json.dumps({"trace": {"weeks": 2},
                                "models": {"lstm": {"batch_size": 221},
                                           "sff": {"batch_size": 100000}}}))
    assert dispatch(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: models.sff.batch_size 100000 exceeds the 221 windows of the 268-hour train split\n"
    )
    assert not (tmp_path / "out").exists()


def test_an_output_path_that_is_a_file_fails_before_training(tmp_path, tiny_config_file, capsys,
                                                            monkeypatch):
    def fit_must_not_run(*args, **kwargs):
        raise AssertionError("fit called before the output directory was checked")

    monkeypatch.setattr(rapp, "fit", fit_must_not_run)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert dispatch(["run", "--config", str(tiny_config_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot create output directory {out}: it is a file\n"
    assert out.read_text() == "not a directory"


def test_negative_seed_flag_is_an_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rapp, "generate_synthetic", None)  # building a trace would raise
    assert dispatch(["run", "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_diverged_training_is_an_error_line(tmp_path, tiny_config_file, capsys, monkeypatch):
    def diverge(config, train):
        raise TrainingDiverged(f"{config.kind}: non-finite loss nan at epoch 0, batch of window t0s [24, 61]")

    monkeypatch.setattr(rapp, "fit", diverge)
    status = dispatch(["run", "--config", str(tiny_config_file), "--out", str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err == "error: sff: non-finite loss nan at epoch 0, batch of window t0s [24, 61]\n"
    assert not (tmp_path / "out").exists()


def test_a_fit_that_really_diverges_prints_one_error_line(tmp_path, capsys):
    # The real path: numpy warns on the way to the nan (div, log, add), and
    # the test suite turns a RuntimeWarning into an error, so any warning
    # that escaped `dispatch` would fail this test.
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({"trace": {"weeks": 1}, "train_fraction": 0.7,
                                "models": {"sff": {"epochs": 1, "batch_size": 8, "lr": 1e6}}}))
    status = dispatch(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: sff: non-finite loss nan at epoch 0, batch of window t0s \[[\d, ]+\]\n", err), err
    assert not (tmp_path / "out").exists()


def test_unknown_model_subset_rejected(tiny_config_file, capsys):
    assert dispatch(["run", "--config", str(tiny_config_file), "--models", "deepar"]) == 1
    assert "not in config" in capsys.readouterr().err


@pytest.mark.parametrize("models", ["", ",", " , "])
def test_models_flag_naming_no_model_is_an_error_line(tmp_path, tiny_config_file, capsys,
                                                     monkeypatch, models):
    monkeypatch.setattr(rapp, "generate_synthetic", None)  # building a trace would raise
    status = dispatch(["run", "--config", str(tiny_config_file), "--models", models,
                       "--out", str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err == f"error: --models {models!r} names no model\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# override precedence: flag > file > built-in default
# ---------------------------------------------------------------------------

def test_precedence_three_way(tmp_path, monkeypatch):
    monkeypatch.delenv("PRB_ORACLE_OUT", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_CONFIG, "output_dir": "from_file", "seed": 3}))

    # flag beats file
    cfg = _resolve_run_config(_run_args(config=str(path), seed=9, out="from_flag"))
    assert cfg.seed == 9
    assert cfg.output_dir == "from_flag"

    # file beats built-in default
    cfg = _resolve_run_config(_run_args(config=str(path)))
    assert cfg.seed == 3
    assert cfg.output_dir == "from_file"

    # built-in default when neither flag nor file supplies a value
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(TINY_CONFIG))
    cfg = _resolve_run_config(_run_args(config=str(bare)))
    assert cfg.output_dir == "out"
    assert cfg.train_fraction == 0.8


def test_env_var_is_output_dir_fallback(tmp_path, monkeypatch):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(TINY_CONFIG))
    monkeypatch.setenv("PRB_ORACLE_OUT", "from_env")
    cfg = _resolve_run_config(_run_args(config=str(bare)))
    assert cfg.output_dir == "from_env"
    # flag still wins over the environment
    cfg = _resolve_run_config(_run_args(config=str(bare), out="from_flag"))
    assert cfg.output_dir == "from_flag"


def test_an_empty_env_var_counts_as_unset(tmp_path, monkeypatch):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(TINY_CONFIG))
    monkeypatch.setenv("PRB_ORACLE_OUT", "")
    assert _resolve_run_config(_run_args(config=str(bare))).output_dir == "out"


@pytest.mark.parametrize("env", [None, "from_env"])
@pytest.mark.parametrize("flags, doc", [(["--out", ""], {}), ([], {"output_dir": ""}),
                                        (["--out", ""], {"output_dir": "from_file"})])
def test_an_empty_output_path_is_an_error_line_not_a_fallback(tmp_path, capsys, monkeypatch,
                                                              env, flags, doc):
    # An unset shell variable in `--out "$OUT"` must not land a report in ./out.
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("PRB_ORACLE_OUT", raising=False)
    else:
        monkeypatch.setenv("PRB_ORACLE_OUT", env)
    monkeypatch.setattr(rapp, "generate_synthetic", None)  # building a trace would raise
    (tmp_path / "cfg.json").write_text(json.dumps({**TINY_CONFIG, **doc}))
    assert dispatch(["run", "--config", "cfg.json", *flags]) == 1
    assert capsys.readouterr().err == "error: output_dir must not be empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_gen_trace_rejects_an_empty_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate_synthetic", None)  # building a trace would raise
    assert dispatch(["gen-trace", "--out", ""]) == 1
    assert capsys.readouterr().err == "error: --out must name a file, got an empty path\n"
    assert list(tmp_path.iterdir()) == []


def test_percentiles_flag_sets_the_report_columns(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    assert dispatch(["run", "--config", str(tiny_config_file), "--models", "lstm",
                     "--percentiles", "0.25,0.75", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["percentiles"] == [0.25, 0.75]
    header = (out / "table2.csv").read_text().splitlines()[0].split(",")
    assert header[-2:] == ["p25", "p75"]


@pytest.mark.parametrize("levels, message", [
    ("0.5,x", "bad percentile list '0.5,x'"),
    ("0.9,0.5", "percentiles must be strictly increasing within (0,1), got (0.9, 0.5)"),
])
def test_bad_percentiles_flag_is_an_error_line(tmp_path, tiny_config_file, capsys, monkeypatch,
                                               levels, message):
    monkeypatch.setattr(rapp, "generate_synthetic", None)  # building a trace would raise
    status = dispatch(["run", "--config", str(tiny_config_file), "--percentiles", levels,
                       "--out", str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_percentile_override(tiny_config_file):
    cfg = _resolve_run_config(_run_args(config=str(tiny_config_file), percentiles="0.2,0.8"))
    assert cfg.percentiles == (0.2, 0.8)
    with pytest.raises(Exception, match="bad percentile"):
        _resolve_run_config(_run_args(config=str(tiny_config_file), percentiles="a,b"))
