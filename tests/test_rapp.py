"""Pipeline orchestration: config handling, report content, determinism, emission."""

import csv
import json
import re
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from prb_oracle import rapp
from prb_oracle.forecasters import (MODEL_KEYS, MODEL_KINDS, PROBABILISTIC_KINDS, ForecasterConfig,
                                    fit, predict)
from prb_oracle.metrics import point_errors
from prb_oracle.power import PowerParams, power_saving
from prb_oracle.rapp import (
    ExperimentConfig,
    PipelineError,
    _jsonify,
    emit_report,
    run_pipeline,
)
from prb_oracle.traces import PrbSeries, TraceConfig, generate_synthetic, save_csv

PCTS = (0.1, 0.5, 0.9)


def small_config(**overrides):
    models = {
        kind: ForecasterConfig(kind=kind, epochs=1, num_samples=20)
        for kind in ("sff", "deepar", "transformer", "lstm")
    }
    defaults = dict(trace=TraceConfig(weeks=2, seed=11), percentiles=PCTS,
                    models=models, seed=3)
    return ExperimentConfig(**{**defaults, **overrides})


@pytest.fixture(scope="module")
def small_report():
    return run_pipeline(small_config())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_percentiles_must_increase():
    with pytest.raises(PipelineError, match="strictly increasing"):
        ExperimentConfig(percentiles=(0.5, 0.5))
    with pytest.raises(PipelineError, match="strictly increasing"):
        ExperimentConfig(percentiles=(0.9, 0.1))
    with pytest.raises(PipelineError, match="strictly increasing"):
        ExperimentConfig(percentiles=(0.0, 0.5))


def test_config_defaults_cover_all_models():
    cfg = ExperimentConfig()
    assert sorted(cfg.models) == ["deepar", "lstm", "sff", "transformer"]
    # A config file with no models block means the same.
    assert ExperimentConfig.from_dict({}).models == cfg.models
    assert cfg.percentiles == (0.05, 0.25, 0.50, 0.75, 0.90, 0.99)


def test_every_model_reads_the_one_top_level_window_geometry():
    models = {kind: ForecasterConfig(kind=kind) for kind in MODEL_KINDS}
    models["lstm"] = ForecasterConfig(kind="lstm", context_len=48, horizon=3)
    cfg = ExperimentConfig(context_len=12, horizon=6, models=models)
    assert {(m.context_len, m.horizon) for m in cfg.models.values()} == {(12, 6)}
    doc = cfg.to_dict()
    assert (doc["context_len"], doc["horizon"]) == (12, 6)
    assert not any({"context_len", "horizon"} & set(block) for block in doc["models"].values())
    assert ExperimentConfig.from_dict(doc) == cfg
    assert replace(cfg, horizon=2).models["sff"].horizon == 2


def test_config_rejects_unknown_keys_and_kinds():
    with pytest.raises(PipelineError, match="unknown config keys"):
        ExperimentConfig.from_dict({"sede": 1})
    with pytest.raises(PipelineError, match=re.escape("unknown config keys ['power']")):
        ExperimentConfig.from_dict({"max_prb": 120, "power": {"max_prb": 160}})
    with pytest.raises(PipelineError, match="unknown model kind"):
        ExperimentConfig(models={"gru": ForecasterConfig(kind="sff")})
    with pytest.raises(PipelineError, match="models.sff block has kind 'lstm'"):
        ExperimentConfig(models={"sff": ForecasterConfig(kind="lstm")})


def test_model_configs_keep_only_what_their_kind_reads():
    models = {kind: ForecasterConfig(kind=kind, epochs=2, num_samples=7, heads=4, rnn_cells=9,
                                     hidden=(5,), seed=12345)
              for kind in MODEL_KINDS}
    cfg = ExperimentConfig(models=models, seed=4)
    for kind, m in cfg.models.items():
        assert m.seed == 4 * 100 + rapp.MODEL_SEED_OFFSETS[kind]
        assert m.epochs == 2
        for key in ("num_samples", "heads", "rnn_cells", "hidden"):
            expected = getattr(models[kind], key) if key in MODEL_KEYS[kind] else \
                getattr(ForecasterConfig(kind=kind), key)
            assert getattr(m, key) == expected
    echo = cfg.to_dict()["models"]
    assert {kind: sorted(block) for kind, block in echo.items()} == \
        {kind: sorted(MODEL_KEYS[kind]) for kind in MODEL_KINDS}
    assert replace(cfg, seed=7).models["sff"].seed == 711


def test_config_dict_round_trip():
    cfg = small_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_dict_lists_every_field_and_a_new_field_needs_no_other_edit():
    cfg = small_config(output_dir="elsewhere")
    assert set(cfg.to_dict()) == {f.name for f in fields(ExperimentConfig)}
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @dataclass(frozen=True)
    class Wider(ExperimentConfig):
        extra: int = 1

    assert Wider.from_dict({"extra": 5}).to_dict()["extra"] == 5
    with pytest.raises(PipelineError, match=re.escape("unknown config keys ['extra']")):
        ExperimentConfig.from_dict({"extra": 5})


def test_config_rejects_an_empty_output_dir():
    with pytest.raises(PipelineError, match="^output_dir must not be empty$"):
        ExperimentConfig(output_dir="")
    with pytest.raises(PipelineError, match="^output_dir must not be empty$"):
        ExperimentConfig.from_dict({"output_dir": ""})


def test_config_csv_trace_round_trip():
    doc = {"trace": {"kind": "csv", "path": "x.csv"}}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.trace == "x.csv"
    assert cfg.to_dict()["trace"] == {"kind": "csv", "path": "x.csv"}


def test_pipeline_rejects_short_test_segment():
    with pytest.raises(PipelineError, match="shorter than context\\+horizon"):
        run_pipeline(small_config(trace=TraceConfig(weeks=1), train_fraction=0.8))


def test_pipeline_rejects_a_train_split_shorter_than_one_window(monkeypatch):
    # With no train window at all, the error names train_fraction, the
    # setting that fixes it, and not the batch size that no window could fill.
    monkeypatch.setattr(rapp, "fit", None)  # training would raise
    message = (r"^train segment of 16 hours \(1680-hour trace at train_fraction 0\.01\) "
               r"shorter than context\+horizon \(24\+24\); raise train_fraction or lengthen "
               r"the trace$")
    with pytest.raises(PipelineError, match=message):
        run_pipeline(small_config(trace=TraceConfig(), train_fraction=0.01))


def test_pipeline_rejects_zero_load_test_hour_before_training(tmp_path, monkeypatch):
    series = generate_synthetic(TraceConfig(weeks=2, seed=11))
    values = series.values.copy()
    values[[300, 310]] = 0.0  # 268 train hours; both fall in the scored test hours
    path = tmp_path / "trace.csv"
    save_csv(PrbSeries(series.start_time, values, series.max_prb), path)

    def fit_must_not_run(*args, **kwargs):
        raise AssertionError("fit called before the trace was validated")

    monkeypatch.setattr(rapp, "fit", fit_must_not_run)
    expected = f"test hour 300 ({series.timestamp(300).isoformat()}) has zero PRB load"
    with pytest.raises(PipelineError, match=re.escape(expected)):
        run_pipeline(small_config(trace=str(path)))


# ---------------------------------------------------------------------------
# pipeline content
# ---------------------------------------------------------------------------

def test_pooled_shapes(small_report):
    rep = small_report
    n = rep["n_windows"] * rep["horizon"]
    assert rep["truth_pooled"].shape == (n,)
    assert rep["baselines"]["true_data"]["alloc"].shape == (n,)
    for m in rep["models"].values():
        assert m["median_pooled"].shape == (n,)
        for p in PCTS:
            assert m["allocations"][p].shape == (n,)
            assert m["quantiles_pooled"][p].shape == (n,)


def test_true_data_saving_formula(small_report):
    true_data = small_report["baselines"]["true_data"]
    expected = 100.0 * (1.0 - np.mean(true_data["alloc"]) / small_report["max_prb"])
    assert true_data["power_saving_percent"] == pytest.approx(expected, abs=1e-9)
    assert np.array_equal(true_data["alloc"], np.ceil(small_report["truth_pooled"]))


def test_savings_are_measured_against_the_experiment_capacity():
    cfg = small_config(max_prb=120, models={"lstm": ForecasterConfig(kind="lstm", epochs=1)})
    true_data = run_pipeline(cfg)["baselines"]["true_data"]
    expected = 100.0 * (1.0 - np.mean(true_data["alloc"]) / 120)
    assert true_data["power_saving_percent"] == pytest.approx(expected, abs=1e-9)


def test_provisioning_always_sums_to_100(small_report):
    for m in small_report["models"].values():
        for p in PCTS:
            assert m["metrics"]["over_percent"][p] + m["metrics"]["under_percent"][p] == 100.0


def test_every_percentile_in_every_map(small_report):
    for m in small_report["models"].values():
        for mapping in (m["metrics"]["quantile_loss"], m["metrics"]["coverage"],
                        m["metrics"]["over_percent"], m["metrics"]["under_percent"],
                        m["power_saving_percent"], m["allocations"]):
            assert tuple(mapping) == PCTS


def test_monotone_saving_and_provisioning(small_report):
    for m in small_report["models"].values():
        saving = [m["power_saving_percent"][p] for p in PCTS]
        over = [m["metrics"]["over_percent"][p] for p in PCTS]
        under = [m["metrics"]["under_percent"][p] for p in PCTS]
        assert all(a >= b for a, b in zip(saving, saving[1:]))
        assert all(a <= b for a, b in zip(over, over[1:]))
        assert all(a >= b for a, b in zip(under, under[1:]))
        for lo, hi in zip(PCTS[:-1], PCTS[1:]):
            assert np.all(m["allocations"][lo] <= m["allocations"][hi])


def test_lstm_degenerate_distribution(small_report):
    m = small_report["models"]["lstm"]
    baseline = small_report["baselines"]["lstm"]
    for p in PCTS[1:]:
        assert np.array_equal(m["allocations"][p], m["allocations"][PCTS[0]])
    assert baseline["over_percent"] == m["metrics"]["over_percent"][0.5]
    assert baseline["over_percent"] + baseline["under_percent"] == 100.0


def test_report_self_consistency(small_report):
    rep = small_report
    power = PowerParams()
    for m in rep["models"].values():
        _, mae, _ = point_errors(rep["truth_pooled"], m["median_pooled"])
        assert m["metrics"]["mae"] == pytest.approx(mae, abs=1e-12)
        for p in PCTS:
            _, mean_saving = power_saving(m["allocations"][p], power)
            assert m["power_saving_percent"][p] == pytest.approx(mean_saving, abs=1e-9)


def test_report_carries_crps_and_loss_curves(small_report):
    rep = small_report
    for kind, m in rep["models"].items():
        assert np.isfinite(m["metrics"]["crps"]) and m["metrics"]["crps"] > 0.0, kind
        curve = m["loss_curve"]
        assert len(curve) == 1 and curve[-1] == m["final_train_loss"], kind
    # The point-only lstm's CRPS is its MAE.
    lstm = rep["models"]["lstm"]["metrics"]
    assert lstm["crps"] == lstm["mae"]


def test_last_window_slice_matches_pooled(small_report):
    rep = small_report
    last = rep["last_window"]
    sl = slice((rep["n_windows"] - 1) * rep["horizon"], rep["n_windows"] * rep["horizon"])
    assert np.array_equal(last["truth"], rep["truth_pooled"][sl])
    for kind, m in rep["models"].items():
        entry = last["models"][kind]
        assert np.array_equal(entry["median"], m["median_pooled"][sl])
        for p in PCTS:
            assert np.array_equal(entry["alloc"][p], m["allocations"][p][sl])
        # Only a point model carries its one path, which is its median.
        assert ("point" in entry) == (kind not in PROBABILISTIC_KINDS), kind
        if "point" in entry:
            assert np.array_equal(entry["point"], m["median_pooled"][sl])
    # A one-path probabilistic model is still not a point model.
    one_path = small_config(models={"sff": ForecasterConfig(kind="sff", epochs=1, num_samples=1)})
    assert "point" not in run_pipeline(one_path)["last_window"]["models"]["sff"]


def test_each_model_is_fitted_forecast_and_scored_before_the_next_fit(monkeypatch):
    calls = []

    def traced_fit(config, train):
        calls.append(("fit", config.kind))
        return fit(config, train)

    def traced_predict(model, context, **kwargs):
        calls.append(("predict", model.config.kind))
        return predict(model, context, **kwargs)

    monkeypatch.setattr(rapp, "fit", traced_fit)
    monkeypatch.setattr(rapp, "predict", traced_predict)
    models = {kind: ForecasterConfig(kind=kind, epochs=1) for kind in ("lstm", "sff")}
    rep = run_pipeline(small_config(models=models))
    n = rep["n_windows"]
    assert n >= 2
    assert calls == [("fit", "lstm"), *[("predict", "lstm")] * n,
                     ("fit", "sff"), *[("predict", "sff")] * n]


def _assert_same(a, b, where="entry"):
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}.{key}")
    else:
        assert np.array_equal(a, b), where


def test_a_model_scores_the_same_alone_as_beside_other_models(small_report):
    alone = run_pipeline(small_config(models={"lstm": small_config().models["lstm"]}))
    _assert_same(alone["models"]["lstm"], small_report["models"]["lstm"])
    _assert_same(alone["last_window"]["models"]["lstm"],
                 small_report["last_window"]["models"]["lstm"])


def test_pipeline_deterministic():
    cfg_models = {k: ForecasterConfig(kind=k, epochs=1, num_samples=10)
                  for k in ("deepar", "lstm")}
    cfg = small_config(models=cfg_models)
    a = json.dumps(_jsonify(run_pipeline(cfg)), sort_keys=True)
    b = json.dumps(_jsonify(run_pipeline(cfg)), sort_keys=True)
    assert a == b


def test_config_echo_omits_output_dir(small_report):
    assert "output_dir" not in small_report["config"]
    assert small_report["config"]["seed"] == 3


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_report_files(tmp_path, small_report):
    written = emit_report(small_report, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["hourly.csv", "provisioning.csv", "report.json", "table1.csv", "table2.csv"]

    hourly = (tmp_path / "hourly.csv").read_text().strip().splitlines()
    assert len(hourly) == 1 + small_report["horizon"]

    table2 = (tmp_path / "table2.csv").read_text().strip().splitlines()
    header = table2[0].split(",")
    assert header[3:] == ["p10", "p50", "p90"]
    for kind in ("sff", "deepar", "transformer"):
        stats = [row.split(",")[1] for row in table2 if row.startswith(f"{kind},")]
        assert stats == ["power_saving_percent", "over_percent", "under_percent"]

    prov = (tmp_path / "provisioning.csv").read_text().strip().splitlines()
    assert len(prov) == 1 + 3 * len(PCTS)

    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc["models"]) == {"sff", "deepar", "transformer", "lstm"}
    assert doc["baselines"]["true_data"]["power_saving_percent"] == pytest.approx(
        small_report["baselines"]["true_data"]["power_saving_percent"]
    )


def test_emitted_files_are_the_report_document(tmp_path, small_report):
    emit_report(small_report, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == _jsonify(small_report)

    with (tmp_path / "table2.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["model", "statistic", "overall", "p10", "p50", "p90"]
    base = small_report["baselines"]
    expected = [["true_data", "power_saving_percent",
                 base["true_data"]["power_saving_percent"], "", "", ""]]
    expected += [["lstm", stat, value, "", "", ""] for stat, value in base["lstm"].items()]
    for kind in ("sff", "deepar", "transformer"):
        m = small_report["models"][kind]
        expected.append(["", "", "", "", "", ""])
        for stat, values in (("power_saving_percent", m["power_saving_percent"]),
                             ("over_percent", m["metrics"]["over_percent"]),
                             ("under_percent", m["metrics"]["under_percent"])):
            expected.append([kind, stat, "", *(values[p] for p in PCTS)])
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert row == [str(v) for v in want]  # str(float) round-trips exactly


def test_re_emission_is_identical(tmp_path, small_report):
    first = tmp_path / "a"
    second = tmp_path / "b"
    emit_report(small_report, first)
    emit_report(small_report, second)
    for name in ("report.json", "table1.csv", "table2.csv", "hourly.csv", "provisioning.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_emission_failure_leaves_no_partial_report(tmp_path, small_report, monkeypatch):
    def broken(report):
        raise OSError("disk full")

    kept = tmp_path / "kept"
    emit_report(small_report, kept)
    before = {p.name: p.read_bytes() for p in kept.iterdir()}

    monkeypatch.setattr(rapp, "_hourly_rows", broken)  # fails after report.json is written
    fresh = tmp_path / "fresh"
    with pytest.raises(OSError, match="disk full"):
        emit_report(small_report, fresh)
    assert not fresh.exists()
    with pytest.raises(OSError, match="disk full"):
        emit_report(small_report, kept)
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]  # no temporary directory left


def test_emission_into_existing_directory_keeps_other_files(tmp_path, small_report):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    (out / "report.json").write_text("stale")
    written = emit_report(small_report, out)
    assert (out / "notes.txt").read_text() == "mine"
    assert json.loads((out / "report.json").read_text())["n_windows"] == small_report["n_windows"]
    assert sorted(p.name for p in out.iterdir()) == sorted(["notes.txt", *(p.name for p in written)])
