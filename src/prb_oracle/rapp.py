"""Pipeline orchestrator: monitoring (trace), analytics (fit + rolling
forecasts), decision (percentile allocation), actuation scoring (power and
provisioning), and report emission."""

from __future__ import annotations

import csv
import json
import os
import shutil
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .decision import ceil_clamp
from .forecasters import (
    MODEL_KEYS,
    MODEL_KINDS,
    PROBABILISTIC_KINDS,
    ForecasterConfig,
    fit,
    predict,
)
from .metrics import MetricsReport, coverage, normalized_deviation, point_errors, quantile_loss, provisioning
from .power import PowerParams, power_saving
from .traces import PrbSeries, TraceConfig, generate_synthetic, load_csv, split

DEFAULT_PERCENTILES = (0.05, 0.25, 0.50, 0.75, 0.90, 0.99)
BAND_LOW, BAND_HIGH = 0.01, 0.99  # shaded uncertainty band in the hourly table

# Fixed per-kind offsets so the four fits get independent streams from one
# global seed.
MODEL_SEED_OFFSETS = {"sff": 11, "deepar": 12, "transformer": 13, "lstm": 14}


class PipelineError(ValueError):
    """Invalid experiment configuration or insufficient data."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One end-to-end experiment: trace source, PRB capacity, models, policies.

    `max_prb` is the only capacity: traces are bounded by it, allocations are
    clamped to it and power savings are measured against it.
    """

    trace: TraceConfig | str = field(default_factory=TraceConfig)
    max_prb: int = 160
    train_fraction: float = 0.8
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    models: dict[str, ForecasterConfig] = field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        ps = tuple(float(p) for p in self.percentiles)
        object.__setattr__(self, "percentiles", ps)
        if any(not 0.0 < p < 1.0 for p in ps) or any(a >= b for a, b in zip(ps, ps[1:])):
            raise PipelineError(
                f"percentiles must be strictly increasing within (0,1), got {ps}"
            )
        models = self.models or {kind: ForecasterConfig(kind=kind) for kind in MODEL_KINDS}
        for kind, m in models.items():
            if kind not in MODEL_KINDS:
                raise PipelineError(f"unknown model kind {kind!r}")
            if m.kind != kind:
                raise PipelineError(f"models.{kind} block has kind {m.kind!r}")
        # Keep only what each model reads; its seed follows the top-level one.
        object.__setattr__(self, "models", {
            kind: ForecasterConfig(kind, **m.settings(), seed=self.seed * 100 + MODEL_SEED_OFFSETS[kind])
            for kind, m in models.items()
        })
        geometries = {(m.context_len, m.horizon) for m in self.models.values()}
        if len(geometries) != 1:
            raise PipelineError(
                f"all models must share context_len and horizon, got {geometries}"
            )

    @property
    def context_len(self) -> int:
        return next(iter(self.models.values())).context_len

    @property
    def horizon(self) -> int:
        return next(iter(self.models.values())).horizon

    def to_dict(self) -> dict:
        if isinstance(self.trace, TraceConfig):
            trace = {"kind": "synthetic", **vars(self.trace)}
        else:
            trace = {"kind": "csv", "path": str(self.trace)}
        return {
            "trace": trace,
            "max_prb": self.max_prb,
            "train_fraction": self.train_fraction,
            "percentiles": list(self.percentiles),
            "models": {k: m.settings() for k, m in self.models.items()},
            "output_dir": self.output_dir,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        kwargs = {}
        if "trace" in doc:
            tr = _block("trace", doc.pop("trace"))
            kind = tr.pop("kind", "synthetic")
            if kind == "synthetic":
                _check_keys("trace", tr, {f.name for f in fields(TraceConfig)})
                kwargs["trace"] = TraceConfig(**tr)
            elif kind == "csv":
                _check_keys("trace", tr, {"path"})
                if "path" not in tr:
                    raise PipelineError("csv trace block needs a 'path' key")
                kwargs["trace"] = tr["path"]
            else:
                raise PipelineError(f"unknown trace kind {kind!r}")
        if "models" in doc:
            models = {}
            for kind, m in _block("models", doc.pop("models")).items():
                if kind not in MODEL_KEYS:
                    raise PipelineError(f"unknown model kind {kind!r}")
                name = f"models.{kind}"
                m = _block(name, m)
                _check_keys(name, m, {"kind", *MODEL_KEYS[kind]})
                models[kind] = ForecasterConfig.from_dict({"kind": kind, **m})
            kwargs["models"] = models
        if "percentiles" in doc:
            kwargs["percentiles"] = tuple(doc.pop("percentiles"))
        for key in ("max_prb", "train_fraction", "output_dir", "seed"):
            if key in doc:
                kwargs[key] = doc.pop(key)
        if doc:
            raise PipelineError(f"unknown config keys {sorted(doc)}")
        return cls(**kwargs)


def _block(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise PipelineError(f"{name} block must be an object, got {type(value).__name__}")
    return dict(value)


def _check_keys(name: str, block: dict, allowed: set[str]) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise PipelineError(f"unknown keys {unknown} in {name} block")


@dataclass
class ModelReport:
    """Pooled forecasts and scores for one trained model."""

    kind: str
    metrics: MetricsReport
    power_saving_percent: dict[float, float]
    median_pooled: np.ndarray
    quantiles_pooled: dict[float, np.ndarray]
    allocations: dict[float, np.ndarray]
    final_train_loss: float | None


@dataclass
class SustainabilityReport:
    """Everything the experiment measured, pooled across test windows."""

    config: dict
    percentiles: tuple[float, ...]
    horizon: int
    n_windows: int
    max_prb: int
    truth_pooled: np.ndarray
    true_data_saving_percent: float
    true_data_alloc: np.ndarray
    lstm_baseline: dict[str, float]
    models: dict[str, ModelReport]
    last_window: dict


def _obtain_trace(config: ExperimentConfig) -> PrbSeries:
    if isinstance(config.trace, TraceConfig):
        return generate_synthetic(config.trace, config.max_prb)
    return load_csv(config.trace, config.max_prb)


def run_pipeline(config: ExperimentConfig) -> SustainabilityReport:
    """Run the full experiment; deterministic per config.seed.

    Fits every configured model on the chronological train split, rolls
    non-overlapping horizon-length windows across the test split (each
    conditioned on the preceding context hours), allocates PRBs at every
    configured percentile, and scores provisioning and power saving.
    """
    series = _obtain_trace(config)
    train, test = split(series, config.train_fraction)
    ctx_len, horizon = config.context_len, config.horizon
    if len(test) < ctx_len + horizon:
        raise PipelineError(
            f"test segment of {len(test)} hours shorter than context+horizon "
            f"({ctx_len}+{horizon})"
        )
    n_windows = len(test) // horizon
    n_train = len(train)
    truth = test.values[: n_windows * horizon].copy()
    zero = np.flatnonzero(truth == 0.0)
    if zero.size:
        idx = n_train + int(zero[0])
        raise PipelineError(
            f"test hour {idx} ({series.timestamp(idx).isoformat()}) has zero PRB load, "
            "which makes MAPE undefined"
        )

    trained = {kind: fit(model_cfg, train) for kind, model_cfg in config.models.items()}

    results = {kind: [] for kind in trained}
    for k in range(n_windows):
        t0 = n_train + k * horizon
        ctx = series.values[t0 - ctx_len : t0]
        start = series.timestamp(t0)
        for kind, model in trained.items():
            rng = np.random.default_rng([config.seed, MODEL_SEED_OFFSETS[kind], k])
            results[kind].append(predict(model, ctx, start=start, rng=rng, origin=t0))

    power = PowerParams(max_prb=config.max_prb)
    # Ground-truth baseline: provision exactly the demand, rounded up.
    true_alloc = ceil_clamp(truth, config.max_prb)
    true_hourly, true_saving = power_saving(true_alloc, power)

    # The hourly table shows the last test window: slices of the pooled arrays.
    sl = slice((n_windows - 1) * horizon, n_windows * horizon)
    last = {
        "t0_index": n_train + (n_windows - 1) * horizon,
        "truth": truth[sl],
        "true_alloc": true_alloc[sl],
        "true_saving": true_hourly[sl],
        "models": {},
    }

    levels = sorted({BAND_LOW, 0.5, BAND_HIGH, *config.percentiles})
    models = {}
    for kind, window_results in results.items():
        # Every quantile in one pass over the pooled (num_samples, n_windows*horizon) paths.
        pooled = np.hstack([r.samples for r in window_results])
        quantiles = dict(zip(levels, np.quantile(pooled, levels, axis=0)))
        median = quantiles[0.5]
        mse, mae, mape = point_errors(truth, median)
        report = MetricsReport(
            mse=mse, mae=mae, mape_percent=mape, nd=normalized_deviation(truth, median)
        )
        final = window_results[-1]
        last_entry = {
            "median": median[sl],
            "band_low": quantiles[BAND_LOW][sl],
            "band_high": quantiles[BAND_HIGH][sl],
            "alloc": {},
            "saving": {},
        }
        if final.point is not None:
            last_entry["point"] = final.point
        saving_map, quant_map, alloc_map = {}, {}, {}
        for p in config.percentiles:
            qpred = quantiles[p]
            alloc = ceil_clamp(qpred, config.max_prb)
            report.quantile_loss[p] = quantile_loss(truth, qpred, p)
            report.coverage[p] = coverage(truth, qpred)
            over, under = provisioning(truth, alloc)
            report.over_percent[p] = over
            report.under_percent[p] = under
            hourly, saving_map[p] = power_saving(alloc, power)
            quant_map[p] = qpred
            alloc_map[p] = alloc
            last_entry["alloc"][p] = alloc[sl]
            last_entry["saving"][p] = hourly[sl]
        last["models"][kind] = last_entry
        models[kind] = ModelReport(
            kind=kind,
            metrics=report,
            power_saving_percent=saving_map,
            median_pooled=median,
            quantiles_pooled=quant_map,
            allocations=alloc_map,
            final_train_loss=trained[kind].final_train_loss,
        )

    lstm_baseline = {}
    if "lstm" in models:
        mid = 0.5 if 0.5 in config.percentiles else config.percentiles[0]
        lstm_baseline = {
            "power_saving_percent": models["lstm"].power_saving_percent[mid],
            "over_percent": models["lstm"].metrics.over_percent[mid],
            "under_percent": models["lstm"].metrics.under_percent[mid],
        }

    # The echo describes the experiment, not the emission destination, so
    # identical (config, seed) runs serialize byte-identically anywhere.
    config_echo = {k: v for k, v in config.to_dict().items() if k != "output_dir"}

    return SustainabilityReport(
        config=config_echo,
        percentiles=config.percentiles,
        horizon=horizon,
        n_windows=n_windows,
        max_prb=config.max_prb,
        truth_pooled=truth,
        true_data_saving_percent=true_saving,
        true_data_alloc=true_alloc,
        lstm_baseline=lstm_baseline,
        models=models,
        last_window=last,
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _plabel(p: float) -> str:
    return f"p{100 * p:g}"


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def report_to_dict(report: SustainabilityReport) -> dict:
    doc = {
        "config": report.config,
        "percentiles": list(report.percentiles),
        "horizon": report.horizon,
        "n_windows": report.n_windows,
        "max_prb": report.max_prb,
        "truth_pooled": report.truth_pooled,
        "baselines": {
            "true_data": {
                "power_saving_percent": report.true_data_saving_percent,
                "alloc": report.true_data_alloc,
            },
            "lstm": report.lstm_baseline,
        },
        "models": {},
        "last_window": report.last_window,
    }
    for kind, m in report.models.items():
        doc["models"][kind] = {
            "metrics": {
                "mse": m.metrics.mse,
                "mae": m.metrics.mae,
                "mape_percent": m.metrics.mape_percent,
                "nd": m.metrics.nd,
                "quantile_loss": m.metrics.quantile_loss,
                "coverage": m.metrics.coverage,
                "over_percent": m.metrics.over_percent,
                "under_percent": m.metrics.under_percent,
            },
            "power_saving_percent": m.power_saving_percent,
            "median_pooled": m.median_pooled,
            "quantiles_pooled": m.quantiles_pooled,
            "allocations": m.allocations,
            "final_train_loss": m.final_train_loss,
        }
    return _jsonify(doc)


def emit_report(report: SustainabilityReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus the table/plot CSVs; returns the written paths.

    The files are written into a temporary directory next to `out_dir` and
    renamed into place only once all of them are complete, so a failure
    partway leaves no partial report behind. A new `out_dir` appears whole;
    into an existing one the files move one by one, report.json last.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise PipelineError(f"cannot create output directory {out}: it is a file")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.parent / f".{out.name}.{os.urandom(8).hex()}.tmp"
        tmp.mkdir()  # default permissions, which the renamed directory keeps
    except OSError as exc:
        raise PipelineError(f"cannot create output directory {out}: {exc}") from None
    tables = {
        "table1.csv": _table1_rows,
        "table2.csv": _table2_rows,
        "hourly.csv": _hourly_rows,
        "provisioning.csv": _provisioning_rows,
    }
    try:
        (tmp / "report.json").write_text(
            json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
        )
        for name, rows in tables.items():
            with (tmp / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows(report))
        if out.exists():  # replace our files, leave any others
            for name in [*tables, "report.json"]:
                os.replace(tmp / name, out / name)
        else:
            tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [out / name for name in ("report.json", *tables)]


def _percentile_header(report) -> list[str]:
    return [_plabel(p) for p in report.percentiles]


def _table1_rows(report: SustainabilityReport) -> list[list]:
    ordered = [k for k in MODEL_KINDS if k in report.models]
    rows = [["metric", "model", "overall", *_percentile_header(report)]]
    blanks = [""] * len(report.percentiles)
    for metric in ("mse", "mae", "mape_percent"):
        for kind in ordered:
            rows.append([metric, kind, getattr(report.models[kind].metrics, metric), *blanks])
    for kind in ordered:
        if kind in PROBABILISTIC_KINDS:
            rows.append(["nd", kind, report.models[kind].metrics.nd, *blanks])
    for metric in ("quantile_loss", "coverage"):
        for kind in ordered:
            if kind in PROBABILISTIC_KINDS:
                vals = getattr(report.models[kind].metrics, metric)
                rows.append([metric, kind, "", *[vals[p] for p in report.percentiles]])
    return rows


def _table2_rows(report: SustainabilityReport) -> list[list]:
    ordered = [k for k in MODEL_KINDS if k in report.models]
    rows = [["model", "statistic", "overall", *_percentile_header(report)]]
    blanks = [""] * len(report.percentiles)
    rows.append(["true_data", "power_saving_percent", report.true_data_saving_percent, *blanks])
    for stat, value in report.lstm_baseline.items():
        rows.append(["lstm", stat, value, *blanks])
    for kind in ordered:
        if kind not in PROBABILISTIC_KINDS:
            continue
        m = report.models[kind]
        rows.append(["", "", "", *blanks])  # visual separator, matches grid layout
        rows.append([kind, "power_saving_percent", "",
                     *[m.power_saving_percent[p] for p in report.percentiles]])
        rows.append([kind, "over_percent", "",
                     *[m.metrics.over_percent[p] for p in report.percentiles]])
        rows.append([kind, "under_percent", "",
                     *[m.metrics.under_percent[p] for p in report.percentiles]])
    return rows


def _hourly_rows(report: SustainabilityReport) -> list[list]:
    last = report.last_window
    ordered = [k for k in MODEL_KINDS if k in last["models"]]
    header = ["hour", "truth", "true_alloc", "true_saving"]
    for kind in ordered:
        header += [f"{kind}_median", f"{kind}_band_low", f"{kind}_band_high"]
        if "point" in last["models"][kind]:
            header.append(f"{kind}_point")
        for p in report.percentiles:
            header += [f"{kind}_alloc_{_plabel(p)}", f"{kind}_saving_{_plabel(p)}"]
    rows = [header]
    for h in range(report.horizon):
        row = [h, last["truth"][h], last["true_alloc"][h], last["true_saving"][h]]
        for kind in ordered:
            entry = last["models"][kind]
            row += [entry["median"][h], entry["band_low"][h], entry["band_high"][h]]
            if "point" in entry:
                row.append(entry["point"][h])
            for p in report.percentiles:
                row += [entry["alloc"][p][h], entry["saving"][p][h]]
        rows.append(row)
    return rows


def _provisioning_rows(report: SustainabilityReport) -> list[list]:
    rows = [["model", "percentile", "over_percent", "under_percent"]]
    for kind in MODEL_KINDS:
        if kind not in report.models or kind not in PROBABILISTIC_KINDS:
            continue
        m = report.models[kind]
        for p in report.percentiles:
            rows.append([kind, p, m.metrics.over_percent[p], m.metrics.under_percent[p]])
    return rows
