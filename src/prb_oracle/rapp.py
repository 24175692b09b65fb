"""Pipeline orchestrator: monitoring (trace), analytics (fit + rolling
forecasts), decision (percentile allocation), actuation scoring (power and
provisioning), and report emission."""

from __future__ import annotations

import csv
import json
import os
import shutil
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real
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
from .metrics import coverage, normalized_deviation, point_errors, quantile_loss, provisioning
from .power import PowerParams, power_saving
from .traces import (DEFAULT_MAX_PRB, PrbSeries, TraceConfig, check_capacity, generate_synthetic,
                     load_csv, split)

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
    max_prb: int = DEFAULT_MAX_PRB
    train_fraction: float = 0.8
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    models: dict[str, ForecasterConfig] = field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise PipelineError(f"seed must be >= 0, got {self.seed}")
        if self.max_prb < 1:
            raise PipelineError(f"max_prb must be >= 1, got {self.max_prb}")
        if isinstance(self.trace, TraceConfig):
            check_capacity(self.trace, self.max_prb)
        ps = tuple(float(p) for p in self.percentiles)
        object.__setattr__(self, "percentiles", ps)
        if not ps or any(not 0.0 < p < 1.0 for p in ps) or any(a >= b for a, b in zip(ps, ps[1:])):
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
        _check_types("", doc, cls)
        kwargs = {}
        if "trace" in doc:
            tr = _block("trace", doc.pop("trace"))
            kind = tr.pop("kind", "synthetic")
            if kind == "synthetic":
                _check_keys("trace", tr, {f.name for f in fields(TraceConfig)})
                _check_types("trace.", tr, TraceConfig)
                kwargs["trace"] = TraceConfig(**tr)
            elif kind == "csv":
                _check_keys("trace", tr, {"path"})
                if "path" not in tr:
                    raise PipelineError("csv trace block needs a 'path' key")
                if not isinstance(tr["path"], str):
                    raise PipelineError(f"trace.path must be a string, got {tr['path']!r}")
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
                _check_keys(name, m, set(MODEL_KEYS[kind]))
                _check_types(f"{name}.", m, ForecasterConfig)
                models[kind] = ForecasterConfig(kind, **m)
            if not models:
                raise PipelineError("models block names no model")
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


# What a config value may be, by the type of its field's default: the
# accepted types, then the name of one and of a list of them.
_VALUE_TYPES = {
    int: (Integral, "an integer", "integers"),
    float: (Real, "a number", "numbers"),
    str: (str, "a string", "strings"),
    dict: (dict, "an object", "objects"),
}


def _is_a(value, default) -> bool:
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_is_a(v, default[0]) for v in value)
    return isinstance(value, _VALUE_TYPES[type(default)][0]) and not isinstance(value, bool)


def _type_name(default) -> str:
    """What `_is_a(value, default)` asks for, as an error message says it."""
    if isinstance(default, tuple):
        return f"a list of {_VALUE_TYPES[type(default[0])][2]}"
    return _VALUE_TYPES[type(default)][1]


def _check_types(prefix: str, block: dict, cls) -> None:
    """Reject a value whose type is not that of its field's default in `cls`.

    Int fields take no bools, float fields also take ints, and tuple fields
    take a list of their default's element type.
    """
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    for key, value in block.items():
        default = defaults.get(key, MISSING)
        if default is not MISSING and not _is_a(value, default):
            raise PipelineError(f"{prefix}{key} must be {_type_name(default)}, got {value!r}")


def _obtain_trace(config: ExperimentConfig) -> PrbSeries:
    if isinstance(config.trace, TraceConfig):
        return generate_synthetic(config.trace, config.max_prb)
    return load_csv(config.trace, config.max_prb)


def run_pipeline(config: ExperimentConfig) -> dict:
    """Run the full experiment; deterministic per config.seed.

    Fits every configured model on the chronological train split, rolls
    non-overlapping horizon-length windows across the test split (each
    conditioned on the preceding context hours), allocates PRBs at every
    configured percentile, and scores provisioning and power saving.

    Returns the report document that `emit_report` writes as report.json,
    with numpy arrays and float percentile keys still in place.
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
    ps = config.percentiles
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

    levels = sorted({BAND_LOW, 0.5, BAND_HIGH, *ps})
    models = {}
    for kind, window_results in results.items():
        # Every quantile in one pass over the pooled (num_samples, n_windows*horizon) paths.
        pooled = np.hstack([r.samples for r in window_results])
        quantiles = dict(zip(levels, np.quantile(pooled, levels, axis=0)))
        median = quantiles[0.5]
        mse, mae, mape = point_errors(truth, median)
        qpred = {p: quantiles[p] for p in ps}
        alloc = {p: ceil_clamp(qpred[p], config.max_prb) for p in ps}
        over_under = {p: provisioning(truth, alloc[p]) for p in ps}
        saving = {p: power_saving(alloc[p], power) for p in ps}  # (hourly, mean)
        last["models"][kind] = {
            "median": median[sl],
            "band_low": quantiles[BAND_LOW][sl],
            "band_high": quantiles[BAND_HIGH][sl],
            "alloc": {p: alloc[p][sl] for p in ps},
            "saving": {p: saving[p][0][sl] for p in ps},
        }
        if window_results[-1].point is not None:
            last["models"][kind]["point"] = window_results[-1].point
        models[kind] = {
            "metrics": {
                "mse": mse,
                "mae": mae,
                "mape_percent": mape,
                "nd": normalized_deviation(truth, median),
                "quantile_loss": {p: quantile_loss(truth, qpred[p], p) for p in ps},
                "coverage": {p: coverage(truth, qpred[p]) for p in ps},
                "over_percent": {p: over_under[p][0] for p in ps},
                "under_percent": {p: over_under[p][1] for p in ps},
            },
            "power_saving_percent": {p: saving[p][1] for p in ps},
            "median_pooled": median,
            "quantiles_pooled": qpred,
            "allocations": alloc,
            "final_train_loss": trained[kind].final_train_loss,
        }

    lstm_baseline = {}
    if "lstm" in models:
        mid = 0.5 if 0.5 in ps else ps[0]
        lstm = models["lstm"]
        lstm_baseline = {
            "power_saving_percent": lstm["power_saving_percent"][mid],
            "over_percent": lstm["metrics"]["over_percent"][mid],
            "under_percent": lstm["metrics"]["under_percent"][mid],
        }

    return {
        # The echo describes the experiment, not the emission destination, so
        # identical (config, seed) runs serialize byte-identically anywhere.
        "config": {k: v for k, v in config.to_dict().items() if k != "output_dir"},
        "percentiles": list(ps),
        "horizon": horizon,
        "n_windows": n_windows,
        "max_prb": config.max_prb,
        "truth_pooled": truth,
        "baselines": {
            "true_data": {"power_saving_percent": true_saving, "alloc": true_alloc},
            "lstm": lstm_baseline,
        },
        "models": models,
        "last_window": last,
    }


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


def emit_report(doc: dict, out_dir: str | Path) -> list[Path]:
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
            json.dumps(_jsonify(doc), sort_keys=True, indent=2) + "\n"
        )
        for name, rows in tables.items():
            with (tmp / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows(doc))
        if out.exists():  # replace our files, leave any others
            for name in [*tables, "report.json"]:
                os.replace(tmp / name, out / name)
        else:
            tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [out / name for name in ("report.json", *tables)]


def _kinds(doc: dict, kinds=MODEL_KINDS) -> list[str]:
    """The report's models among `kinds`, in table order."""
    return [k for k in kinds if k in doc["models"]]


def _table1_rows(doc: dict) -> list[list]:
    ps = doc["percentiles"]
    metrics = {k: doc["models"][k]["metrics"] for k in _kinds(doc)}
    prob = _kinds(doc, PROBABILISTIC_KINDS)
    blanks = [""] * len(ps)
    rows = [["metric", "model", "overall", *map(_plabel, ps)]]
    for metric in ("mse", "mae", "mape_percent"):
        rows += [[metric, k, m[metric], *blanks] for k, m in metrics.items()]
    rows += [["nd", k, metrics[k]["nd"], *blanks] for k in prob]
    for metric in ("quantile_loss", "coverage"):
        rows += [[metric, k, "", *(metrics[k][metric][p] for p in ps)] for k in prob]
    return rows


def _table2_rows(doc: dict) -> list[list]:
    ps = doc["percentiles"]
    base = doc["baselines"]
    blanks = [""] * len(ps)
    rows = [
        ["model", "statistic", "overall", *map(_plabel, ps)],
        ["true_data", "power_saving_percent", base["true_data"]["power_saving_percent"], *blanks],
    ]
    rows += [["lstm", stat, value, *blanks] for stat, value in base["lstm"].items()]
    for kind in _kinds(doc, PROBABILISTIC_KINDS):
        m = doc["models"][kind]
        rows.append(["", "", "", *blanks])  # visual separator, matches grid layout
        for stat, values in (("power_saving_percent", m["power_saving_percent"]),
                             ("over_percent", m["metrics"]["over_percent"]),
                             ("under_percent", m["metrics"]["under_percent"])):
            rows.append([kind, stat, "", *(values[p] for p in ps)])
    return rows


def _hourly_rows(doc: dict) -> list[list]:
    ps = doc["percentiles"]
    last = doc["last_window"]
    ordered = _kinds(doc)
    header = ["hour", "truth", "true_alloc", "true_saving"]
    for kind in ordered:
        header += [f"{kind}_median", f"{kind}_band_low", f"{kind}_band_high"]
        if "point" in last["models"][kind]:
            header.append(f"{kind}_point")
        for p in ps:
            header += [f"{kind}_alloc_{_plabel(p)}", f"{kind}_saving_{_plabel(p)}"]
    rows = [header]
    for h in range(doc["horizon"]):
        row = [h, last["truth"][h], last["true_alloc"][h], last["true_saving"][h]]
        for kind in ordered:
            entry = last["models"][kind]
            row += [entry["median"][h], entry["band_low"][h], entry["band_high"][h]]
            if "point" in entry:
                row.append(entry["point"][h])
            for p in ps:
                row += [entry["alloc"][p][h], entry["saving"][p][h]]
        rows.append(row)
    return rows


def _provisioning_rows(doc: dict) -> list[list]:
    rows = [["model", "percentile", "over_percent", "under_percent"]]
    for kind in _kinds(doc, PROBABILISTIC_KINDS):
        m = doc["models"][kind]["metrics"]
        rows += [[kind, p, m["over_percent"][p], m["under_percent"][p]] for p in doc["percentiles"]]
    return rows
