"""The three benchmark workloads: train, forecast and experiment.

Each is a closed loop with one caller: the runner starts the next operation
when the previous one returns. Every workload keeps the reference shapes the
planned optimisations depend on (context 24, horizon 24, batch 1, 100 Monte
Carlo samples, the architectures of the bundled default.json); only the trace
length, the epoch count and the number of windows are scaled to the run length.

Layer functions are always called through their module (`forecasters.fit`),
never through a name imported into this file, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from prb_oracle import cli, decision, forecasters, metrics, rapp, traces

# Scratch space inside the checkout for the experiment's config and reports.
WORK_ROOT = Path(__file__).resolve().parent / ".work"
KINDS = forecasters.MODEL_KINDS
PROBABILISTIC = forecasters.PROBABILISTIC_KINDS
OPS_EXCLUDED = {"backward", "adam_step", "init_params", "save_checkpoint", "load_checkpoint"}
HOT_OPS = ("matmul", "add", "narrow", "concat", "sigmoid", "tanh", "mul", "softmax",
           "attention", "layer_norm", "div", "log")

# train: one epoch per model per round over the train split of a one-week
# trace (87 windows), so a round takes a few seconds.
TRAIN_WEEKS = 1
# forecast: the models are fitted for one epoch on the first three days of a
# two-week trace; the remaining hours give 11 rolling test windows.
FORECAST_WEEKS = 2
FORECAST_FIT_HOURS = 72
QLOSS_WINDOWS = 3  # forecast windows pooled for qloss_mean; every run makes at least this many
# experiment: default.json on a one-week trace, split so the test segment is
# 48 hours, the fewest `run` accepts: two windows of forecasting.
EXPERIMENT_WEEKS = 1
EXPERIMENT_TRAIN_FRACTION = 0.715  # floor(168 * 0.715) = 120 train hours, 48 test hours
EXPERIMENT_EPOCHS = 2


def default_experiment() -> rapp.ExperimentConfig:
    return rapp.ExperimentConfig.from_dict(json.loads(cli.default_config_path().read_text()))


def model_configs(default: rapp.ExperimentConfig, seed: int) -> list:
    """default.json's model hyperparameters at one epoch, seeded like `run` seeds them."""
    return [replace(m, epochs=1, seed=seed * 100 + rapp.MODEL_SEED_OFFSETS[kind])
            for kind, m in default.models.items()]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def nncore_ops(tracer, scope) -> int:
    return sum(s[0] for (sc, (layer, name)), s in tracer.stats.items()
               if sc == scope and layer == "nncore" and name not in OPS_EXCLUDED)


def layer_metrics(tracer, ops: int) -> dict:
    """Per-layer metrics every workload reports; times are seconds per traced op."""
    out = {f"{layer}.self_s": _per(t, ops) for layer, t in tracer.layer_self().items()}
    out["traces.windows"] = _per(tracer.items.get(("traces", "make_windows"), 0), ops)
    out["nncore.backward_s"] = _per(tracer.total("nncore", "backward", field=1), ops)
    out["nncore.adam_s"] = _per(tracer.total("nncore", "adam_step", field=1), ops)
    for op in HOT_OPS:
        out[f"nncore.op_self_s.{op}"] = _per(tracer.total("nncore", op), ops)
    predicts = tracer.total("forecasters", "predict", field=0)
    for kind in KINDS:
        fit_scope, pred_scope = ("fit", kind), ("predict", kind)
        steps = tracer.total("nncore", "adam_step", scope=fit_scope, field=0)
        calls = tracer.total("forecasters", "predict", scope=pred_scope, field=0)
        out[f"nncore.ops_per_step.{kind}"] = _per(nncore_ops(tracer, fit_scope), steps)
        out[f"nncore.ops_per_window.{kind}"] = _per(nncore_ops(tracer, pred_scope), calls)
        out[f"forecasters.step_ms.{kind}"] = 1e3 * _per(
            tracer.total("forecasters", "fit", scope=fit_scope, field=1), steps)
        out[f"forecasters.loss_build_ms.{kind}"] = 1e3 * _per(
            tracer.total("forecasters", f"{kind}.loss", field=1),
            tracer.total("forecasters", f"{kind}.loss", field=0))
        out[f"forecasters.predict_ms.{kind}"] = 1e3 * _per(
            tracer.total("forecasters", "predict", scope=pred_scope, field=1), calls)
    out["likelihoods.nll_graph_s"] = _per(sum(
        tracer.total("likelihoods", name, field=1)
        for name in ("studentt_nll_graph", "gaussian_nll_graph")), ops)
    out["likelihoods.sample_s"] = _per(tracer.total("likelihoods", "sample", field=1), ops)
    out["likelihoods.sample_calls_per_window"] = _per(
        tracer.total("likelihoods", "sample", field=0), predicts / len(KINDS))
    out["decision.allocate_s"] = _per(tracer.total("decision", "allocate", field=1), ops)
    out["decision.allocate_calls"] = _per(tracer.total("decision", "allocate", field=0), ops)
    out["rapp.run_pipeline_self_s"] = _per(tracer.total("rapp", "run_pipeline"), ops)
    out["rapp.emit_report_s"] = _per(tracer.total("rapp", "emit_report", field=1), ops)
    out["trace.wall_s"] = _per(tracer.wall_s, ops)
    out["trace.unattributed_s"] = _per(tracer.root_self_s, ops)
    return out


def qloss_mean(truth: np.ndarray, quantiles: dict) -> float:
    """Mean pinball loss over the probabilistic models and percentiles; quantiles[kind][p]."""
    losses = [metrics.quantile_loss(truth, q, p)
              for kind in PROBABILISTIC for p, q in quantiles[kind].items()]
    return float(np.mean(losses))


class Workload:
    """Defaults for a workload whose op handles one window with one checked outcome."""

    attempts_per_op = 1

    def close(self) -> None:
        pass

    def windows(self, result) -> int:
        return 1


class Train(Workload):
    """`forecasters.fit` for all four models; nothing is predicted.

    One op is a round: one epoch of each model over the same train split, so
    its latency is the round's wall time. A window is one training step
    (forward, backward, Adam) of one model.
    """

    min_ops = 2
    attempts_per_op = len(KINDS)

    def __init__(self, seed: int):
        self.seed = seed
        self.final_loss: dict[str, float] = {}

    def setup(self) -> None:
        default = default_experiment()
        series = traces.generate_synthetic(
            replace(default.trace, weeks=TRAIN_WEEKS, seed=self.seed), default.max_prb)
        self.train, _ = traces.split(series, default.train_fraction)
        self.configs = model_configs(default, self.seed)
        # `fit` takes one step per stride-1 window per epoch.
        self.steps = sum(c.epochs * (len(self.train) - c.context_len - c.horizon + 1)
                         for c in self.configs)

    def op(self, i: int) -> dict:
        return {config.kind: forecasters.fit(config, self.train) for config in self.configs}

    def check(self, i: int, result: dict) -> list[str]:
        errors = []
        for kind, model in result.items():
            loss = model.final_train_loss
            if loss is None or not math.isfinite(loss):
                errors.append(f"{kind}: final_train_loss {loss}")
            elif self.final_loss.setdefault(kind, loss) != loss:
                errors.append(f"{kind}: final_train_loss {loss!r} differs from the first "
                              f"round's {self.final_loss[kind]!r} at one seed")
        return errors

    def windows(self, result: dict) -> int:
        return self.steps

    def layer_metrics(self, tracer, ops: int) -> dict:
        out = layer_metrics(tracer, ops)
        for kind in KINDS:
            out[f"forecasters.final_loss.{kind}"] = self.final_loss.get(kind, 0.0)
        out["metrics.qloss_mean"] = 0.0
        out["rapp.report_bytes"] = 0
        return out

    def summary(self, e2e: dict, tail_ms: float) -> list[tuple[str, float, str]]:
        return [("train_windows_per_s", e2e["windows_per_s"], "windows/s")]


class Forecast(Workload):
    """Rolling 24 h windows: `predict` for every model, then `allocate` at six
    percentiles, all under no_grad; the models are fitted once in set-up."""

    min_ops = QLOSS_WINDOWS

    def __init__(self, seed: int):
        self.seed = seed
        # Keyed by window index, as a traced run checks each window twice.
        self.quantiles = {kind: {} for kind in PROBABILISTIC}
        self.truth: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        default = default_experiment()
        self.percentiles = default.percentiles
        self.max_prb = default.max_prb
        self.series = traces.generate_synthetic(
            replace(default.trace, weeks=FORECAST_WEEKS, seed=self.seed), default.max_prb)
        fit_part = traces.PrbSeries(self.series.start_time,
                                    self.series.values[:FORECAST_FIT_HOURS], self.series.max_prb)
        self.models = {c.kind: forecasters.fit(c, fit_part)
                       for c in model_configs(default, self.seed)}
        self.origins = list(range(FORECAST_FIT_HOURS, len(self.series) - default.horizon + 1,
                                  default.horizon))
        self.context_len, self.horizon = default.context_len, default.horizon

    def op(self, i: int) -> dict:
        t0 = self.origins[i % len(self.origins)]
        context = self.series.values[t0 - self.context_len:t0]
        start = self.series.timestamp(t0)
        results, plans = {}, {}
        for kind, model in self.models.items():
            rng = np.random.default_rng([self.seed, rapp.MODEL_SEED_OFFSETS[kind], i])
            result = forecasters.predict(model, context, start=start, rng=rng, origin=t0)
            results[kind] = result
            plans[kind] = [decision.allocate(result, decision.AllocationPolicy(p),
                                             self.max_prb, kind).prbs
                           for p in self.percentiles]
        return {"t0": t0, "results": results, "plans": plans}

    def check(self, i: int, result: dict) -> list[str]:
        errors = []
        for kind, res in result["results"].items():
            config = self.models[kind].config
            rows = 1 if kind not in PROBABILISTIC else config.num_samples
            if res.samples.shape != (rows, config.horizon):
                errors.append(f"{kind}: samples shape {res.samples.shape}")
            if not np.all(np.isfinite(res.samples)):
                errors.append(f"{kind}: non-finite samples")
            plan = np.array(result["plans"][kind])
            if plan.dtype.kind not in "iu" or plan.min() < 0 or plan.max() > self.max_prb:
                errors.append(f"{kind}: allocations outside integers in [0, {self.max_prb}]")
            if np.any(np.diff(plan, axis=0) < 0):
                errors.append(f"{kind}: allocation decreases as the percentile rises")
        if i < QLOSS_WINDOWS:
            t0 = result["t0"]
            self.truth[i] = self.series.values[t0:t0 + self.horizon]
            for kind in PROBABILISTIC:
                for p in self.percentiles:
                    q = forecasters.forecast_quantile(result["results"][kind], p)
                    self.quantiles[kind].setdefault(p, {})[i] = q
        return [f"window {i}: " + "; ".join(errors)] if errors else []

    def qloss(self) -> float:
        pooled = {kind: {p: np.concatenate(list(qs.values())) for p, qs in by_p.items()}
                  for kind, by_p in self.quantiles.items()}
        return qloss_mean(np.concatenate(list(self.truth.values())), pooled)

    def layer_metrics(self, tracer, ops: int) -> dict:
        out = layer_metrics(tracer, ops)
        for kind in KINDS:
            out[f"forecasters.final_loss.{kind}"] = self.models[kind].final_train_loss
        out["metrics.qloss_mean"] = self.qloss()
        out["rapp.report_bytes"] = 0
        return out

    def summary(self, e2e: dict, tail_ms: float) -> list[tuple[str, float, str]]:
        return [("forecast_windows_per_s", e2e["windows_per_s"], "windows/s"),
                ("window_p50_ms", e2e["op_p50_ms"], "ms"),
                ("window_tail_ms", tail_ms, "ms"),
                ("qloss_mean", self.qloss(), "PRB")]


class Experiment(Workload):
    """The `run` command path on a scaled default.json, in process through
    `cli.dispatch`, from config file to written report."""

    min_ops = 2  # the report hash is compared across repetitions

    def __init__(self, seed: int):
        self.seed = seed
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        self.digest = None
        self.report = None
        self.report_bytes = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self) -> None:
        doc = json.loads(cli.default_config_path().read_text())
        doc["seed"] = self.seed
        doc["train_fraction"] = EXPERIMENT_TRAIN_FRACTION
        doc["trace"].update(weeks=EXPERIMENT_WEEKS, seed=self.seed)
        for model in doc["models"].values():
            model["epochs"] = EXPERIMENT_EPOCHS
        rapp.ExperimentConfig.from_dict(doc)  # fail in set-up, not in every run
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(doc, indent=2))

    def op(self, i: int) -> dict:
        out = self.workdir / f"out{i}"
        with redirect_stdout(sys.stderr):  # stdout carries only the benchmark's result
            status = cli.dispatch(["run", "--config", str(self.config_path), "--out", str(out)])
        return {"status": status, "out": out}

    def check(self, i: int, result: dict) -> list[str]:
        if result["status"] != 0:
            return [f"run {i}: cli.dispatch returned {result['status']}"]
        try:
            data = (result["out"] / "report.json").read_bytes()
            report = json.loads(data)
        except (OSError, ValueError) as exc:
            return [f"run {i}: report.json unreadable: {exc}"]
        finally:
            shutil.rmtree(result["out"], ignore_errors=True)
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest, self.report, self.report_bytes = digest, report, len(data)
        elif digest != self.digest:
            return [f"run {i}: report.json sha256 {digest} != {self.digest} at one seed"]
        return []

    def qloss(self) -> float:
        if self.report is None:  # no run produced a report; the run is already failed
            return 0.0
        models = self.report["models"]
        return float(np.mean([v for kind in PROBABILISTIC
                              for v in models[kind]["metrics"]["quantile_loss"].values()]))

    def windows(self, result: dict) -> int:
        return self.report["n_windows"] if self.report else 0

    def layer_metrics(self, tracer, ops: int) -> dict:
        out = layer_metrics(tracer, ops)
        models = self.report["models"] if self.report else {}
        for kind in KINDS:
            out[f"forecasters.final_loss.{kind}"] = models.get(kind, {}).get("final_train_loss", 0.0)
        out["metrics.qloss_mean"] = self.qloss()
        out["rapp.report_bytes"] = self.report_bytes
        return out

    def summary(self, e2e: dict, tail_ms: float) -> list[tuple[str, float, str]]:
        return [("experiment_s", e2e["op_p50_ms"] / 1e3, "s"),
                ("qloss_mean", self.qloss(), "PRB"),
                ("report_bytes", self.report_bytes, "B"),
                ("report_sha256", self.digest, "")]


WORKLOADS = {"train": Train, "forecast": Forecast, "experiment": Experiment}
