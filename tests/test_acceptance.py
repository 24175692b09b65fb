"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Criteria 6-9 score the shipped benchmark end to end through the CLI
(`run --config default.json --seed 7`), so this module runs the full
pipeline twice, both runs at once. A one-line PASS/FAIL per criterion is
printed in the terminal summary (see conftest).
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    brute_coverage,
    brute_mae,
    brute_mape,
    brute_mse,
    brute_nd,
    brute_provisioning,
    brute_quantile_loss,
    max_rel_err,
    numeric_grad,
    primitive_cases,
)
from test_likelihoods import integrate_full_line, simpson

import prb_oracle
from prb_oracle import nncore as nn
from prb_oracle.cli import write_default_config
from prb_oracle.forecasters import (
    ForecasterConfig,
    calendar_features,
    fit,
    predict,
)
from prb_oracle.forecasters import deepar, lstm, sff, transformer
from prb_oracle.likelihoods import (
    GaussianParams,
    StudentTParams,
    gaussian_logpdf,
    studentt_logpdf,
)
from prb_oracle.metrics import (
    coverage,
    normalized_deviation,
    point_errors,
    provisioning,
    quantile_loss,
)
from prb_oracle.nncore import backward
from prb_oracle.power import PowerParams, power_saving, total_power
from prb_oracle.traces import TraceConfig, generate_synthetic, split

MODULES = {"sff": sff, "deepar": deepar, "transformer": transformer, "lstm": lstm}
PERCENTILE_KEYS = ["0.05", "0.25", "0.5", "0.75", "0.9", "0.99"]


def _child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this very prb_oracle.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child finds it from any cwd, even when the parent's entry is relative
    (`PYTHONPATH=src`); whatever PYTHONPATH held before is kept after it.
    """
    env = dict(os.environ)
    package_root = str(Path(prb_oracle.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_root, env.get("PYTHONPATH")) if entry
    )
    return env


# The two pipeline runs share the host, so each gets one BLAS thread: the
# models' matmuls gain nothing from more, and two runs with a thread per core
# each oversubscribe the cores (on 2 cores: 50 s per run against 24 s).
ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}


def _cli_start(workdir: Path) -> tuple[subprocess.Popen, float]:
    """Start `run --config default.json --seed 7` in workdir, its stderr into
    workdir/stderr.txt; returns the process and its start time."""
    write_default_config(workdir / "default.json")
    with (workdir / "stderr.txt").open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "prb_oracle", "run", "--config", "default.json",
             "--seed", "7"],
            cwd=workdir, env={**_child_env(), **ONE_BLAS_THREAD},
            stdout=subprocess.DEVNULL, stderr=err,
        )
    return proc, time.time()


def _cli_finish(name: str, workdir: Path, proc: subprocess.Popen, started: float) -> float:
    """Wait for a run from `_cli_start`; returns its wall-clock seconds."""
    proc.wait(timeout=1800)
    elapsed = time.time() - started
    assert proc.returncode == 0, (
        f"pipeline run {name} failed: {(workdir / 'stderr.txt').read_text()}"
    )
    return elapsed


def test_cli_child_imports_the_package_under_test(tmp_path):
    """A child started as `_cli_start` starts it, from a directory without
    `src/`, imports the same prb_oracle as this process, not another copy."""
    proc = subprocess.run(
        [sys.executable, "-c", "import prb_oracle; print(prb_oracle.__file__)"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, f"child import failed: {proc.stderr}"
    assert Path(proc.stdout.strip()).resolve() == Path(prb_oracle.__file__).resolve()


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Both benchmark runs, started at once. Holds run a's report document
    and its own wall-clock seconds, and run b, which criterion 9 finishes;
    a run still going at teardown is killed."""
    runs = {}
    try:
        for name in ("a", "b"):
            workdir = tmp_path_factory.mktemp(f"bench_{name}")
            runs[name] = (name, workdir, *_cli_start(workdir))
        elapsed = _cli_finish(*runs["a"])
        doc = json.loads((runs["a"][1] / "out" / "report.json").read_text())
        yield {"dir": runs["a"][1], "doc": doc, "seconds": elapsed, "run_b": runs["b"]}
    finally:
        for _, _, proc, _ in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_criterion_1_no_external_reference_values(bench):
    """The benchmark trace is synthetic, so every expected value here is a
    formula-checked property of this run, never an externally reported
    figure from some other dataset."""
    doc = bench["doc"]
    assert doc["config"]["trace"]["kind"] == "synthetic"
    # The true-data saving is recomputed from its definition, not pinned.
    saving = doc["baselines"]["true_data"]["power_saving_percent"]
    alloc = np.array(doc["baselines"]["true_data"]["alloc"], dtype=float)
    assert saving == pytest.approx(100.0 * (1.0 - alloc.mean() / doc["max_prb"]), abs=1e-9)
    # Guard against silently calibrating the benchmark toward externally
    # reported figures (87.1% saving / 0.370 MSE on private operator data).
    assert abs(saving - 87.1) > 0.5
    assert abs(doc["models"]["deepar"]["metrics"]["mse"] - 0.370) > 1e-3


def test_criterion_2_numeric_oracles():
    started = time.time()
    assert studentt_logpdf(0.0, StudentTParams(0.0, 1.0, 1.0)) == pytest.approx(
        math.log(1.0 / math.pi), abs=1e-10
    )
    assert gaussian_logpdf(0.0, GaussianParams(0.0, 1.0)) == pytest.approx(
        math.log(1.0 / math.sqrt(2.0 * math.pi)), abs=1e-10
    )
    for nu in (1.0, 3.0, 30.0):
        for sigma in (0.5, 2.0):
            p = StudentTParams(0.5, sigma, nu)
            total = integrate_full_line(lambda y: studentt_logpdf(y, p), p.mu, p.sigma)
            assert abs(total - 1.0) < 1e-6, (nu, sigma)
    g = GaussianParams(0.5, 1.3)
    ys = np.linspace(g.mu - 15 * g.sigma, g.mu + 15 * g.sigma, 40001)
    assert abs(simpson(np.exp(gaussian_logpdf(ys, g)), ys[1] - ys[0]) - 1.0) < 1e-9
    assert time.time() - started < 1.0


def test_criterion_3_gradient_checks():
    started = time.time()
    for name, builder, inputs in primitive_cases():
        leaves = [nn.Tensor(x, requires_grad=True) for x in inputs]
        probe = nn.constant(np.random.default_rng(7).normal(size=builder(leaves).shape))

        def loss_value():
            return nn.sum_all(nn.mul(builder(leaves), probe)).item()

        backward(nn.sum_all(nn.mul(builder(leaves), probe)))
        for leaf, x in zip(leaves, inputs):
            analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)
            assert max_rel_err(analytic, numeric_grad(loss_value, x)) < 1e-4, name

    series = generate_synthetic(TraceConfig(weeks=1, seed=5))
    tiny = dict(context_len=4, horizon=2, epochs=1, num_samples=4,
                hidden=(8, 8), rnn_layers=2, rnn_cells=8,
                model_dim=8, ff_scale=2, heads=2, blocks=1, seed=3)
    scale = float(series.values.mean())
    ctx = series.values[None, :4] / scale  # one window, a batch of one
    tgt = series.values[None, 4:6] / scale
    feats = {
        "ctx": calendar_features(series.start_time, np.arange(0, 4))[None],
        "tgt": calendar_features(series.start_time, np.arange(4, 6))[None],
    }
    for kind, mod in MODULES.items():
        cfg = ForecasterConfig(kind=kind, **tiny)
        params = mod.build(cfg)

        def loss_value():
            return mod.loss(params, cfg, ctx, tgt, feats).item()

        grads = backward(mod.loss(params, cfg, ctx, tgt, feats), params)
        for pname, tensor in params.items():
            numeric = numeric_grad(loss_value, tensor.data)
            err = max_rel_err(grads[pname], numeric)
            assert err < 1e-4, f"{kind}.{pname}: rel err {err}"
    assert time.time() - started < 30.0


def test_criterion_4_metric_brute_force_equivalence():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(1, 64))
        truth = rng.uniform(0.5, 120.0, size=n)
        pred = truth + rng.normal(scale=6.0, size=n)
        alloc = rng.integers(0, 161, size=n).astype(float)
        q = float(rng.uniform(0.01, 0.99))

        mse, mae, mape = point_errors(truth, pred)
        assert mse == brute_mse(truth, pred)
        assert mae == brute_mae(truth, pred)
        assert mape == brute_mape(truth, pred)
        assert normalized_deviation(truth, pred) == brute_nd(truth, pred)
        assert quantile_loss(truth, pred, q) == brute_quantile_loss(truth, pred, q)
        assert coverage(truth, pred) == brute_coverage(truth, pred)
        over, under = provisioning(truth, alloc)
        assert (over, under) == brute_provisioning(truth, alloc)
        assert over + under == 100.0
        assert quantile_loss(truth, pred, 0.5) == mae


def test_criterion_5_power_model_exactness():
    p = PowerParams()
    assert total_power(1.0, p) == 1.0
    assert total_power(0.0, p) == 0.7179
    _, half = power_saving(np.full(24, 80), p)
    assert half == 50.0
    perturbed = PowerParams(p0=0.32, p_bb=0.12, p_tran=0.08, p_pa=0.18)
    assert perturbed.p_out_full != p.p_out_full
    alloc = np.array([0.0, 40.0, 95.0, 160.0])
    assert np.allclose(power_saving(alloc, p)[0], power_saving(alloc, perturbed)[0],
                       atol=1e-12)


def test_criterion_6_monotonicity_suite(bench):
    for kind, model in bench["doc"]["models"].items():
        allocs = [np.array(model["allocations"][k]) for k in PERCENTILE_KEYS]
        for lo, hi in zip(allocs[:-1], allocs[1:]):
            assert np.all(lo <= hi), kind
        saving = [model["power_saving_percent"][k] for k in PERCENTILE_KEYS]
        over = [model["metrics"]["over_percent"][k] for k in PERCENTILE_KEYS]
        under = [model["metrics"]["under_percent"][k] for k in PERCENTILE_KEYS]
        assert all(a >= b for a, b in zip(saving, saving[1:])), kind
        assert all(a <= b for a, b in zip(over, over[1:])), kind
        assert all(a >= b for a, b in zip(under, under[1:])), kind


def test_criterion_7_deepar_calibration_and_runtime(bench):
    doc = bench["doc"]
    assert doc["n_windows"] * doc["horizon"] == 336
    cov = doc["models"]["deepar"]["metrics"]["coverage"]
    assert 0.80 <= cov["0.9"] <= 1.00
    assert 0.35 <= cov["0.5"] <= 0.65
    assert bench["seconds"] < 600.0


def test_criterion_8_skill_floor_vs_seasonal_persistence(bench):
    doc = bench["doc"]
    trace = {k: v for k, v in doc["config"]["trace"].items() if k != "kind"}
    series = generate_synthetic(TraceConfig(**trace), doc["max_prb"])
    train, test = split(series, doc["config"]["train_fraction"])
    n = doc["n_windows"] * doc["horizon"]
    truth = np.array(doc["truth_pooled"])
    assert np.array_equal(truth, test.values[:n])
    persist = series.values[len(train) - 24 : len(train) - 24 + n]
    _, persistence_mae, _ = point_errors(truth, persist)
    for kind in ("sff", "deepar", "transformer"):
        model_mae = doc["models"][kind]["metrics"]["mae"]
        assert model_mae <= persistence_mae, (
            f"{kind} mae {model_mae} above persistence {persistence_mae}"
        )


def test_criterion_9_cli_determinism(bench):
    _cli_finish(*bench["run_b"])
    workdir_b = bench["run_b"][1]
    bytes_a = (bench["dir"] / "out" / "report.json").read_bytes()
    bytes_b = (workdir_b / "out" / "report.json").read_bytes()
    assert bytes_a == bytes_b


def test_criterion_10_forecast_shape_contract():
    series = generate_synthetic(TraceConfig(weeks=2))
    for kind in MODULES:
        model = fit(ForecasterConfig(kind=kind, epochs=0), series)
        for k in range(2):
            t0 = 240 + 24 * k
            result = predict(model, series.values[t0 - 24 : t0],
                             start=series.timestamp(t0))
            if kind == "lstm":
                assert result.samples.shape == (1, 24)
                assert result.point is not None
                assert np.array_equal(result.samples[0], result.point)
            else:
                assert result.samples.shape == (100, 24)
