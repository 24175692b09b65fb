"""Self-test of the benchmark's layer tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_tracer.py
"""

import inspect

import numpy as np
import pytest

import tracer as tracer_mod
from prb_oracle import decision, forecasters, traces
from prb_oracle.nncore import tensor

TINY = dict(epochs=1, num_samples=2)


@pytest.fixture
def tracer():
    t = tracer_mod.Tracer()
    yield t
    t.uninstall()


@pytest.fixture(scope="module")
def series():
    full = traces.generate_synthetic(traces.TraceConfig(weeks=1, seed=5), 160)
    return traces.PrbSeries(full.start_time, full.values[:60], full.max_prb)


def test_every_binding_of_a_layer_function_is_wrapped_and_restored(tracer):
    before = {(m.__name__, n): v for m in tracer.modules for n, v in vars(m).items()}
    tracer.install()
    try:
        assert tracer.untraced_bindings() == []
        wrapped = {(mod, name) for mod, name, _ in tracer.bindings()}
        # Names bound by `from ... import`, which a per-module patch would miss.
        for binding in [("prb_oracle.rapp", "fit"), ("prb_oracle.rapp", "predict"),
                        ("prb_oracle.forecasters.base", "backward"),
                        ("prb_oracle.forecasters.base", "adam_step"),
                        ("prb_oracle.nncore.tensor", "matmul"),
                        ("prb_oracle.decision", "forecast_quantile"),
                        ("prb_oracle.forecasters.lstm", "lstm_cell")]:
            assert binding in wrapped
        assert inspect.unwrap(tensor.matmul) is before[("prb_oracle.nncore.tensor", "matmul")]
    finally:
        tracer.uninstall()
    after = {(m.__name__, n): v for m in tracer.modules for n, v in vars(m).items()}
    assert after == before


def test_self_times_and_unattributed_remainder_sum_to_wall_time(tracer, series):
    tracer.install()
    for kind in forecasters.MODEL_KINDS:
        config = forecasters.ForecasterConfig(kind=kind, **TINY)
        with tracer.op():
            model = forecasters.fit(config, series)
            result = forecasters.predict(model, series.values[-24:])
            decision.allocate(result, decision.AllocationPolicy(0.9), 160)
    tracer.uninstall()
    assert tracer.ops == 4
    assert abs(tracer.accounting_error()) < 1e-9
    assert all(t >= 0.0 for t in tracer.layer_self().values())
    assert tracer.root_self_s >= 0.0
    for layer in ("traces", "nncore", "likelihoods", "forecasters", "decision"):
        assert tracer.layer_self()[layer] > 0.0
    # 60 hours give 60 - 24 - 24 + 1 windows per fit.
    assert tracer.items[("traces", "make_windows")] == 4 * 13
    steps = tracer.total("nncore", "adam_step", scope=("fit", "deepar"), field=0)
    assert steps == 13
    assert tracer.total("forecasters", "predict", scope=("predict", "lstm"), field=0) == 1


def test_tracing_does_not_change_results(tracer, series):
    config = forecasters.ForecasterConfig(kind="sff", **TINY)
    plain = forecasters.fit(config, series)
    tracer.install()
    try:
        traced = forecasters.fit(config, series)
    finally:
        tracer.uninstall()
    assert traced.final_train_loss == plain.final_train_loss
    for name, t in plain.params.items():
        np.testing.assert_array_equal(traced.params[name].data, t.data)

