"""End-to-end experiment on a reduced setup: trace -> four models -> rolling
test windows -> percentile allocations -> sustainability report.

Takes a couple of minutes (the bundled default.json is the full-size
benchmark; this demo shrinks the trace and epochs). Run:

    python demos/06_full_pipeline.py
"""

from prb_oracle import ExperimentConfig, ForecasterConfig, TraceConfig, emit_report, run_pipeline

config = ExperimentConfig(
    trace=TraceConfig(weeks=4, seed=42),
    percentiles=(0.05, 0.5, 0.9),
    models={
        kind: ForecasterConfig(kind=kind, epochs=2, num_samples=50)
        for kind in ("sff", "deepar", "transformer", "lstm")
    },
    seed=0,
)

report = run_pipeline(config)  # the document that report.json encodes

print(f"\n{report['n_windows']} test windows x {report['horizon']} h pooled")
print(f"true-data power saving: {report['baselines']['true_data']['power_saving_percent']:.1f}%")
print(f"lstm baseline: {report['baselines']['lstm']}")

print(f"\n{'model':<12} {'MAE':>6} {'ND':>7}  saving% per percentile")
for kind, model in report["models"].items():
    savings = "  ".join(f"{model['power_saving_percent'][p]:5.1f}" for p in report["percentiles"])
    print(f"{kind:<12} {model['metrics']['mae']:6.2f} {model['metrics']['nd']:7.3f}  {savings}")

files = emit_report(report, "demo_out")
print("\nwrote:")
for path in files:
    print(f"  {path}")
print("inspect with: python -m prb_oracle inspect demo_out")
