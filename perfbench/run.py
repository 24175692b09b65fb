"""prb-oracle benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,forecast,experiment} \
        --seed N --seconds S --trace {0,1}

The workload runs in this process against the sources in ./src. The run
first times repeated set-ups (see SETUP_MIN_REPS and SETUP_MIN_S), each in a
fresh interpreter that imports prb_oracle and sets the workload up (this
script with --setup-only), then sets up once in this process. It repeats the
workload's operation until S seconds have passed (and at least the
workload's minimum number of times), checks every output, and prints to
stdout: one `env` line, one line per headline metric, and as the last line
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json. With
--trace 1 each operation runs twice on the same input, untraced and then
under the layer tracer, and the metrics are BENCHMARK.json's per-layer
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# The models' tiny (1x40)·(40x160) matmuls run fastest and steadiest on one
# BLAS thread, which is never more than nproc.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of fresh-interpreter set-ups, repeated at least this
# often and this long. Import time (about 0.1 s) dominates on train and
# experiment, model fitting (about 0.8 s) on forecast.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Layer self times plus the unattributed remainder must equal the traced wall
# time up to float rounding.
ACCOUNTING_TOLERANCE_S = 1e-6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "forecast", "experiment"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, set the workload up once, and print the seconds taken")
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or the maximum when there are too few samples for any."""
    import numpy as np

    n = len(samples)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            return level, float(np.percentile(samples, level))
    return 100.0, float(max(samples))


def blas_info() -> dict:
    """The BLAS numpy was built against, and the thread settings it was given."""
    import numpy as np

    info = {"blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def declared_metrics() -> tuple[dict, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def fresh_setup_s(args) -> float:
    """Seconds one fresh interpreter takes to import prb_oracle and set up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up exited with {out.returncode}:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def measure(workload, seconds: float, tracer) -> dict:
    """Set up, then run ops in a closed loop; tracer is None for an untraced run."""
    workload.setup()
    run = {"ops": [], "errors": [], "attempted": 0, "failed": 0}
    if tracer is not None:
        tracer.install()
        try:
            with tracer.op():
                workload.setup()
        finally:
            tracer.uninstall()
        run["traces.setup_s"] = tracer.layer_self()["traces"]
        tracer.reset()

    # A traced run repeats each input under the tracer right after its
    # untraced op, so the pair differs only in the tracing.
    passes = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        for traced in passes:
            if traced:
                tracer.install()
                run["errors"] += [f"untraced binding {b}" for b in tracer.untraced_bindings()]
            run["attempted"] += workload.attempts_per_op
            try:
                t0 = time.perf_counter()
                with tracer.op() if traced else nullcontext():
                    result = workload.op(i)
                wall = time.perf_counter() - t0
            except Exception:  # a failing op is counted and reported, not fatal
                traceback.print_exc()
                run["failed"] += workload.attempts_per_op
                run["errors"].append(f"op {i} raised")
                return run
            finally:
                if traced:
                    tracer.uninstall()
            errors = workload.check(i, result)
            run["failed"] += min(len(errors), workload.attempts_per_op)
            run["errors"] += errors
            run["ops"].append({
                "traced": traced,
                "wall_s": wall,
                "windows": workload.windows(result),
            })
        i += 1
    return run


def end_to_end(run: dict) -> tuple[dict, float, str]:
    """The end-to-end metrics over the untraced ops, plus op_tail_ms and the
    percentile it is, which are printed but not bounded."""
    ops = [op for op in run["ops"] if not op["traced"]]
    latencies = [1e3 * op["wall_s"] for op in ops]
    level, tail_ms = tail(latencies)
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_pct": 100.0 * (run["attempted"] - run["failed"]) / run["attempted"],
        "windows_per_s": sum(op["windows"] for op in ops) / sum(op["wall_s"] for op in ops),
        "op_p50_ms": statistics.median(latencies),
    }, tail_ms, f"p{level:g} of {len(latencies)} samples"


def per_layer(run: dict, workload, tracer) -> dict:
    traced = [op for op in run["ops"] if op["traced"]]
    untraced = [op for op in run["ops"] if not op["traced"]]
    out = workload.layer_metrics(tracer, len(traced))
    out["traces.setup_s"] = run["traces.setup_s"]
    # Ops alternate untraced, traced on the same input: compare within pairs.
    out["trace.overhead_pct"] = statistics.median(
        100.0 * (t["wall_s"] - u["wall_s"]) / u["wall_s"] for u, t in zip(untraced, traced))
    return out


def tracer_errors(tracer) -> list[str]:
    """The tracer's self-test: its accounting must close over the traced ops."""
    errors = []
    residual = tracer.accounting_error()
    if abs(residual) > ACCOUNTING_TOLERANCE_S:
        errors.append(f"layer self times + unattributed - wall = {residual:.3e} s")
    if any(t < -ACCOUNTING_TOLERANCE_S for t in tracer.layer_self().values()):
        errors.append(f"negative layer self time: {tracer.layer_self()}")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when it loads, so pin it before numpy is imported.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "prb_oracle" / "__init__.py").is_file():
        print(f"error: no prb_oracle sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import prb_oracle
    import workloads
    if Path(prb_oracle.__file__).resolve().parent != SRC / "prb_oracle":
        print(f"error: imported prb_oracle from {prb_oracle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        try:
            workload.setup()
        finally:
            workload.close()
        print(time.perf_counter() - t0)
        return 0
    e2e_units, layer_units = declared_metrics()

    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_S:
        setup_s.append(fresh_setup_s(args))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        run = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
    run["setup_s"] = setup_s
    if not run["ops"] or (args.trace and not any(op["traced"] for op in run["ops"])):
        print("error: no operation completed", file=sys.stderr)
        return 1
    e2e, tail_ms, tail_label = end_to_end(run)
    for name, value, unit in workload.summary(e2e, tail_ms):
        print(f"{args.workload} {name} {value} {unit}".rstrip())
    print(f"{args.workload} op_tail_ms {tail_ms} ms ({tail_label})")
    print(f"{args.workload} error_rate {100.0 - e2e['ok_pct']} % of ops")
    errors = run["errors"]
    if args.trace:
        metrics, units = per_layer(run, workload, tracer), layer_units
        errors += tracer_errors(tracer)
        print(f"{'function':<48}{'calls':>10}{'incl s':>10}{'self s':>10}", file=sys.stderr)
        for name, calls, incl, self_s in tracer.top():
            print(f"{name:<48}{calls:>10}{incl:>10.3f}{self_s:>10.3f}", file=sys.stderr)
    else:
        metrics, units = e2e, e2e_units
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
