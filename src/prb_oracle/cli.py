"""Command-line front door: generate traces, run the pipeline, inspect reports.

Override precedence: CLI flag beats config-file value beats built-in default;
the PRB_ORACLE_OUT environment variable, unless empty, is the output-directory
fallback when neither flag nor file names one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .forecasters import TrainingDiverged
from .rapp import (ExperimentConfig, PipelineError, _is_a, _plabel, _type_name, check_output_dir,
                   emit_report, run_pipeline)
from .traces import TraceError, generate_synthetic, save_csv

DEFAULT_CONFIG_NAME = "default.json"


def default_config_path() -> Path:
    """The bundled benchmark configuration shipped with the package."""
    return Path(__file__).parent / DEFAULT_CONFIG_NAME


def write_default_config(path: str | Path) -> Path:
    """Copy the bundled default configuration to `path`."""
    path = Path(path)
    path.write_text(default_config_path().read_text())
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prb-oracle",
        description="Probabilistic PRB-load forecasting and power-saving simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-trace", help="write a synthetic trace CSV")
    gen.add_argument("--config", help="experiment config JSON (its trace block is used)")
    gen.add_argument("--seed", type=int, help="override the trace seed")
    gen.add_argument("--out", default="trace.csv", help="output CSV path (default trace.csv)")

    run = sub.add_parser("run", help="run the pipeline and emit the report files")
    run.add_argument("--config", help=f"experiment config JSON (default: bundled {DEFAULT_CONFIG_NAME})")
    run.add_argument("--seed", type=int, help="override the global seed")
    run.add_argument("--out", help="output directory")
    run.add_argument("--models", help="comma-separated subset of sff,deepar,transformer,lstm")
    run.add_argument("--percentiles", help="comma-separated percentile levels in (0,1)")

    ins = sub.add_parser("inspect", help="summarize an existing report.json")
    ins.add_argument("report", help="path to report.json (or its directory)")
    return parser


def _load_raw_config(path: str | None) -> dict:
    config_path = Path(path) if path else default_config_path()
    if not config_path.exists():
        raise PipelineError(f"config file not found: {config_path}")
    try:
        doc = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise PipelineError(f"config {config_path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        got = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(
            type(doc), "a number")
        raise PipelineError(f"config {config_path} must be a JSON object, got {got}")
    return doc


def _resolve_run_config(args) -> ExperimentConfig:
    doc = _load_raw_config(args.config)
    config = ExperimentConfig.from_dict(doc)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.models is not None:
        wanted = [m.strip() for m in args.models.split(",") if m.strip()]
        if not wanted:
            raise PipelineError(f"--models {args.models!r} names no model")
        missing = [m for m in wanted if m not in config.models]
        if missing:
            raise PipelineError(f"models not in config: {missing}")
        config = replace(config, models={k: config.models[k] for k in wanted})
    if args.percentiles is not None:
        try:
            levels = tuple(float(p) for p in args.percentiles.split(","))
        except ValueError:
            raise PipelineError(f"bad percentile list {args.percentiles!r}") from None
        config = replace(config, percentiles=levels)
    # An empty --out or output_dir is an error, not a fall-through to the next source.
    out = doc.get("output_dir", os.environ.get("PRB_ORACLE_OUT") or "out")
    return replace(config, output_dir=args.out if args.out is not None else out)


def _cmd_gen_trace(args) -> int:
    if not args.out:
        raise PipelineError("--out must name a file, got an empty path")
    doc = _load_raw_config(args.config)
    config = ExperimentConfig.from_dict(doc)
    if isinstance(config.trace, str):
        raise PipelineError("gen-trace needs a synthetic trace block, config points at a CSV")
    trace_cfg = config.trace
    if args.seed is not None:
        trace_cfg = replace(trace_cfg, seed=args.seed)
    series = generate_synthetic(trace_cfg, config.max_prb)
    out = Path(args.out)
    save_csv(series, out)
    print(f"wrote {len(series)} hours to {out}")
    return 0


def _cmd_run(args) -> int:
    config = _resolve_run_config(args)
    check_output_dir(config.output_dir)  # before any training, not after every fit
    report = run_pipeline(config)
    written = emit_report(report, config.output_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_inspect(args) -> int:
    path = Path(args.report)
    if path.is_dir():
        path = path / "report.json"
    if not path.exists():
        raise PipelineError(f"report not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PipelineError(f"{path} is not a report: not valid JSON ({exc})") from None

    def field(*keys, like=0.0):
        """doc[keys[0]][keys[1]]...; a missing key, or a value unlike `like` by the
        config's type rule ({}: an object), is an error naming its dotted path."""
        value = doc
        for depth, key in enumerate(keys, start=1):
            if not isinstance(value, dict) or key not in value:
                raise PipelineError(f"{path} is not a report: no {'.'.join(keys[:depth])!r} key")
            value = value[key]
        if not _is_a(value, like):
            raise PipelineError(
                f"{path} is not a report: {'.'.join(keys)!r} must be {_type_name(like)}, got {value!r}"
            )
        return value

    percentiles = field("percentiles", like=(0.0,))
    labels = [_plabel(p) for p in percentiles]
    name_w, stat_w = 12, 16
    # Every cell is looked up before anything is printed, so a broken report
    # prints its error line alone.
    lines = [
        f"{'model':<{name_w}} {'statistic':<{stat_w}} " + " ".join(f"{l:>8}" for l in labels),
        f"{'true_data':<{name_w}} {'saving%':<{stat_w}} "
        f"{field('baselines', 'true_data', 'power_saving_percent'):>8.2f}  (all percentiles)",
    ]
    if field("baselines", like={}).get("lstm"):
        for stat, label in (("power_saving_percent", "saving%"),
                            ("over_percent", "over%"), ("under_percent", "under%")):
            lines.append(f"{'lstm':<{name_w}} {label:<{stat_w}} {field('baselines', 'lstm', stat):>8.2f}")
    for kind in field("models", like={}):
        for label, keys in (("saving%", ("power_saving_percent",)),
                            ("over%", ("metrics", "over_percent")),
                            ("under%", ("metrics", "under_percent"))):
            cells = " ".join(f"{field('models', kind, *keys, str(p)):>8.2f}" for p in percentiles)
            lines.append(f"{kind:<{name_w}} {label:<{stat_w}} {cells}")
    print("\n".join(lines))
    return 0


def dispatch(argv: list[str]) -> int:
    """Parse and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)
    handlers = {"gen-trace": _cmd_gen_trace, "run": _cmd_run, "inspect": _cmd_inspect}
    try:
        # The run's own checks report a non-finite loss or sample as one error
        # line; numpy's warnings on the way there would only add noise.
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (PipelineError, TraceError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
