"""Experiment front door.

Verbs:
    run PATH           -- config-driven (method x seed) experiment sweep
    ingest-check DIR   -- validate a feature-bag directory
    km CKPT DATA TASK OUT       -- risk-split Kaplan-Meier curves + log-rank
    routing CKPT DATA TASK OUT  -- per-expert selection proportions

run builds every stream before any output: a directory source is read once
for all seeds; a synthetic one is generated per seed, with the sweep's seed
and the top-level n_bins.

km and routing read the manifest and TASK's file only, and refuse a TASK the
checkpoint has no head for, another patch width or wider genomic groups.

Exit codes: 0 success, 1 config error, 2 data error, 3 undefined metric.
The SURVSTREAM_OUTPUT_ROOT environment variable overrides the output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bagio import (CorruptFileError, DimensionMismatchError, ingest_stream,
                    ingest_task, save_stream)
from .checkpoint import CheckpointMismatchError, load_model, save_model
from .data import N_BINS, TaskData, TaskStream, require_int
from .harness import METHODS, MethodConfig, collect_routing, run_sequence
from .model import SurvivalModel
from .reports import (SIGNIFICANCE_LEVEL, aggregate_metrics, emit_km_csv,
                      write_routing_csv, write_run_reports)
from .survival import UndefinedMetricError
from .synthdata import GenerationError, GeneratorConfig, generate_stream, split_folds

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_METRIC = 3


class ConfigError(ValueError):
    pass


# MethodConfig fields a config may set; method and seed come from the sweep
_METHOD_KEYS = {f.name for f in fields(MethodConfig)} - {"method", "seed"}
_RUN_KEYS = {"source", "methods", "seeds", "output_dir", "n_bins"} | _METHOD_KEYS
_SOURCE_KEYS = {"synthetic": {"type", "generator"}, "directory": {"type", "path"}}


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _generator(cfg: dict, seed) -> GeneratorConfig:
    """`seed`'s generator config. The sweep sets its `seed` and the top-level
    key its `n_bins`, so a `source.generator` that sets either is refused."""
    try:  # the constructor refuses unknown keys and bad values itself
        return GeneratorConfig(seed=seed, n_bins=cfg.get("n_bins", N_BINS),
                               **cfg["source"].get("generator", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"source.generator: {exc}") from exc


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _RUN_KEYS, "config")
    for key in ("source", "methods", "seeds", "output_dir"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
    if not all(isinstance(cfg[k], list) and cfg[k] for k in ("methods", "seeds")):
        raise ConfigError("methods and seeds must be nonempty lists")
    for key in ("methods", "seeds"):
        for i, value in enumerate(cfg[key]):
            if value in cfg[key][:i]:
                raise ConfigError(f"{key} lists {value!r} more than once")
    src = cfg["source"]
    if not (isinstance(src, dict) and src.get("type") in ("synthetic", "directory")):
        raise ConfigError("source must be an object whose type is 'synthetic' "
                          "or 'directory'")
    _check_keys(src, _SOURCE_KEYS[src["type"]], f"{src['type']} source")
    if src["type"] == "directory" and not isinstance(src.get("path"), str):
        raise ConfigError("directory source requires a string 'path'")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be a string")
    method_kwargs = {k: cfg[k] for k in _METHOD_KEYS if k in cfg}
    try:
        require_int("n_bins", cfg.get("n_bins", N_BINS), 2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for method in cfg["methods"]:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
        for seed in cfg["seeds"]:
            try:
                MethodConfig(method=method, seed=seed, **method_kwargs)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"method {method!r}, seed {seed!r}: {exc}") from exc
    if src["type"] == "synthetic":  # after the sweep's own seed and n_bins
        for seed in cfg["seeds"]:
            _generator(cfg, seed)
    return cfg


def _output_root(cfg: dict) -> Path:
    root = os.environ.get("SURVSTREAM_OUTPUT_ROOT")
    out = Path(cfg["output_dir"])
    return Path(root) / out if root else out


def run_experiment(config_path) -> dict:
    """Execute every (method, seed) run and write per-run + aggregate reports."""
    cfg = load_config(config_path)
    synthetic = cfg["source"]["type"] == "synthetic"
    # build every stream first, so one that cannot be built leaves no output
    if synthetic:
        streams = {seed: generate_stream(_generator(cfg, seed))
                   for seed in cfg["seeds"]}
    else:
        streams = dict.fromkeys(cfg["seeds"], ingest_stream(
            cfg["source"]["path"], n_bins=cfg.get("n_bins", N_BINS)))
    out_root = _output_root(cfg)
    out_root.mkdir(parents=True, exist_ok=True)
    method_kwargs = {k: cfg[k] for k in _METHOD_KEYS if k in cfg}
    per_method: dict[str, list[dict]] = {}
    for seed, stream in streams.items():
        if synthetic:
            save_stream(stream, out_root / f"stream_seed{seed}")
        for method in cfg["methods"]:
            result = run_sequence(MethodConfig(method=method, seed=seed,
                                               **method_kwargs), stream)
            run_dir = out_root / f"{method}_seed{seed}"
            metrics = write_run_reports(result, run_dir)
            save_model(result.model, run_dir / "checkpoint.npz")
            if result.buffer is not None:
                result.buffer.save(run_dir / "buffer.npz")
            per_method.setdefault(method, []).append(metrics)
    aggregate = {m: aggregate_metrics(runs) for m, runs in per_method.items()}
    (out_root / "aggregate.json").write_text(json.dumps(aggregate, indent=2))
    return aggregate


def cmd_run(args) -> int:
    run_experiment(args.config)
    return EXIT_OK


def cmd_ingest_check(args) -> int:
    stream = ingest_stream(args.directory, n_bins=args.n_bins)
    for task in stream.tasks:
        print(f"task {task.task_id}: {len(task)} cases, "
              f"bins {[f'{b:.4g}' for b in task.bins.boundaries]}")
    print(f"patch dim {stream.d_patch}, genomic pad width {stream.genomic_width}")
    return EXIT_OK


def _scoring_inputs(args) -> tuple[SurvivalModel, TaskData]:
    """The checkpoint and the task of the data it is asked to score. A task id
    the checkpoint has no head for, another patch width or a genomic group
    wider than its own raise `CheckpointMismatchError` before any forward."""
    model = load_model(args.checkpoint)
    task = ingest_task(args.data, args.task, model.cfg.n_bins)
    if args.task not in model.task_ids:
        raise CheckpointMismatchError(
            f"task {args.task} of {args.data} is not one of the checkpoint's "
            f"tasks {model.task_ids}")
    width = task.cases[0].patches.shape[1]
    if width != model.cfg.d_patch:
        raise CheckpointMismatchError(
            f"task {args.task} of {args.data} has patch width {width}; the "
            f"checkpoint's patch width is {model.cfg.d_patch}")
    group = max(g.size for c in task.cases for g in c.groups)
    if group > model.cfg.genomic_width:
        raise CheckpointMismatchError(
            f"task {args.task} of {args.data} has a genomic group of width "
            f"{group}; the checkpoint's genomic width is {model.cfg.genomic_width}")
    return model, task


def cmd_km(args) -> int:
    model, task = _scoring_inputs(args)
    chi2, p = emit_km_csv(model, task, args.out)
    flag = "significant" if p < SIGNIFICANCE_LEVEL else "not significant"
    print(f"log-rank chi2={chi2:.6g} p={p:.6g} ({flag}); wrote {args.out}")
    return EXIT_OK


def cmd_routing(args) -> int:
    model, task = _scoring_inputs(args)
    splits = [(None, np.arange(len(task)))]
    sub = TaskStream([task], model.cfg.d_patch, model.cfg.genomic_width)
    rows = collect_routing(model, sub, splits)
    write_routing_csv(rows, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="survstream",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("config")
    p_run.set_defaults(fn=cmd_run)
    p_ing = sub.add_parser("ingest-check", help="validate a feature-bag directory")
    p_ing.add_argument("directory")
    p_ing.add_argument("--n-bins", type=int, default=N_BINS)
    p_ing.set_defaults(fn=cmd_ingest_check)
    p_km = sub.add_parser("km", help="risk-split KM curves and log-rank test")
    p_km.add_argument("checkpoint")
    p_km.add_argument("data")
    p_km.add_argument("task", type=int)
    p_km.add_argument("out")
    p_km.set_defaults(fn=cmd_km)
    p_rt = sub.add_parser("routing", help="per-expert selection proportions")
    p_rt.add_argument("checkpoint")
    p_rt.add_argument("data")
    p_rt.add_argument("task", type=int)
    p_rt.add_argument("out")
    p_rt.set_defaults(fn=cmd_routing)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UndefinedMetricError as exc:
        print(f"undefined metric: {exc}", file=sys.stderr)
        return EXIT_METRIC
    except (CheckpointMismatchError, CorruptFileError, DimensionMismatchError,
            GenerationError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
