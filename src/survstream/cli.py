"""Experiment front door.

Verbs:
    run PATH           -- config-driven (method x seed) experiment sweep
    ingest-check DIR   -- validate a feature-bag directory
    km CKPT DATA TASK OUT       -- risk-split Kaplan-Meier curves + log-rank
    routing CKPT DATA TASK OUT  -- per-expert selection proportions

Exit codes: 0 success, 1 config error, 2 data error, 3 undefined metric.
The SURVSTREAM_OUTPUT_ROOT environment variable overrides the output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bagio import CorruptFileError, DimensionMismatchError, ingest_stream, save_stream
from .checkpoint import load_model, save_model
from .data import TaskStream
from .estimator import ContinualSurvivalEstimator
from .harness import collect_routing
from .reports import (aggregate_metrics, emit_km_csv, write_routing_csv,
                      write_run_reports)
from .survival import UndefinedMetricError
from .synthdata import GenerationError, GeneratorConfig, generate_stream, split_folds

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_METRIC = 3


class ConfigError(ValueError):
    pass


# estimator keywords a config may set; method and seed come from the sweep
_EST_KEYS = frozenset(ContinualSurvivalEstimator._PARAM_NAMES) - {"method", "seed"}
_RUN_KEYS = {"source", "methods", "seeds", "output_dir", "n_bins"} | _EST_KEYS
_SOURCE_KEYS = {"type", "generator", "path"}


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


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
    _check_keys(cfg["source"], _SOURCE_KEYS, "source")
    if not cfg["methods"] or not cfg["seeds"]:
        raise ConfigError("need at least one method and one seed")
    src_type = cfg["source"].get("type")
    if src_type not in ("synthetic", "directory"):
        raise ConfigError("source.type must be 'synthetic' or 'directory'")
    if src_type == "synthetic":
        gen = dict(cfg["source"].get("generator", {}))
        _check_keys(gen, set(GeneratorConfig.__dataclass_fields__),
                    "source.generator")
    elif "path" not in cfg["source"]:
        raise ConfigError("directory source requires 'path'")
    return cfg


def _build_stream(cfg: dict, seed: int) -> TaskStream:
    src = cfg["source"]
    if src["type"] == "synthetic":
        gen = dict(src.get("generator", {}))
        gen.setdefault("seed", seed)
        gen.setdefault("n_bins", cfg.get("n_bins", 4))
        return generate_stream(GeneratorConfig(**gen))
    return ingest_stream(src["path"], n_bins=cfg.get("n_bins", 4))


def _output_root(cfg: dict) -> Path:
    root = os.environ.get("SURVSTREAM_OUTPUT_ROOT")
    out = Path(cfg["output_dir"])
    return Path(root) / out if root else out


def run_experiment(config_path) -> dict:
    """Execute every (method, seed) run and write per-run + aggregate reports."""
    cfg = load_config(config_path)
    out_root = _output_root(cfg)
    out_root.mkdir(parents=True, exist_ok=True)
    est_kwargs = {k: cfg[k] for k in _EST_KEYS if k in cfg}
    per_method: dict[str, list[dict]] = {}
    for seed in cfg["seeds"]:
        stream = _build_stream(cfg, seed)
        if cfg["source"]["type"] == "synthetic":
            save_stream(stream, out_root / f"stream_seed{seed}")
        for method in cfg["methods"]:
            est = ContinualSurvivalEstimator(method=method, seed=seed,
                                             **est_kwargs)
            est.fit(stream)
            result = est.result_
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


def cmd_km(args) -> int:
    model = load_model(args.checkpoint)
    stream = ingest_stream(args.data, n_bins=model.cfg.n_bins)
    task = _find_task(stream, args.task)
    chi2, p = emit_km_csv(model, task, args.out)
    flag = "significant" if p < 0.05 else "not significant"
    print(f"log-rank chi2={chi2:.6g} p={p:.6g} ({flag}); wrote {args.out}")
    return EXIT_OK


def cmd_routing(args) -> int:
    model = load_model(args.checkpoint)
    stream = ingest_stream(args.data, n_bins=model.cfg.n_bins)
    task = _find_task(stream, args.task)
    splits = [(None, np.arange(len(task)))]
    sub = TaskStream([task], stream.d_patch, stream.genomic_width)
    rows = collect_routing(model, sub, splits)
    write_routing_csv(rows, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _find_task(stream: TaskStream, task_id: int):
    for task in stream.tasks:
        if task.task_id == task_id:
            return task
    raise CorruptFileError(f"task {task_id} not present in data directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="survstream",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("config")
    p_run.set_defaults(fn=cmd_run)
    p_ing = sub.add_parser("ingest-check", help="validate a feature-bag directory")
    p_ing.add_argument("directory")
    p_ing.add_argument("--n-bins", type=int, default=4)
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
    except (CorruptFileError, DimensionMismatchError, GenerationError,
            FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
