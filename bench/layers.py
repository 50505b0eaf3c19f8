"""Per-layer metrics computed from one traced unit's spans.

Names follow `<module>.<callable>.<quantity>`: `.calls` counts calls,
`.self_s` sums self time, `.s` (or `.forward_s`) sums inclusive time, and
`*_per_step` divides by the optimisation steps of the traced unit (a step is
the group of spans opened by the harness's `_step_loss`). BENCHMARK.json's
`per_layer` list is exactly `metric_units()`.
"""

from __future__ import annotations

import numpy as np

from survstream.harness import METHODS

from tracer import SpanTable
from workloads import ROUTINES, SIZES

PRIMITIVES = ("matmul", "add", "sub", "mul", "scale", "square", "exp", "log",
              "sigmoid", "relu", "tanh", "softmax", "transpose", "concat_cols",
              "concat_rows", "tile_rows", "mean_rows", "sum_all", "mean_all",
              "col", "linear")
# `linear` records no tape node of its own: it is matmul followed by add
NODE_PRIMITIVES = tuple(p for p in PRIMITIVES if p != "linear")

FORWARD = "model.SurvivalModel.forward"

# metric -> span whose inclusive time it sums
STAGE_TIMES = {
    "model.encode_patches.s": "model.SurvivalModel._encode_patches",
    "model.encode_genomics.s": "model.SurvivalModel._encode_genomics",
    "model.fuse.s": "model.SurvivalModel.fuse",
    "model.predict_hazards.s": "model.SurvivalModel.predict_hazards",
    "model.feature_triple.s": "model.SurvivalModel.feature_triple",
    "model.get_state.s": "model.SurvivalModel.get_state",
    "model.set_state.s": "model.SurvivalModel.set_state",
    "moe.patch.forward_s": "moe.MoEModule.forward[patch]",
    "moe.genomic.forward_s": "moe.MoEModule.forward[genomic]",
    "moe.fusion.forward_s": "moe.MoEModule.forward[fusion]",
    "moe.routing_stats.s": "moe.MoEModule.routing_stats",
    "fcr.reservoir_update.s": "fcr.ReplayBuffer.reservoir_update",
    "fcr.sample_replay.s": "fcr.ReplayBuffer.sample_replay",
    "fcr.buffer_save.s": "fcr.ReplayBuffer.save",
    "harness.AdamW.step.s": "harness.AdamW.step",
    "harness.evaluate_risks.s": "harness._evaluate_risks",
    "harness.collect_routing.s": "harness.collect_routing",
    "bagio.save_stream.s": "bagio.save_stream",
    "bagio.ingest_stream.s": "bagio.ingest_stream",
    "checkpoint.save_model.s": "checkpoint.save_model",
    "checkpoint.load_model.s": "checkpoint.load_model",
    "reports.emit_km_csv.s": "reports.emit_km_csv",
    "reports.write_run_reports.s": "reports.write_run_reports",
    "synthdata.generate_stream.s": "synthdata.generate_stream",
    "cli.km.s": "cli.cmd_km",
    "cli.routing.s": "cli.cmd_routing",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for p in PRIMITIVES:
        units[f"autodiff.{p}.calls"] = "count"
        units[f"autodiff.{p}.self_s"] = "s"
    units["autodiff.primitive.calls_per_step"] = "count"
    units["autodiff.backward.self_s"] = "s"
    units["model.forward.calls_per_step"] = "count"
    for m in METHODS:
        units[f"model.forward.calls_per_step.{m}"] = "count"
    units["model.forward.self_s"] = "s"
    units["moe.topk_s_select.calls"] = "count"
    units["moe.topk_s_select.self_s"] = "s"
    units["fcr.replay_items_per_step"] = "count"
    units["survival.nll_survival_loss.self_s"] = "s"
    for r in ROUTINES:
        for n in SIZES:
            for tie in ("tied", "untied"):
                units[f"survival.{r}.n{n}-{tie}.s"] = "s"
    units[f"survival.c_index.n{max(SIZES)}-untied.peak_mb"] = "MB"
    units["harness.AdamW.tensors_per_step"] = "count"
    units["harness.train_task.s"] = "s"
    units["harness.steps"] = "count"
    units["bagio.ingest_stream.MBps"] = "MB/s"
    for name in STAGE_TIMES:
        units[name] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def _mode(values: np.ndarray) -> float:
    """Most common per-step count; with replay that is the count at steps
    where the buffer is non-empty (only a task stream's first step finds it
    empty)."""
    if values.size == 0:
        return 0.0
    counts = np.bincount(values.astype(np.int64))
    return float(np.argmax(counts))


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def layer_metrics(t: SpanTable, peak_mb: float, overhead_s: float,
                  untraced_s: float) -> dict[str, float]:
    m: dict[str, float] = {}
    for p in PRIMITIVES:
        m[f"autodiff.{p}.calls"] = t.calls(f"autodiff.{p}")
        m[f"autodiff.{p}.self_s"] = t.self_total(f"autodiff.{p}")
    m["autodiff.primitive.calls_per_step"] = _mean(
        t.per_step([f"autodiff.{p}" for p in NODE_PRIMITIVES]))
    m["autodiff.backward.self_s"] = t.self_total("autodiff.backward")
    m["model.forward.calls_per_step"] = _mean(t.per_step([FORWARD]))
    for meth in METHODS:
        m[f"model.forward.calls_per_step.{meth}"] = _mode(
            t.per_step([FORWARD], meth))
    m["model.forward.self_s"] = t.self_total(FORWARD)
    m["moe.topk_s_select.calls"] = t.calls("moe.topk_s_select")
    m["moe.topk_s_select.self_s"] = t.self_total("moe.topk_s_select")
    steps = t.steps().size
    replayed = t.count_values("fcr.ReplayBuffer.sample_replay", steps_only=True)
    m["fcr.replay_items_per_step"] = float(replayed.sum()) / steps if steps else 0.0
    m["survival.nll_survival_loss.self_s"] = t.self_total(
        "survival.nll_survival_loss")
    for r in ROUTINES:
        for n in SIZES:
            for tie in ("tied", "untied"):
                m[f"survival.{r}.n{n}-{tie}.s"] = t.total_s(
                    f"bench.survival.{r}.n{n}-{tie}")
    m[f"survival.c_index.n{max(SIZES)}-untied.peak_mb"] = peak_mb
    m["harness.AdamW.tensors_per_step"] = _mean(
        t.count_values("harness.AdamW.step"))
    m["harness.train_task.s"] = (t.total_s("harness.train_task")
                                 + t.total_s("harness._train_joint"))
    m["harness.steps"] = steps
    ingest_s = t.total_s("bagio.ingest_stream")
    ingest_mb = t.count_values("bagio.ingest_stream").sum() / 1e6
    m["bagio.ingest_stream.MBps"] = ingest_mb / ingest_s if ingest_s else 0.0
    for name, span in STAGE_TIMES.items():
        m[name] = t.total_s(span)
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_pct"] = 100.0 * overhead_s / untraced_s
    return {k: float(v) for k, v in m.items()}
