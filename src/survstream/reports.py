"""Report files: metrics JSON, matrix / routing / curve CSVs, KM curves."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .data import TaskData
from .harness import SequenceResult, average_on_trained
from .model import SurvivalModel
from .survival import UndefinedMetricError, km_estimator, log_rank_test, risk_scores

SIGNIFICANCE_LEVEL = 0.05


class DegenerateSplitError(ValueError):
    """Mean-risk split produced an empty group."""


def emit_km_csv(model: SurvivalModel, task: TaskData, out_path) -> tuple[float, float]:
    """Split the task at its mean predicted risk and write both KM curves.

    Rows: group (low/high), event time, survival probability, with the
    log-rank chi2 / p and the significance flag repeated on each row.
    Returns (chi2, p).
    """
    risks = risk_scores(model.predict(task.cases, task.task_id))
    threshold = risks.mean()
    high = risks > threshold
    if not high.any() or high.all():
        raise DegenerateSplitError("mean-risk split left one group empty")
    times = task.times
    events = 1 - task.censor
    chi2, p = log_rank_test(times[~high], events[~high], times[high], events[high])
    significant = int(p < SIGNIFICANCE_LEVEL)
    _write_csv(out_path, ["group", "time", "survival", "chi2", "p", "significant"],
               ([name, f"{t:.9g}", f"{s:.9g}", f"{chi2:.9g}", f"{p:.9g}",
                 significant]
                for name, mask in (("low", ~high), ("high", high))
                for t, s in zip(*km_estimator(times[mask], events[mask]))))
    return chi2, p


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    _write_csv(path, ["row"] + [f"task{j}" for j in range(matrix.shape[1])],
               (["initial" if r == 0 else f"after_task{r - 1}"]
                + ["" if np.isnan(v) else f"{v:.9g}" for v in values]
                for r, values in enumerate(matrix)))


def write_routing_csv(rows, path) -> None:
    _write_csv(path, ["task_id", "module_site", "expert_idx", "proportion"],
               ([task_id, site, expert, f"{prop:.9g}"]
                for task_id, site, expert, prop in rows))


def write_curves_csv(curves, path) -> None:
    _write_csv(path, ["task_id", "epoch", "train_loss", "val_c_index"],
               ([task_id, epoch, f"{loss:.9g}", f"{val_c:.9g}"]
                for task_id, epoch, loss, val_c in curves))


def run_metrics(result: SequenceResult) -> dict:
    """Per-metric Average / Forgetting / BWT / FWT plus the on-trained column."""
    out = {"summary": result.summary(), "average_on_trained": {}}
    for name, pm in result.matrices.items():
        trained = []
        for row in range(1, pm.values.shape[0]):
            try:
                trained.append(average_on_trained(pm.values, row))
            except UndefinedMetricError:
                trained.append(None)
        out["average_on_trained"][name] = trained
    return out


def write_run_reports(result: SequenceResult, out_dir) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = run_metrics(result)
    metrics["km"] = {}
    for task in result.stream.tasks:
        chi2, p = emit_km_csv(result.model, task,
                              out_dir / f"km_task{task.task_id}.csv")
        metrics["km"][str(task.task_id)] = {
            "chi2": chi2, "p": p, "significant": p < SIGNIFICANCE_LEVEL}
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    for name, pm in result.matrices.items():
        write_matrix_csv(pm.values, out_dir / f"matrix_{name}.csv")
    write_routing_csv(result.routing, out_dir / "routing.csv")
    write_curves_csv(result.curves, out_dir / "curves.csv")
    return metrics


def aggregate_metrics(per_seed: list[dict]) -> dict:
    """Mean and standard deviation across seeds for each summary entry."""
    out: dict = {}
    for metric in per_seed[0]["summary"]:
        out[metric] = {}
        keys = per_seed[0]["summary"][metric].keys()
        for key in keys:
            vals = [m["summary"][metric][key] for m in per_seed
                    if key in m["summary"][metric]]
            out[metric][key] = {"mean": float(np.mean(vals)),
                                "std": float(np.std(vals, ddof=1))
                                if len(vals) > 1 else 0.0}
    return out
