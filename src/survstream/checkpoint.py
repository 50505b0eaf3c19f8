"""Model checkpoints: one .npz holding every parameter plus a config record,
written by `bagio.write_npz` at exactly the path it is given.

Loading builds the model's structure from the config record without drawing
random weights, then `set_state` writes every parameter from the archive.
A checkpoint scores only the tasks it has heads for, and only cases of the
patch width it was built for whose genomic groups fit its genomic width; the
`km` and `routing` verbs refuse anything else with `CheckpointMismatchError`.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .bagio import read_npz, write_npz
from .model import ModelConfig, SurvivalModel


class CheckpointMismatchError(ValueError):
    """Data that a checkpoint was not built to score: a task it has no head
    for, another patch width, or genomic groups wider than its own."""


def save_model(model: SurvivalModel, path) -> None:
    meta = {"config": asdict(model.cfg), "task_ids": model.task_ids}
    arrays = {f"param/{k}": v for k, v in model.get_state().items()}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    write_npz(path, arrays)


def load_model(path) -> SurvivalModel:
    """Rebuild a `save_model` checkpoint; any damage raises `CorruptFileError`."""
    return read_npz(path, "checkpoint", _build_model)


class _ZeroInit:
    """Stands in for the `np.random.Generator` the layer constructors draw
    their initial weights from: every draw is zeros, so building a model
    whose weights `set_state` overwrites costs no random numbers."""

    @staticmethod
    def uniform(low, high, size) -> np.ndarray:
        return np.zeros(size)


def _build_model(archive) -> SurvivalModel:
    meta = json.loads(archive["meta"].tobytes().decode())
    state = {k[len("param/"):]: archive[k]
             for k in archive if k.startswith("param/")}
    rng = _ZeroInit()
    model = SurvivalModel(ModelConfig(**meta["config"]), rng)
    for task_id in meta["task_ids"]:
        model.add_task(task_id, rng)
    model.set_state(state)
    return model

