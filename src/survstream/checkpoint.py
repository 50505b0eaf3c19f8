"""Model checkpoints: one .npz holding every parameter plus a config record."""

from __future__ import annotations

import json

import numpy as np

from .bagio import read_npz
from .model import ModelConfig, SurvivalModel


def save_model(model: SurvivalModel, path) -> None:
    meta = {
        "config": {
            "d_patch": model.cfg.d_patch,
            "genomic_width": model.cfg.genomic_width,
            "latent": model.cfg.latent,
            "hidden": model.cfg.hidden,
            "attn_dim": model.cfg.attn_dim,
            "n_bins": model.cfg.n_bins,
            "n_experts": model.cfg.n_experts,
            "k_top": model.cfg.k_top,
        },
        "task_ids": model.task_ids,
    }
    arrays = {f"param/{k}": v for k, v in model.get_state().items()}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_model(path) -> SurvivalModel:
    """Rebuild a `save_model` checkpoint; any damage raises `CorruptFileError`."""
    return read_npz(path, "checkpoint", _build_model)


def _build_model(archive) -> SurvivalModel:
    meta = json.loads(archive["meta"].tobytes().decode())
    state = {k[len("param/"):]: archive[k]
             for k in archive.files if k.startswith("param/")}
    rng = np.random.default_rng(0)  # structure only; weights overwritten below
    model = SurvivalModel(ModelConfig(**meta["config"]), rng)
    for task_id in meta["task_ids"]:
        model.add_task(task_id, rng)
    model.set_state(state)
    return model
