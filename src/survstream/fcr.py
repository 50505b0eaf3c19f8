"""Reservoir replay buffer and feature-constrained replay losses.

The buffer keeps a fixed number of past cases sampled uniformly from the
whole stream (reservoir discipline). Each stored case carries the three
feature representations (patch, genomic, fused) frozen at insertion time;
training later penalises the current model's drift from those features with
squared L2 distances, and replays the stored cases through the survival loss.
Loss weights are plain floats, defined and checked by `harness.MethodConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bagio import case_columns, column_cases, read_npz, write_npz
from .data import CaseRecord
from .survival import nll_survival_loss


@dataclass
class ReplayItem:
    case: CaseRecord
    task_id: int
    f_patch: np.ndarray   # frozen (1, d)
    f_genomic: np.ndarray
    f_fused: np.ndarray
    logits: np.ndarray | None = None  # stored hazard logits (distillation methods)


_FEATURES = ("f_patch", "f_genomic", "f_fused")


class ReplayBuffer:
    """Fixed-capacity reservoir over the training stream."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items: list[ReplayItem] = []
        self.seen_count = 0

    def __len__(self) -> int:
        return len(self.items)

    def reservoir_update(self, item: ReplayItem, rng: np.random.Generator) -> int | None:
        """Insert during the fill phase, then replace a random slot with
        probability capacity / seen_count; return the slot taken, or None."""
        self.seen_count += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            return len(self.items) - 1
        slot = int(rng.integers(0, self.seen_count))
        if slot >= self.capacity:
            return None
        self.items[slot] = item
        return slot

    def sample_replay(self, count: int, rng: np.random.Generator) -> list[ReplayItem]:
        """Uniform with replacement; empty buffer yields an empty batch."""
        if not self.items:
            return []
        idx = rng.integers(0, len(self.items), size=count)
        return [self.items[i] for i in idx]

    # ------------------------------------------------------------ serialization

    def save(self, path) -> None:
        """Write an uncompressed `.npz` archive at exactly `path`: the cases
        in `bagio.case_columns` (f64 features), and per item its label, task
        id, frozen features and, where `has_logits` says so, logits."""
        items, cases = self.items, [it.case for it in self.items]
        arrays = case_columns(cases, np.float64)
        arrays.update(
            label=np.array([c.label for c in cases], dtype=np.int64),
            task_id=np.array([it.task_id for it in items], dtype=np.int64),
            has_logits=np.array([it.logits is not None for it in items], dtype=bool),
            logits=np.array([it.logits for it in items if it.logits is not None]),
            capacity=np.int64(self.capacity), seen_count=np.int64(self.seen_count),
            **{f: np.array([getattr(it, f) for it in items]) for f in _FEATURES})
        write_npz(path, arrays)

    @classmethod
    def load(cls, path) -> "ReplayBuffer":
        """Read a `save` archive; damage, or a frozen feature or logit that
        is not finite, raises `CorruptFileError`."""
        return read_npz(path, "replay buffer", cls._read)

    @classmethod
    def _read(cls, z) -> "ReplayBuffer":
        buf = cls(int(z["capacity"]))
        buf.seen_count = int(z["seen_count"])
        cases = column_cases(z)
        columns = [z[k] for k in ("label", "task_id", "has_logits", *_FEATURES)]
        if (any(len(c) != len(cases) for c in columns)
                or sum(z["has_logits"]) != len(z["logits"])):
            raise ValueError("per-item members differ in length")
        for k in (*_FEATURES, "logits"):
            if not np.isfinite(z[k]).all():
                raise ValueError(f"{k} holds NaN or inf")
        logits = iter(z["logits"])
        for case, label, task_id, has_logits, *features in zip(cases, *columns):
            case.label = int(label)
            buf.items.append(ReplayItem(case, int(task_id), *features,
                                        next(logits) if has_logits else None))
        return buf


# ---------------------------------------------------------------------------
# losses

def replay_terms(model, items: list[ReplayItem], alpha: float, beta: float,
                 censored_weight: float = 0.0) -> tuple[ad.Tensor, ad.Tensor]:
    """(feature constraint, replay NLL), each a mean over `items`, from one
    forward per item.

    The feature constraint is the summed squared drift of the three feature
    maps from their frozen values; frozen features are constants, so
    gradients flow only through the current model's recomputation of each
    stored case. The replay NLL sends each case through its own task head.
    A term whose weight is zero is not built and comes back as 0.
    """
    fc = rl = None
    for it in items:
        hazards, f_p, f_g, f_f, _ = model.forward(it.case, it.task_id)
        if alpha > 0.0:
            term = ad.add(ad.add(_sq_dist(it.f_patch, f_p),
                                 _sq_dist(it.f_genomic, f_g)),
                          _sq_dist(it.f_fused, f_f))
            fc = term if fc is None else ad.add(fc, term)
        if beta > 0.0:
            term = nll_survival_loss(hazards, it.case.label, it.case.censored,
                                     censored_weight)
            rl = term if rl is None else ad.add(rl, term)
    return _mean(fc, len(items)), _mean(rl, len(items))


def _sq_dist(frozen: np.ndarray, current: ad.Tensor) -> ad.Tensor:
    return ad.sum_all(ad.square(ad.sub(ad.constant(frozen), current)))


def _mean(total: ad.Tensor | None, n: int) -> ad.Tensor:
    return ad.constant(0.0) if total is None else ad.scale(total, 1.0 / n)


def replay_loss(model, items: list[ReplayItem],
                censored_weight: float = 0.0) -> ad.Tensor:
    """Mean survival NLL over replayed cases, each through its own task head."""
    return replay_terms(model, items, 0.0, 1.0, censored_weight)[1]


def total_loss(current: ad.Tensor, feature_term: ad.Tensor, replay_term: ad.Tensor,
               alpha: float, beta: float) -> ad.Tensor:
    """current + alpha * feature constraint + beta * replay."""
    return ad.add(current, ad.add(ad.scale(feature_term, alpha),
                                  ad.scale(replay_term, beta)))
