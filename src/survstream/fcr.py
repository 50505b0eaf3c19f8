"""Reservoir replay buffer and feature-constrained replay losses.

The buffer keeps a fixed number of past cases sampled uniformly from the
whole stream (reservoir discipline). Each stored case carries the three
feature representations (patch, genomic, fused) frozen at insertion time;
training later penalises the current model's drift from those features with
squared L2 distances, and replays the stored cases through the survival loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bagio import read_npz
from .data import CaseRecord, N_GENOMIC_GROUPS
from .survival import SurvLossConfig, nll_survival_loss


@dataclass(frozen=True)
class CLLossConfig:
    """Weights of the combined continual-learning objective."""

    alpha: float = 2.4e-3   # feature-constraint weight
    beta: float = 0.5       # replay weight
    replay_count: int = 1   # items sampled per training step

    def __post_init__(self):
        if min(self.alpha, self.beta) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.replay_count < 1:
            raise ValueError("replay_count must be positive")


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
        """Write an uncompressed `.npz` archive at exactly `path`.

        Per-item scalars are one array each; item i's arrays are stored
        under `i/<name>`, with `i/logits` present only where `has_logits`
        says so.
        """
        items = self.items
        arrays = {
            "capacity": np.int64(self.capacity),
            "seen_count": np.int64(self.seen_count),
            "case_id": np.array([it.case.case_id for it in items], dtype=str),
            "task_id": np.array([it.task_id for it in items], dtype=np.int64),
            "time": np.array([it.case.time for it in items], dtype=np.float64),
            "censored": np.array([it.case.censored for it in items], dtype=np.int64),
            "label": np.array([it.case.label for it in items], dtype=np.int64),
            # explicit, so a member lost from a damaged archive is an error
            "has_logits": np.array([it.logits is not None for it in items]),
        }
        for i, it in enumerate(items):
            arrays[f"{i}/patches"] = it.case.patches
            arrays.update((f"{i}/group{j}", g) for j, g in enumerate(it.case.groups))
            arrays.update((f"{i}/{f}", getattr(it, f)) for f in _FEATURES)
            if it.logits is not None:
                arrays[f"{i}/logits"] = it.logits
        with open(path, "wb") as fh:  # a handle: numpy appends no suffix
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "ReplayBuffer":
        """Read a `save` archive; any damage raises `CorruptFileError`."""
        return read_npz(path, "replay buffer", cls._read)

    @classmethod
    def _read(cls, z) -> "ReplayBuffer":
        buf = cls(int(z["capacity"]))
        buf.seen_count = int(z["seen_count"])
        ids, tasks = z["case_id"].tolist(), z["task_id"].tolist()
        times, censor = z["time"].tolist(), z["censored"].tolist()
        labels, has_logits = z["label"].tolist(), z["has_logits"].tolist()
        for i, cid in enumerate(ids):
            groups = tuple(z[f"{i}/group{j}"] for j in range(N_GENOMIC_GROUPS))
            case = CaseRecord(cid, z[f"{i}/patches"], groups, times[i],
                              censor[i], label=labels[i])
            logits = z[f"{i}/logits"] if has_logits[i] else None
            buf.items.append(ReplayItem(
                case, tasks[i], *(z[f"{i}/{f}"] for f in _FEATURES), logits))
        return buf


# ---------------------------------------------------------------------------
# losses

def replay_terms(model, items: list[ReplayItem], cfg: CLLossConfig,
                 survcfg: SurvLossConfig = SurvLossConfig()
                 ) -> tuple[ad.Tensor, ad.Tensor]:
    """(feature constraint, replay NLL), each a mean over `items`, from one
    forward per item.

    The feature constraint is the summed squared drift of the three feature
    maps from their frozen values; frozen features are constants, so
    gradients flow only through the current model's recomputation of each
    stored case. The replay NLL sends each case through its own task head.
    A term whose weight in `cfg` is zero is not built and comes back as 0.
    """
    fc = rl = None
    for it in items:
        hazards, f_p, f_g, f_f = model.forward(it.case, it.task_id)
        if cfg.alpha > 0.0:
            term = ad.add(ad.add(_sq_dist(it.f_patch, f_p),
                                 _sq_dist(it.f_genomic, f_g)),
                          _sq_dist(it.f_fused, f_f))
            fc = term if fc is None else ad.add(fc, term)
        if cfg.beta > 0.0:
            term = nll_survival_loss(hazards, it.case.label, it.case.censored,
                                     survcfg)
            rl = term if rl is None else ad.add(rl, term)
    return _mean(fc, len(items)), _mean(rl, len(items))


def _sq_dist(frozen: np.ndarray, current: ad.Tensor) -> ad.Tensor:
    return ad.sum_all(ad.square(ad.sub(ad.constant(frozen), current)))


def _mean(total: ad.Tensor | None, n: int) -> ad.Tensor:
    return ad.constant(0.0) if total is None else ad.scale(total, 1.0 / n)


def feature_constraint_loss(model, items: list[ReplayItem]) -> ad.Tensor:
    """Mean squared drift of the three feature maps from their frozen values."""
    return replay_terms(model, items, CLLossConfig(alpha=1.0, beta=0.0))[0]


def replay_loss(model, items: list[ReplayItem],
                survcfg: SurvLossConfig = SurvLossConfig()) -> ad.Tensor:
    """Mean survival NLL over replayed cases, each through its own task head."""
    return replay_terms(model, items, CLLossConfig(alpha=0.0, beta=1.0),
                        survcfg)[1]


def total_loss(current: ad.Tensor, feature_term: ad.Tensor, replay_term: ad.Tensor,
               cfg: CLLossConfig) -> ad.Tensor:
    """current + alpha * feature constraint + beta * replay."""
    return ad.add(current, ad.add(ad.scale(feature_term, cfg.alpha),
                                  ad.scale(replay_term, cfg.beta)))
