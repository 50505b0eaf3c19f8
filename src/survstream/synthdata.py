"""Seeded generator of multimodal survival task streams.

Each task draws two per-case latent factors (one per modality). A signal
fraction of the patch bag carries the patch-modality latent along a
task-rotated direction; the genomic vector carries the genomic-modality
latent the same way. True log-risk mixes a shared term, a task-specific
term, and a cross-modal product term, so fusing both modalities genuinely
beats either alone. Survival and censoring times are exponential; the
censoring rate is calibrated by bisection to hit the configured fraction.

Feature values are quantised to float32 at generation so that the 32-bit
storage format round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .data import (CaseRecord, N_BINS, TaskData, TaskStream, build_task,
                   require_int, require_nonnegative)


class GenerationError(ValueError):
    """Degenerate configuration (e.g. no uncensored cases)."""


@dataclass(frozen=True)
class GeneratorConfig:
    n_tasks: int = 4
    cases_per_task: int = 300
    n_patches: tuple[int, int] = (8, 32)   # inclusive bag-size range
    d_patch: int = 16
    group_dims: tuple[int, ...] = (12, 10, 8, 14, 6, 9)
    signal_fraction: float = 0.5
    shared_scale: float = 1.0
    specific_scale: float = 1.0
    cross_scale: float = 1.0
    noise_scale: float = 0.5
    censor_rate: float = 0.3
    baseline_hazard: float = 0.1
    n_bins: int = N_BINS
    seed: int = 0

    def __post_init__(self):
        for name in ("n_tasks", "cases_per_task", "d_patch"):
            require_int(name, getattr(self, name), 1)
        require_int("n_bins", self.n_bins, 2)
        require_int("seed", self.seed, 0)
        try:
            low, high = self.n_patches
        except (TypeError, ValueError):
            raise ValueError("n_patches must be two integers (low, high), "
                             f"got {self.n_patches!r}") from None
        require_int("n_patches low", low, 1)
        require_int("n_patches high", high, low)
        if not 0.0 <= self.signal_fraction <= 1.0:
            raise ValueError("signal_fraction must lie in [0, 1]")
        if not 0.0 <= self.censor_rate < 1.0:
            raise ValueError("censor_rate must lie in [0, 1)")
        for name in ("shared_scale", "specific_scale", "cross_scale", "noise_scale"):
            require_nonnegative(name, getattr(self, name))
        bh = self.baseline_hazard
        if not (isinstance(bh, Real) and np.isfinite(bh) and bh > 0):
            raise ValueError(f"baseline_hazard must be a finite number > 0, got {bh!r}")
        if len(self.group_dims) != 6:
            raise ValueError("exactly six genomic groups")
        for i, dim in enumerate(self.group_dims):
            require_int(f"group_dims[{i}]", dim, 1)


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _calibrate_censor_rate(event_rates: np.ndarray, target: float) -> float:
    """Censoring-exponential rate whose mean P(censor first) hits target."""
    if target == 0.0:
        return 0.0
    lo, hi = 1e-12, float(event_rates.max()) * 1e6

    def frac(rc):
        return float(np.mean(rc / (rc + event_rates)))

    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if frac(mid) < target:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def _f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def generate_stream(cfg: GeneratorConfig) -> TaskStream:
    """Deterministic stream of n_tasks multimodal survival datasets."""
    rng = np.random.default_rng(cfg.seed)
    d_g = int(sum(cfg.group_dims))
    u_patch = _unit(rng, cfg.d_patch)       # shared directions
    u_gen = _unit(rng, d_g)
    tasks: list[TaskData] = []
    for k in range(cfg.n_tasks):
        rot_p = _rotation(rng, cfg.d_patch)  # per-task distribution shift
        rot_g = _rotation(rng, d_g)
        dir_p = rot_p @ u_patch
        dir_g = rot_g @ u_gen
        coef_p, coef_g = rng.standard_normal(2)  # task-specific risk weights
        n = cfg.cases_per_task
        z_p = rng.standard_normal(n)
        z_g = rng.standard_normal(n)
        log_risk_p = cfg.shared_scale * z_p + cfg.specific_scale * coef_p * z_p
        log_risk_g = cfg.shared_scale * z_g + cfg.specific_scale * coef_g * z_g
        log_risk = log_risk_p + log_risk_g + cfg.cross_scale * z_p * z_g
        event_rates = cfg.baseline_hazard * np.exp(log_risk)
        event_times = rng.exponential(1.0 / event_rates)
        censor_rate = _calibrate_censor_rate(event_rates, cfg.censor_rate)
        if censor_rate > 0.0:
            censor_times = rng.exponential(1.0 / censor_rate, size=n)
        else:
            censor_times = np.full(n, np.inf)
        cases: list[CaseRecord] = []
        for i in range(n):
            n_p = int(rng.integers(cfg.n_patches[0], cfg.n_patches[1] + 1))
            n_sig = max(1, round(cfg.signal_fraction * n_p))
            patches = rng.standard_normal((n_p, cfg.d_patch))
            patches[:n_sig] = (z_p[i] * dir_p
                               + cfg.noise_scale * rng.standard_normal(
                                   (n_sig, cfg.d_patch)))
            gvec = z_g[i] * dir_g + cfg.noise_scale * rng.standard_normal(d_g)
            groups = []
            off = 0
            for width in cfg.group_dims:
                groups.append(_f32(gvec[off:off + width]))
                off += width
            censored = int(censor_times[i] < event_times[i])
            cases.append(CaseRecord(
                case_id=f"t{k}c{i:04d}",
                patches=_f32(patches),
                groups=tuple(groups),
                time=float(min(event_times[i], censor_times[i])),
                censored=censored,
                oracle_risk=float(log_risk[i]),
                oracle_risk_p=float(log_risk_p[i]),
                oracle_risk_g=float(log_risk_g[i]),
            ))
        if all(c.censored for c in cases):
            raise GenerationError(f"task {k} generated no uncensored cases")
        tasks.append(build_task(k, cases, cfg.n_bins))
    return TaskStream(tasks, cfg.d_patch, max(cfg.group_dims))


def split_folds(task: TaskData, n_folds: int, seed: int
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint exhaustive folds, stratified by censoring status.

    Returns per-fold (train_indices, validation_indices) pairs.
    """
    n = len(task)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n < n_folds:
        raise ValueError(f"dataset of {n} cases cannot form {n_folds} folds")
    rng = np.random.default_rng(seed)
    censor = task.censor
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    slot = 0
    for stratum in (0, 1):
        idx = np.flatnonzero(censor == stratum)
        rng.shuffle(idx)
        for i in idx:
            folds[slot % n_folds].append(int(i))
            slot += 1
    out = []
    for f in range(n_folds):
        val = np.sort(np.array(folds[f], dtype=int))
        train = np.sort(np.array([i for g in range(n_folds) if g != f
                                  for i in folds[g]], dtype=int))
        out.append((train, val))
    return out
