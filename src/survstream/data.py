"""Case records and task streams.

A case is one patient: a bag of patch feature vectors (the slide), six
grouped genomic vectors, and the censored survival outcome. A stream is an
ordered sequence of task datasets, each carrying its own time-bin grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .survival import BinSpec, compute_bins

N_GENOMIC_GROUPS = 6
N_BINS = 4  # time bins per task where a caller does not choose


def require_int(name: str, value, low: int) -> None:
    """Refuse a bool, a non-integer or an integer below `low`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_nonnegative(name: str, value) -> None:
    """Refuse a value that is not a finite real number >= 0."""
    if not (isinstance(value, Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass
class CaseRecord:
    case_id: str
    patches: np.ndarray            # (n_patches, d_patch) float64
    groups: tuple[np.ndarray, ...]  # 6 unpadded float64 vectors
    time: float
    censored: int                  # 1 = censored
    label: int = -1                # discrete time bin, set at stream build
    oracle_risk: float | None = None       # generator's true log-risk
    oracle_risk_p: float | None = None     # patch-modality-only component
    oracle_risk_g: float | None = None     # genomic-modality-only component

    def __post_init__(self):
        if self.patches.ndim != 2 or self.patches.shape[0] < 1:
            raise ValueError("patch bag must be a nonempty matrix")
        if len(self.groups) != N_GENOMIC_GROUPS:
            raise ValueError(f"expected {N_GENOMIC_GROUPS} genomic groups")


@dataclass
class TaskData:
    task_id: int
    cases: list[CaseRecord]
    bins: BinSpec

    @property
    def times(self) -> np.ndarray:
        return np.array([c.time for c in self.cases])

    @property
    def censor(self) -> np.ndarray:
        return np.array([c.censored for c in self.cases])

    def __len__(self) -> int:
        return len(self.cases)


@dataclass
class TaskStream:
    tasks: list[TaskData]
    d_patch: int
    genomic_width: int  # common zero-padded group width

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


def build_task(task_id: int, cases: list[CaseRecord], n_bins: int) -> TaskData:
    """Attach a bin grid from the task's own uncensored times and label every
    case with one `searchsorted`, giving each the label `assign_bin` gives."""
    times = np.array([c.time for c in cases])
    censor = np.array([c.censored for c in cases])
    bins = compute_bins(times, censor, n_bins)
    labels = np.searchsorted(bins.boundaries, times, side="right")
    for c, label in zip(cases, labels.tolist()):
        c.label = label
    return TaskData(task_id, cases, bins)


def padded_groups(case: CaseRecord, width: int) -> np.ndarray:
    """Stack the six group vectors into a zero-padded (6, width) matrix."""
    out = np.zeros((N_GENOMIC_GROUPS, width))
    for i, g in enumerate(case.groups):
        if g.size > width:
            raise ValueError(f"group {i} wider ({g.size}) than pad width {width}")
        out[i, :g.size] = g
    return out
