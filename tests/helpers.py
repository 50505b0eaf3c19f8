"""Helpers only the tests use: gradients by name, the central-difference
gradient check, the feature-constraint term on its own, stream equality and
a non-finite feature value planted in a case."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from survstream import autodiff as ad
from survstream.bagio import case_columns
from survstream.data import CaseRecord, TaskStream
from survstream.fcr import ReplayItem, replay_terms


def gradients(loss: ad.Tensor, params: Mapping[str, ad.Tensor]
              ) -> dict[str, np.ndarray]:
    """`ad.backward(loss)`, then name -> gradient, with zeros for parameters
    the loss does not reach."""
    ad.backward(loss)
    return {name: (p.grad.copy() if p.grad is not None else np.zeros(p.shape))
            for name, p in params.items()}


def finite_diff_check(loss_fn: Callable[[], ad.Tensor],
                      params: Mapping[str, ad.Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` rebuilds the graph from the current parameter values on each
    call. Error is |analytic - fd| / max(1, |analytic|), maximised over every
    entry of every parameter. The probes run under `no_grad`.
    """
    if eps <= 0:
        raise ad.DomainError("eps must be positive")
    analytic = gradients(loss_fn(), params)
    worst = 0.0
    with ad.no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            g = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_fn().item()
                flat[i] = orig - eps
                lo = loss_fn().item()
                flat[i] = orig
                fd = (hi - lo) / (2.0 * eps)
                err = abs(g[i] - fd) / max(1.0, abs(g[i]))
                if err > worst:
                    worst = err
    return worst


def feature_constraint_loss(model, items: list[ReplayItem]) -> ad.Tensor:
    """Mean squared drift of the three feature maps from their frozen values."""
    return replay_terms(model, items, 1.0, 0.0)[0]


def streams_equal(a: TaskStream, b: TaskStream) -> bool:
    """Equal task ids, bin grids, labels and `case_columns` arrays (every
    case's id, outcome, patch bag and genomic groups, in float64)."""
    if a.n_tasks != b.n_tasks or a.d_patch != b.d_patch:
        return False
    for ta, tb in zip(a.tasks, b.tasks):
        if (ta.task_id != tb.task_id or ta.bins != tb.bins
                or [c.label for c in ta.cases] != [c.label for c in tb.cases]):
            return False
        ca, cb = case_columns(ta.cases, np.float64), case_columns(tb.cases, np.float64)
        if any(not np.array_equal(ca[k], cb[k]) for k in ca):
            return False
    return True


def spoil(case: CaseRecord, member: str, value: float) -> None:
    """Set the first patch value (`member` "patches") or the last genomic
    value ("groups") of `case`: the first and the last value it owns in its
    archive's `patches` and `groups` columns."""
    if member == "patches":
        case.patches[0, 0] = value
    else:
        case.groups[-1][-1] = value
