"""Sparse mixture of experts with a permanently active shared expert.

A module owns a fixed pool of two-layer FFN experts plus one linear router
per task. Gating selects the shared expert (last index by convention) and the
top-k scoring remaining experts, masks the rest to -inf and softmax-normalises
over the full pool, so non-selected experts get exactly zero weight.
`topk_s_select` is the one gate: it selects for a whole stack of rows in one
array operation, as a bool mask, and `forward` returns that mask with its
output, so `routing_stats` only counts the selections a forward made. Every
row selects k_top + 1 experts, so `forward` sums a stack's mixture slot by
slot: in slot k each expert runs once, on the rows whose k-th lowest
selected expert it is, and the slot's rows are disjoint.

Integration modes: "append" adds the mixture residually (y = x + MS(x));
"replace" substitutes the mixture for an existing feed-forward layer
(y = MS(x)), in which case experts may map d_in != d_out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .nn import Linear, MLP2, init_weight


class UnknownTaskError(KeyError):
    """No router registered for the requested task."""


class DuplicateTaskError(ValueError):
    """A router for this task already exists."""


@dataclass(frozen=True)
class GatingResult:
    """Outcome of gating every row of a (..., n_experts) logits tensor."""

    selected: np.ndarray  # bool mask of the logits' shape
    weights: ad.Tensor    # the logits' shape, zero off-support, rows sum to 1


def topk_s_select(logits: ad.Tensor, k_top: int,
                  shared_idx: int) -> GatingResult:
    """Shared expert plus the k_top largest remaining logits, for every row
    of a (..., n_experts) logits tensor at once.

    A stable sort keeps equal logits in ascending index order, so ties go to
    the lowest expert index. Non-selected logits are masked to -inf before
    `ad.softmax`, so their weights are exactly zero; the weights are taped
    when the logits are.
    """
    n = logits.shape[-1]
    if k_top + 1 > n:
        raise ValueError(f"k_top={k_top} + shared needs more than {n} experts")
    rows = logits.data.reshape(-1, n)
    order = np.argsort(-rows, axis=1, kind="stable")
    top = order[order != shared_idx].reshape(len(rows), n - 1)[:, :k_top]
    chosen = np.zeros(rows.shape, dtype=bool)
    chosen[np.arange(len(rows))[:, None], top] = True
    chosen[:, shared_idx] = True
    chosen = chosen.reshape(logits.shape)
    mask = ad.constant(np.where(chosen, 0.0, -np.inf))
    return GatingResult(chosen, ad.softmax(ad.add(logits, mask)))


def _take(t: ad.Tensor, rows: list[int]) -> ad.Tensor:
    """Rows `rows` (ascending) of a stack as a constant; `t` itself when
    they are all of its rows, as for a single (1, d) row."""
    return t if len(rows) == len(t.data) else ad.constant(t.data[rows])


def _put(base: ad.Tensor | None, rows: list[int], t: ad.Tensor,
         n_rows: int) -> ad.Tensor:
    """`t` written over rows `rows` (ascending) of the `n_rows` stack `base`
    (made when None); `t` itself when they are all of its rows. Only a
    stack is written in place, and stacks exist only under `ad.no_grad`."""
    if len(rows) == n_rows:
        return t
    if base is None:
        base = ad.constant(np.empty((n_rows,) + t.shape[1:]))
    base.data[rows] = t.data
    return base


class MoEModule:
    """Fixed expert pool with per-task routers and TopK+shared gating."""

    def __init__(self, d_in: int, d_out: int, n_experts: int, k_top: int,
                 mode: str, expert_hidden: int, rng: np.random.Generator):
        if mode not in ("append", "replace"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "append" and d_in != d_out:
            raise ValueError("append mode requires d_in == d_out")
        if k_top + 1 > n_experts:
            raise ValueError("k_top + 1 must not exceed the expert count")
        self.d_in = d_in
        self.d_out = d_out
        self.n_experts = n_experts
        self.k_top = k_top
        self.mode = mode
        self.shared_idx = n_experts - 1
        # append mode: zero second layers make the module the identity map
        # at initialization, preserving the backbone's information flow
        self.experts = [MLP2(d_in, expert_hidden, d_out, rng,
                             zero_output=(mode == "append"))
                        for _ in range(n_experts)]
        self.routers: dict[int, Linear] = {}

    def add_task_router(self, task_id: int, rng: np.random.Generator) -> None:
        if task_id in self.routers:
            raise DuplicateTaskError(f"router for task {task_id} exists")
        self.routers[task_id] = Linear(self.d_in, self.n_experts, rng)

    def forward(self, x: ad.Tensor, task_id: int
                ) -> tuple[ad.Tensor, np.ndarray]:
        """Differentiable mixture output for one (1, d_in) input, or under
        `ad.no_grad` for a (B, 1, d_in) stack of them, and the bool mask of
        the experts each row selected, in the router logits' shape.

        Every row selects k_top + 1 experts, so the mixture is summed slot by
        slot: slot k holds each row's k-th lowest selected expert, each
        expert runs once per slot on the rows that put it there, and each row
        adds its terms in ascending expert order, exactly as that row alone
        would. With one row every tensor passes through untouched.
        """
        if task_id not in self.routers:
            raise UnknownTaskError(task_id)
        gate = topk_s_select(self.routers[task_id](x), self.k_top,
                             self.shared_idx)
        chosen = gate.selected.reshape(-1, self.n_experts)
        mix = None
        for slot in np.nonzero(chosen)[1].reshape(len(chosen), -1).T.tolist():
            groups: dict[int, list[int]] = {}
            for r, i in enumerate(slot):
                groups.setdefault(i, []).append(r)
            term = None
            for i, rows in groups.items():
                term = _put(term, rows, ad.mul(
                    ad.col(_take(gate.weights, rows), i),
                    self.experts[i](_take(x, rows))), len(slot))
            mix = term if mix is None else ad.add(mix, term)
        out = ad.add(x, mix) if self.mode == "append" else mix
        return out, gate.selected

    def routing_stats(self, selected: np.ndarray) -> np.ndarray:
        """Per-expert selection fraction over the rows of a (..., n_experts)
        bool mask, as `forward` returns it."""
        rows = selected.reshape(-1, self.n_experts)
        if not len(rows):
            raise ValueError("routing_stats needs at least one selection")
        return rows.sum(axis=0) / len(rows)

    def parameters(self, prefix: str) -> dict[str, ad.Tensor]:
        out: dict[str, ad.Tensor] = {}
        for i, e in enumerate(self.experts):
            out.update(e.parameters(f"{prefix}.expert{i}"))
        for t, r in self.routers.items():
            out.update(r.parameters(f"{prefix}.router{t}"))
        return out

    def router_parameters(self, prefix: str, task_id: int) -> dict[str, ad.Tensor]:
        return self.routers[task_id].parameters(f"{prefix}.router{task_id}")
