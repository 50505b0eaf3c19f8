"""Sparse mixture of experts with a permanently active shared expert.

A module owns a fixed pool of two-layer FFN experts plus one linear router
per task. Gating selects the shared expert (last index by convention) and the
top-k scoring remaining experts, masks the rest to -inf and softmax-normalises
over the full pool, so non-selected experts get exactly zero weight.

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
    """Outcome of one gating decision over the expert pool."""

    selected: frozenset[int]
    weights: np.ndarray  # (n_experts,), zero off-support, sums to 1


def topk_s_select(logits, k_top: int, shared_idx: int) -> GatingResult:
    """Shared expert plus the k_top largest remaining logits.

    Ties are broken toward the lowest expert index. Non-selected logits are
    masked to -inf before the softmax, so their weights are exactly zero.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    n = logits.size
    if k_top + 1 > n:
        raise ValueError(f"k_top={k_top} + shared needs more than {n} experts")
    vals = logits.tolist()  # Python floats sort much faster than numpy scalars
    rest = [i for i in range(n) if i != shared_idx]
    # stable sort on negated logits: equal logits keep ascending index order
    order = sorted(rest, key=lambda i: (-vals[i], i))
    selected = frozenset(order[:k_top]) | {shared_idx}
    masked = np.where([i in selected for i in range(n)], logits, -np.inf)
    m = masked[np.isfinite(masked)].max()
    e = np.where(np.isfinite(masked), np.exp(np.where(np.isfinite(masked), masked - m, 0.0)), 0.0)
    return GatingResult(selected, e / e.sum())


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

    def router_logits(self, x: np.ndarray, task_id: int) -> np.ndarray:
        if task_id not in self.routers:
            raise UnknownTaskError(task_id)
        r = self.routers[task_id]
        return (x.reshape(1, -1) @ r.w.data + r.b.data).reshape(-1)

    def gate(self, x: np.ndarray, task_id: int) -> GatingResult:
        return topk_s_select(self.router_logits(x, task_id),
                             self.k_top, self.shared_idx)

    def forward(self, x: ad.Tensor, task_id: int) -> ad.Tensor:
        """Differentiable mixture output for one (1, d_in) input."""
        if task_id not in self.routers:
            raise UnknownTaskError(task_id)
        logits = self.routers[task_id](x)
        gating = topk_s_select(logits.data, self.k_top, self.shared_idx)
        mask = np.where([i in gating.selected for i in range(self.n_experts)],
                        0.0, -np.inf).reshape(1, -1)
        weights = ad.softmax(ad.add(logits, ad.constant(mask)))
        mix = None
        for i in sorted(gating.selected):
            term = ad.mul(ad.col(weights, i), self.experts[i](x))
            mix = term if mix is None else ad.add(mix, term)
        if self.mode == "append":
            return ad.add(x, mix)
        return mix

    def routing_stats(self, inputs, task_id: int) -> np.ndarray:
        """Per-expert selection fraction over a batch of inputs."""
        inputs = list(inputs)
        if not inputs:
            raise ValueError("routing_stats needs at least one input")
        counts = np.zeros(self.n_experts)
        for x in inputs:
            for i in self.gate(np.asarray(x, dtype=np.float64), task_id).selected:
                counts[i] += 1
        return counts / len(inputs)

    def parameters(self, prefix: str) -> dict[str, ad.Tensor]:
        out: dict[str, ad.Tensor] = {}
        for i, e in enumerate(self.experts):
            out.update(e.parameters(f"{prefix}.expert{i}"))
        for t, r in self.routers.items():
            out.update(r.parameters(f"{prefix}.router{t}"))
        return out

    def router_parameters(self, prefix: str, task_id: int) -> dict[str, ad.Tensor]:
        return self.routers[task_id].parameters(f"{prefix}.router{task_id}")
