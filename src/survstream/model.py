"""Multimodal survival network with three mixture-of-experts sites.

Three stages mirror the multimodal pipeline: a patch encoder that pools the
slide bag with gated attention (conditioned on a genomic summary), a genomic
encoder that pools the six group embeddings with attention (conditioned on a
patch summary), and a fusion block. Residual expert mixtures sit after each
encoder output, and the fusion feed-forward layer itself is an expert mixture
in replace mode. One linear hazard head per task.

Training runs one case at a time. Inference (`predict`, `routing`) sends a
list of cases through stacks of at most `INFER_CHUNK` cases under
`autodiff.no_grad`: in each, the patch pooling, the only stage whose shapes
depend on bag size, runs once per bag size, and everything after it runs
once over the stack. Each row equals that case's own forward bit for bit.
`forward` also returns the experts each site's gate selected, and `routing`
counts those selections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import CaseRecord, N_BINS, N_GENOMIC_GROUPS, padded_groups
from .moe import DuplicateTaskError, MoEModule, UnknownTaskError, _put
from .nn import Linear, MLP2

# cases per stacked inference forward: bounds what one `predict` or
# `routing` call holds, and still fills each stack's bag-size groups
INFER_CHUNK = 512


def _chunks(cases: list) -> list:
    """`cases` in consecutive slices of at most `INFER_CHUNK` cases."""
    return [cases[a:a + INFER_CHUNK] for a in range(0, len(cases), INFER_CHUNK)]


@dataclass(frozen=True)
class ModelConfig:
    d_patch: int
    genomic_width: int
    latent: int = 64
    hidden: int = 128
    attn_dim: int = 32
    n_bins: int = N_BINS
    n_experts: int = 8
    k_top: int = 2


class NonFiniteHazardError(ValueError):
    """A case's predicted hazards hold NaN or inf."""


class SurvivalModel:
    """Backbone + expert mixtures + per-task hazard heads."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        d, h, a = cfg.latent, cfg.hidden, cfg.attn_dim
        self.patch_embed = MLP2(cfg.d_patch, h, d, rng)
        self.patch_gsum = Linear(cfg.genomic_width, d, rng)
        self.attn_v = Linear(2 * d, a, rng)
        self.attn_u = Linear(2 * d, a, rng)
        self.attn_w = Linear(a, 1, rng)
        self.group_nets = [MLP2(cfg.genomic_width, h, d, rng)
                           for _ in range(N_GENOMIC_GROUPS)]
        self.gen_psum = Linear(cfg.d_patch, d, rng)
        self.gattn_v = Linear(2 * d, a, rng)
        self.gattn_w = Linear(a, 1, rng)
        self.moe_patch = MoEModule(d, d, cfg.n_experts, cfg.k_top,
                                   "append", d, rng)
        self.moe_gen = MoEModule(d, d, cfg.n_experts, cfg.k_top,
                                 "append", d, rng)
        self.moe_fuse = MoEModule(2 * d, d, cfg.n_experts, cfg.k_top,
                                  "replace", h, rng)
        self.heads: dict[int, Linear] = {}

    # ---------------------------------------------------------------- tasks

    @property
    def task_ids(self) -> list[int]:
        return sorted(self.heads)

    def add_task(self, task_id: int, rng: np.random.Generator) -> None:
        """Register routers at all three sites plus a hazard head."""
        if task_id in self.heads:
            raise DuplicateTaskError(f"task {task_id} already registered")
        self.moe_patch.add_task_router(task_id, rng)
        self.moe_gen.add_task_router(task_id, rng)
        self.moe_fuse.add_task_router(task_id, rng)
        self.heads[task_id] = Linear(self.cfg.latent, self.cfg.n_bins, rng)

    # -------------------------------------------------------------- forward

    def _inputs(self, cases) -> tuple[list[tuple[np.ndarray, ad.Tensor]], ad.Tensor]:
        """The patch bags, as (case positions, bags) per bag size, and the
        genomic groups. One case gives its (n, d_patch) bag at position 0
        and its (6, width) groups; a list of cases, only under `ad.no_grad`,
        gives each bag size's (B_n, n, d_patch) stack, in first-seen order,
        and the (B, 6, width) stack of every case's groups."""
        width = self.cfg.genomic_width
        if isinstance(cases, CaseRecord):
            return ([(np.zeros(1, dtype=np.int64), ad.constant(cases.patches))],
                    ad.constant(padded_groups(cases, width)))
        groups: dict[int, list[int]] = {}
        for j, c in enumerate(cases):
            groups.setdefault(c.patches.shape[0], []).append(j)
        bags = [(np.array(idx), ad.constant(np.stack([cases[j].patches
                                                       for j in idx])))
                for idx in groups.values()]
        return bags, ad.constant(np.stack([padded_groups(c, width)
                                           for c in cases]))

    def _pool_patches(self, p: ad.Tensor, g: ad.Tensor) -> ad.Tensor:
        """Gated-attention pooling of the patch bag: the patch site's input."""
        n = p.shape[-2]
        if n < 1:
            raise ValueError("empty patch bag")
        emb = self.patch_embed(p)                                  # (n, d)
        gsum = ad.mean_rows(ad.relu(self.patch_gsum(g)))           # (1, d)
        u = ad.concat_cols(emb, ad.tile_rows(gsum, n))             # (n, 2d)
        gate = ad.mul(ad.tanh(self.attn_v(u)), ad.sigmoid(self.attn_u(u)))
        scores = self.attn_w(gate)                                 # (n, 1)
        attn = ad.softmax(ad.transpose(scores))                    # (1, n)
        return ad.matmul(attn, emb)                                # (1, d)

    def _pool_bags(self, bags, g: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        """The patch site's input and the patch summary that conditions the
        genomic pooling, the only stage that runs once per bag size; each
        bag size's rows are put back in case order with the mixture's
        `_put`, so with one bag size the tensors pass through untouched."""
        n_rows = sum(len(rows) for rows, _ in bags)
        x_p = summary = None
        for rows, p in bags:
            x_p = _put(x_p, rows, self._pool_patches(
                p, g if len(bags) == 1 else ad.constant(g.data[rows])), n_rows)
            summary = _put(summary, rows, ad.mean_rows(
                ad.relu(self.gen_psum(p))), n_rows)                # (1, d)
        return x_p, summary

    def _pool_genomics(self, g: ad.Tensor, summary: ad.Tensor) -> ad.Tensor:
        """Attention pooling of the six group embeddings, conditioned on the
        patch summary: the genomic site's input."""
        stack = ad.concat_rows([net(ad.constant(g.data[..., i:i + 1, :]))
                                for i, net in enumerate(self.group_nets)])
        scores = self.gattn_w(ad.tanh(self.gattn_v(ad.concat_cols(
            stack, ad.tile_rows(summary, N_GENOMIC_GROUPS)))))     # (6, 1)
        attn = ad.softmax(ad.transpose(scores))                    # (1, 6)
        return ad.matmul(attn, stack)                              # (1, d)

    def _encode_patches(self, bags, g: ad.Tensor, task_id: int
                        ) -> tuple[ad.Tensor, np.ndarray, ad.Tensor]:
        """The patch stage: (f_patch, its selection, the patch summary)."""
        x_p, summary = self._pool_bags(bags, g)
        return *self.moe_patch.forward(x_p, task_id), summary

    def _encode_genomics(self, g: ad.Tensor, summary: ad.Tensor,
                         task_id: int) -> tuple[ad.Tensor, np.ndarray]:
        return self.moe_gen.forward(self._pool_genomics(g, summary), task_id)

    def fuse(self, f_p: ad.Tensor, f_g: ad.Tensor, task_id: int
             ) -> tuple[ad.Tensor, np.ndarray]:
        if f_p.shape[-2:] != (1, self.cfg.latent) or f_g.shape != f_p.shape:
            raise ad.ShapeError("fuse expects two (1, latent) vectors")
        return self.moe_fuse.forward(ad.concat_cols(f_p, f_g), task_id)

    def predict_hazards(self, f_f: ad.Tensor, task_id: int) -> ad.Tensor:
        if task_id not in self.heads:
            raise UnknownTaskError(task_id)
        return ad.sigmoid(self.heads[task_id](f_f))

    def forward(self, case, task_id: int
                ) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor,
                           tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Full pass: returns (hazards, f_patch, f_genomic, f_fused,
        (patch, genomic, fusion selection)), each selection the bool mask of
        the experts that site's gate chose.

        `case` is one case, or under `ad.no_grad` a list of cases of any bag
        sizes, whose outputs are stacked on a leading axis in list order.
        Only the patch pooling runs once per bag size; everything after it
        runs once over the whole stack, so each row equals that case's own
        forward bit for bit.
        """
        bags, g = self._inputs(case)
        f_p, sel_p, summary = self._encode_patches(bags, g, task_id)
        f_g, sel_g = self._encode_genomics(g, summary, task_id)
        f_f, sel_f = self.fuse(f_p, f_g, task_id)
        return (self.predict_hazards(f_f, task_id), f_p, f_g, f_f,
                (sel_p, sel_g, sel_f))

    def predict(self, cases: list[CaseRecord], task_id: int) -> np.ndarray:
        """Hazards of every case, (len(cases), n_bins), from one stacked
        `forward` with no tape per `INFER_CHUNK` cases; each row equals that
        case's own forward bit for bit. A row holding NaN or inf raises
        `NonFiniteHazardError` naming the first such case.
        """
        if not cases:
            return np.empty((0, self.cfg.n_bins))
        with ad.no_grad():
            out = np.concatenate([
                self.forward(chunk, task_id)[0].data.reshape(len(chunk), -1)
                for chunk in _chunks(cases)])
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        if bad.size:
            raise NonFiniteHazardError(
                f"task {task_id}, case {cases[bad[0]].case_id!r}: "
                f"hazards hold NaN or inf")
        return out

    def feature_triple(self, case: CaseRecord, task_id: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Detached (f_patch, f_genomic, f_fused) values for buffer storage."""
        with ad.no_grad():
            _, f_p, f_g, f_f, _ = self.forward(case, task_id)
        return f_p.data.copy(), f_g.data.copy(), f_f.data.copy()

    def routing(self, cases: list[CaseRecord], task_id: int
                ) -> dict[str, np.ndarray]:
        """Per-expert selection fraction over `cases` at each mixture site:
        the selections of one stacked `forward` with no tape per
        `INFER_CHUNK` cases, counted by one `routing_stats` call per site
        over every chunk."""
        with ad.no_grad():
            chunks = [self.forward(chunk, task_id)[4]  # (B, 1, n) masks
                      for chunk in _chunks(cases)]
        sites = {"patch": self.moe_patch, "genomic": self.moe_gen,
                 "fusion": self.moe_fuse}
        return {name: site.routing_stats(np.concatenate([c[i] for c in chunks]))
                for i, (name, site) in enumerate(sites.items())}

    # ----------------------------------------------------------- parameters

    def parameters(self) -> dict[str, ad.Tensor]:
        out: dict[str, ad.Tensor] = {}
        out.update(self.patch_embed.parameters("patch_embed"))
        out.update(self.patch_gsum.parameters("patch_gsum"))
        out.update(self.attn_v.parameters("attn_v"))
        out.update(self.attn_u.parameters("attn_u"))
        out.update(self.attn_w.parameters("attn_w"))
        for i, net in enumerate(self.group_nets):
            out.update(net.parameters(f"group{i}"))
        out.update(self.gen_psum.parameters("gen_psum"))
        out.update(self.gattn_v.parameters("gattn_v"))
        out.update(self.gattn_w.parameters("gattn_w"))
        out.update(self.moe_patch.parameters("moe_patch"))
        out.update(self.moe_gen.parameters("moe_gen"))
        out.update(self.moe_fuse.parameters("moe_fuse"))
        for t, head in self.heads.items():
            out.update(head.parameters(f"head{t}"))
        return out

    def trainable_parameters(self, task_id: int) -> dict[str, ad.Tensor]:
        """Shared trunk and experts plus only this task's routers and head.

        Routers and heads of other tasks stay frozen, so adding or training a
        task never perturbs another task's routing.
        """
        out = {name: p for name, p in self.parameters().items()
               if ".router" not in name and not name.startswith("head")}
        for site, name in ((self.moe_patch, "moe_patch"),
                           (self.moe_gen, "moe_gen"),
                           (self.moe_fuse, "moe_fuse")):
            out.update(site.router_parameters(name, task_id))
        out.update(self.heads[task_id].parameters(f"head{task_id}"))
        return out

    # ---------------------------------------------------------------- state

    def get_state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(params) != set(state):
            raise ValueError("state does not match model parameters")
        for name, p in params.items():
            if state[name].shape != p.data.shape:
                raise ValueError(f"parameter {name}: shape {state[name].shape} "
                                 f"does not match the model's {p.data.shape}")
        for name, p in params.items():
            p.data = state[name].copy()
