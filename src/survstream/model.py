"""Multimodal survival network with three mixture-of-experts sites.

Three stages mirror the multimodal pipeline: a patch encoder that pools the
slide bag with gated attention (conditioned on a genomic summary), a genomic
encoder that pools the six group embeddings with attention (conditioned on a
patch summary), and a fusion block. Residual expert mixtures sit after each
encoder output, and the fusion feed-forward layer itself is an expert mixture
in replace mode. One linear hazard head per task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import CaseRecord, N_GENOMIC_GROUPS, padded_groups
from .moe import DuplicateTaskError, MoEModule, UnknownTaskError
from .nn import Linear, MLP2


@dataclass(frozen=True)
class ModelConfig:
    d_patch: int
    genomic_width: int
    latent: int = 64
    hidden: int = 128
    attn_dim: int = 32
    n_bins: int = 4
    n_experts: int = 8
    k_top: int = 2


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

    def _inputs(self, case: CaseRecord) -> tuple[ad.Tensor, ad.Tensor]:
        p = ad.constant(case.patches)
        g = ad.constant(padded_groups(case, self.cfg.genomic_width))
        return p, g

    def _pool_patches(self, p: ad.Tensor, g: ad.Tensor) -> ad.Tensor:
        """Gated-attention pooling of the patch bag: the patch site's input."""
        n = p.shape[0]
        if n < 1:
            raise ValueError("empty patch bag")
        emb = self.patch_embed(p)                                  # (n, d)
        gsum = ad.mean_rows(ad.relu(self.patch_gsum(g)))           # (1, d)
        u = ad.concat_cols(emb, ad.tile_rows(gsum, n))             # (n, 2d)
        gate = ad.mul(ad.tanh(self.attn_v(u)), ad.sigmoid(self.attn_u(u)))
        scores = self.attn_w(gate)                                 # (n, 1)
        attn = ad.softmax(ad.transpose(scores))                    # (1, n)
        return ad.matmul(attn, emb)                                # (1, d)

    def _pool_genomics(self, g: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
        """Attention pooling of the six group embeddings: the genomic site's input."""
        rows = [net(ad.constant(g.data[i:i + 1]))
                for i, net in enumerate(self.group_nets)]
        stack = ad.concat_rows(rows)                               # (6, d)
        psum = ad.mean_rows(ad.relu(self.gen_psum(p)))             # (1, d)
        cond = ad.concat_cols(stack, ad.tile_rows(psum, N_GENOMIC_GROUPS))
        scores = self.gattn_w(ad.tanh(self.gattn_v(cond)))         # (6, 1)
        attn = ad.softmax(ad.transpose(scores))                    # (1, 6)
        return ad.matmul(attn, stack)                              # (1, d)

    def _encode_patches(self, p: ad.Tensor, g: ad.Tensor, task_id: int) -> ad.Tensor:
        return self.moe_patch.forward(self._pool_patches(p, g), task_id)

    def _encode_genomics(self, g: ad.Tensor, p: ad.Tensor, task_id: int) -> ad.Tensor:
        return self.moe_gen.forward(self._pool_genomics(g, p), task_id)

    def encode_patches(self, case: CaseRecord, task_id: int) -> ad.Tensor:
        p, g = self._inputs(case)
        return self._encode_patches(p, g, task_id)

    def encode_genomics(self, case: CaseRecord, task_id: int) -> ad.Tensor:
        p, g = self._inputs(case)
        return self._encode_genomics(g, p, task_id)

    def fuse(self, f_p: ad.Tensor, f_g: ad.Tensor, task_id: int) -> ad.Tensor:
        if f_p.shape != (1, self.cfg.latent) or f_g.shape != (1, self.cfg.latent):
            raise ad.ShapeError("fuse expects two (1, latent) vectors")
        return self.moe_fuse.forward(ad.concat_cols(f_p, f_g), task_id)

    def predict_hazards(self, f_f: ad.Tensor, task_id: int) -> ad.Tensor:
        if task_id not in self.heads:
            raise UnknownTaskError(task_id)
        return ad.sigmoid(self.heads[task_id](f_f))

    def forward(self, case: CaseRecord, task_id: int
                ) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor]:
        """Full pass: returns (hazards, f_patch, f_genomic, f_fused)."""
        p, g = self._inputs(case)
        f_p = self._encode_patches(p, g, task_id)
        f_g = self._encode_genomics(g, p, task_id)
        f_f = self.fuse(f_p, f_g, task_id)
        return self.predict_hazards(f_f, task_id), f_p, f_g, f_f

    def feature_triple(self, case: CaseRecord, task_id: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Detached (f_patch, f_genomic, f_fused) values for buffer storage."""
        _, f_p, f_g, f_f = self.forward(case, task_id)
        return f_p.data.copy(), f_g.data.copy(), f_f.data.copy()

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
            p.data = state[name].copy()
