"""Task-incremental training and evaluation engine.

Runs a method (finetune, joint, er, derpp, fcr) over a task stream with one
deterministic RNG stream per concern (init / shuffling / buffer), fills the
(K+1) x K performance matrix, and derives the continual-learning summary
metrics. Row 0 of the matrix is the untrained model evaluated on every task;
row l is the model after training task l.

Reduction chain honoured by construction: fcr with alpha = beta = 0 takes
bit-identical steps to finetune, and er equals fcr with alpha = 0 minus the
frozen-feature storage, because buffer randomness lives on its own stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import TaskData, TaskStream
from .fcr import (CLLossConfig, ReplayBuffer, ReplayItem, replay_loss,
                  replay_terms, total_loss)
from .model import ModelConfig, SurvivalModel
from .survival import (SurvLossConfig, UndefinedMetricError, c_index,
                       c_index_ipcw, nll_survival_loss, risk_score)
from .synthdata import split_folds

METHODS = ("finetune", "joint", "er", "derpp", "fcr")


@dataclass(frozen=True)
class MethodConfig:
    method: str = "finetune"
    epochs: int = 20
    learning_rate: float = 2e-4
    weight_decay: float = 1e-5
    loss: CLLossConfig = field(default_factory=CLLossConfig)
    surv: SurvLossConfig = field(default_factory=SurvLossConfig)
    buffer_capacity: int = 32
    latent: int = 64
    hidden: int = 128
    attn_dim: int = 32
    n_experts: int = 8
    k_top: int = 2
    n_folds: int = 5
    fold: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.epochs < 0 or self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("rates and epochs must be nonnegative")


class AdamW:
    """Adam with decoupled weight decay; lazily updates touched parameters.

    Only parameters that received a gradient this step move (sparse expert
    selection leaves most of the pool untouched); moment estimates and bias
    correction are tracked per parameter.
    """

    def __init__(self, params: dict[str, ad.Tensor], lr: float,
                 weight_decay: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            p = self.params.get(name)
            if p is None:
                continue  # frozen parameter
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * (g * g)
            # in-place m_hat / (sqrt(v_hat) + eps): denom absorbs the bias
            # corrections so only one temporary is allocated
            c1 = 1 - self.b1 ** t
            c2 = 1 - self.b2 ** t
            denom = np.sqrt(v)
            denom /= np.sqrt(c2)
            denom += self.eps
            denom *= c1 / self.lr
            if self.weight_decay:
                p.data *= 1 - self.lr * self.weight_decay
            p.data -= m / denom


# ---------------------------------------------------------------------------
# performance matrix and summary metrics


@dataclass
class PerformanceMatrix:
    """(K+1) x K grid; row 0 = untrained baseline, row l = after task l."""

    values: np.ndarray
    metric: str

    @classmethod
    def empty(cls, n_tasks: int, metric: str) -> "PerformanceMatrix":
        return cls(np.full((n_tasks + 1, n_tasks), np.nan), metric)


def _require(matrix: np.ndarray, rows, cols) -> None:
    if np.isnan(matrix[np.ix_(rows, cols)]).any():
        raise UndefinedMetricError("performance matrix entries missing")


def average_performance(matrix: np.ndarray) -> float:
    k = matrix.shape[1]
    _require(matrix, [k], range(k))
    return float(matrix[k].mean())


def forgetting(matrix: np.ndarray) -> float:
    k = matrix.shape[1]
    if k < 2:
        raise UndefinedMetricError("forgetting needs at least 2 tasks")
    _require(matrix, range(1, k + 1), range(k))
    terms = [matrix[j + 1:k, j].max() - matrix[k, j] for j in range(k - 1)]
    return float(np.mean(terms))


def bwt(matrix: np.ndarray) -> float:
    k = matrix.shape[1]
    if k < 2:
        raise UndefinedMetricError("BWT needs at least 2 tasks")
    _require(matrix, range(1, k + 1), range(k))
    return float(np.mean([matrix[k, j] - matrix[j + 1, j] for j in range(k - 1)]))


def fwt(matrix: np.ndarray) -> float:
    k = matrix.shape[1]
    if k < 2:
        raise UndefinedMetricError("FWT needs at least 2 tasks")
    _require(matrix, range(0, k), range(k))
    return float(np.mean([matrix[j, j] - matrix[0, j] for j in range(1, k)]))


def average_on_trained(matrix: np.ndarray, row: int) -> float:
    """Mean over only the tasks seen by the model in this row."""
    if row < 1:
        raise UndefinedMetricError("row 0 has trained on nothing")
    _require(matrix, [row], range(row))
    return float(matrix[row, :row].mean())


# ---------------------------------------------------------------------------
# training


def _shuffle_rng(seed: int, task_id: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, task_id, epoch])


def _evaluate_risks(model: SurvivalModel, task: TaskData,
                    indices: np.ndarray) -> np.ndarray:
    risks = np.empty(indices.size)
    for j, i in enumerate(indices):
        hazards, _, _, _ = model.forward(task.cases[i], task.task_id)
        risks[j] = risk_score(hazards.data.reshape(-1))
    return risks


def _store_case(method: str, model: SurvivalModel, buffer: ReplayBuffer,
                case, task_id: int, rng: np.random.Generator) -> None:
    zeros = np.zeros((1, 1))
    slot = buffer.reservoir_update(ReplayItem(case, task_id, zeros, zeros, zeros), rng)
    # fcr's features and derpp's logits are computed only for a kept case
    if slot is None or method == "er":
        return
    if method == "fcr":
        item = ReplayItem(case, task_id, *model.feature_triple(case, task_id))
    else:  # derpp
        _, _, _, f_f = model.forward(case, task_id)
        logits = model.heads[task_id](f_f).data.copy()
        item = ReplayItem(case, task_id, zeros, zeros, zeros, logits=logits)
    buffer.items[slot] = item


def _step_loss(cfg: MethodConfig, model: SurvivalModel, case, task_id: int,
               buffer: ReplayBuffer | None,
               rng_buffer: np.random.Generator) -> ad.Tensor:
    hazards, _, _, _ = model.forward(case, task_id)
    current = nll_survival_loss(hazards, case.label, case.censored, cfg.surv)
    method, loss_cfg = cfg.method, cfg.loss
    if method in ("finetune", "joint") or buffer is None or len(buffer) == 0:
        return current
    if loss_cfg.alpha == 0.0 and loss_cfg.beta == 0.0:
        return current
    items = buffer.sample_replay(loss_cfg.replay_count, rng_buffer)
    if method == "er":
        return total_loss(current, ad.constant(0.0),
                          replay_loss(model, items, cfg.surv), loss_cfg)
    if method == "derpp":
        distill = None
        for it in items:
            _, _, _, f_f = model.forward(it.case, it.task_id)
            logits = model.heads[it.task_id](f_f)
            term = ad.mean_all(ad.square(ad.sub(logits, ad.constant(it.logits))))
            distill = term if distill is None else ad.add(distill, term)
        distill = ad.scale(distill, 1.0 / len(items))
        return total_loss(current, distill,
                          replay_loss(model, items, cfg.surv), loss_cfg)
    return total_loss(current, *replay_terms(model, items, loss_cfg, cfg.surv),
                      loss_cfg)


def _run_epochs(model: SurvivalModel, cfg: MethodConfig,
                trainable: dict[str, ad.Tensor], epoch_order, validate,
                curve_task: int, curves: list | None,
                buffer: ReplayBuffer | None = None,
                rng_buffer: np.random.Generator | None = None,
                step_hook=None) -> dict[str, np.ndarray]:
    """AdamW over `trainable` for `cfg.epochs` epochs; returns the state with
    the best validation score.

    `epoch_order(epoch)` lists the epoch's (task_id, case) steps and
    `validate()` scores the model after each epoch. Each step stores its
    case in `buffer` when one is given. Ties in validation go to the
    earliest epoch; zero epochs returns the initial parameters.
    """
    opt = AdamW(trainable, cfg.learning_rate, cfg.weight_decay)
    best_state = model.get_state()
    best_val = -np.inf
    for epoch in range(cfg.epochs):
        losses = []
        for task_id, case in epoch_order(epoch):
            loss = _step_loss(cfg, model, case, task_id, buffer, rng_buffer)
            losses.append(loss.item())
            ad.backward(loss)
            grads = {}
            for name, p in trainable.items():
                if p.grad is not None:
                    grads[name] = p.grad
                    p.grad = None
            opt.step(grads)
            if buffer is not None:
                _store_case(cfg.method, model, buffer, case, task_id,
                            rng_buffer)
            if step_hook is not None:
                step_hook(model)
        val_c = validate()
        if curves is not None:
            curves.append((curve_task, epoch, float(np.mean(losses)), val_c))
        if val_c > best_val:
            best_val = val_c
            best_state = model.get_state()
    return best_state


def train_task(model: SurvivalModel, task: TaskData, cfg: MethodConfig,
               train_idx: np.ndarray, val_idx: np.ndarray,
               buffer: ReplayBuffer | None,
               rng_buffer: np.random.Generator,
               curves: list | None = None,
               step_hook=None) -> dict[str, np.ndarray]:
    """Train one task; returns the best-validation-C-index parameter state."""
    if train_idx.size == 0:
        raise ValueError(f"task {task.task_id}: empty training split")

    def epoch_order(epoch):
        order = train_idx.copy()
        _shuffle_rng(cfg.seed, task.task_id, epoch).shuffle(order)
        return [(task.task_id, task.cases[i]) for i in order]

    def validate():
        risks = _evaluate_risks(model, task, val_idx)
        return c_index(risks, task.times[val_idx], task.censor[val_idx])

    uses_buffer = cfg.method in ("er", "derpp", "fcr")
    return _run_epochs(model, cfg, model.trainable_parameters(task.task_id),
                       epoch_order, validate, task.task_id, curves,
                       buffer if uses_buffer else None, rng_buffer, step_hook)


def _train_joint(model: SurvivalModel, stream: TaskStream, cfg: MethodConfig,
                 splits, curves: list | None) -> dict[str, np.ndarray]:
    """One pass over the shuffled union of all tasks, per-task heads/routers."""
    pool = [(t.task_id, t.cases[i]) for t, (tr, _) in zip(stream.tasks, splits)
            for i in tr]
    if not pool:
        raise ValueError("joint training has no cases")
    merged: dict[str, ad.Tensor] = {}
    for t in stream.tasks:
        merged.update(model.trainable_parameters(t.task_id))

    def epoch_order(epoch):
        perm = _shuffle_rng(cfg.seed, len(stream.tasks), epoch).permutation(len(pool))
        return [pool[i] for i in perm]

    def validate():
        vals = []
        for task, (_, va) in zip(stream.tasks, splits):
            risks = _evaluate_risks(model, task, va)
            vals.append(c_index(risks, task.times[va], task.censor[va]))
        return float(np.mean(vals))

    return _run_epochs(model, cfg, merged, epoch_order, validate, -1, curves)


# ---------------------------------------------------------------------------
# sequence runner


@dataclass
class SequenceResult:
    matrices: dict[str, PerformanceMatrix]   # keyed by metric name
    model: SurvivalModel
    stream: TaskStream
    splits: list[tuple[np.ndarray, np.ndarray]]
    buffer: ReplayBuffer | None
    curves: list[tuple[int, int, float, float]]
    routing: list[tuple[int, str, int, float]]  # task, site, expert, proportion

    def summary(self) -> dict[str, dict[str, float]]:
        """Average / Forget / BWT / FWT per metric; partial for joint runs."""
        out: dict[str, dict[str, float]] = {}
        for name, pm in self.matrices.items():
            entry = {"average": average_performance(pm.values)}
            try:
                entry["forgetting"] = forgetting(pm.values)
                entry["bwt"] = bwt(pm.values)
                entry["fwt"] = fwt(pm.values)
            except UndefinedMetricError:
                pass
            out[name] = entry
        return out


def _fill_row(model, stream, splits, matrices, row: int) -> None:
    for j, (task, (_, va)) in enumerate(zip(stream.tasks, splits)):
        risks = _evaluate_risks(model, task, va)
        times, censor = task.times[va], task.censor[va]
        matrices["c_index"].values[row, j] = c_index(risks, times, censor)
        matrices["c_index_ipcw"].values[row, j] = c_index_ipcw(
            risks, times, censor)


def collect_routing(model: SurvivalModel, stream: TaskStream, splits
                    ) -> list[tuple[int, str, int, float]]:
    rows: list[tuple[int, str, int, float]] = []
    for task, (_, va) in zip(stream.tasks, splits):
        site_inputs = {"patch": [], "genomic": [], "fusion": []}
        for i in va:
            p, g = model._inputs(task.cases[i])
            # pooled vectors before each mixture site
            pooled_p = model._pool_patches(p, g).data
            pooled_g = model._pool_genomics(g, p).data
            f_p = model.moe_patch.forward(ad.constant(pooled_p), task.task_id)
            f_g = model.moe_gen.forward(ad.constant(pooled_g), task.task_id)
            site_inputs["patch"].append(pooled_p.reshape(-1))
            site_inputs["genomic"].append(pooled_g.reshape(-1))
            site_inputs["fusion"].append(
                np.concatenate([f_p.data, f_g.data], axis=1).reshape(-1))
        for site_name, site in (("patch", model.moe_patch),
                                ("genomic", model.moe_gen),
                                ("fusion", model.moe_fuse)):
            props = site.routing_stats(site_inputs[site_name], task.task_id)
            for e, prop in enumerate(props):
                rows.append((task.task_id, site_name, e, float(prop)))
    return rows


def build_model(stream: TaskStream, cfg: MethodConfig) -> SurvivalModel:
    """Seeded model with routers and heads for every task in the stream."""
    rng_init = np.random.default_rng([cfg.seed, 0])
    n_bins = stream.tasks[0].bins.n_bins
    model = SurvivalModel(ModelConfig(
        d_patch=stream.d_patch, genomic_width=stream.genomic_width,
        latent=cfg.latent, hidden=cfg.hidden, attn_dim=cfg.attn_dim,
        n_bins=n_bins, n_experts=cfg.n_experts, k_top=cfg.k_top), rng_init)
    for task in stream.tasks:
        model.add_task(task.task_id, rng_init)
    return model


def run_sequence(cfg: MethodConfig, stream: TaskStream,
                 step_hook=None) -> SequenceResult:
    """Train the configured method over the stream and fill the matrices."""
    model = build_model(stream, cfg)
    splits = [split_folds(t, cfg.n_folds, cfg.seed + 7919 * t.task_id)[cfg.fold]
              for t in stream.tasks]
    k = stream.n_tasks
    matrices = {m: PerformanceMatrix.empty(k, m)
                for m in ("c_index", "c_index_ipcw")}
    _fill_row(model, stream, splits, matrices, 0)
    curves: list[tuple[int, int, float, float]] = []
    buffer = None
    rng_buffer = np.random.default_rng([cfg.seed, 2])
    if cfg.method in ("er", "derpp", "fcr"):
        buffer = ReplayBuffer(cfg.buffer_capacity)
    if cfg.method == "joint":
        best = _train_joint(model, stream, cfg, splits, curves)
        model.set_state(best)
        _fill_row(model, stream, splits, matrices, k)
    else:
        for l, task in enumerate(stream.tasks, start=1):
            tr, va = splits[l - 1]
            best = train_task(model, task, cfg, tr, va, buffer, rng_buffer,
                              curves, step_hook)
            model.set_state(best)
            _fill_row(model, stream, splits, matrices, l)
    routing = collect_routing(model, stream, splits)
    return SequenceResult(matrices, model, stream, splits, buffer,
                          curves, routing)
