"""Task-incremental training and evaluation engine.

Runs a method (finetune, joint, er, derpp, fcr) over a task stream with one
deterministic RNG stream per concern (init / shuffling / buffer), fills the
(K+1) x K performance matrix, and derives the continual-learning summary
metrics. Row 0 of the matrix is the untrained model evaluated on every task;
row l is the model after training task l.

`MethodConfig` is the one definition of every run setting, the loss weights
among them: the estimator's keyword parameters and the keys a run config may
set are its fields. One epoch loop, `_run_epochs`, trains every method: on one
task's splits at a time, or for joint on every task's at once.

Reduction chain honoured by construction: fcr with alpha = beta = 0 takes
bit-identical steps to finetune, and er equals fcr with alpha = 0 minus the
frozen-feature storage, because buffer randomness lives on its own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import TaskData, TaskStream, require_int, require_nonnegative
from .fcr import ReplayBuffer, ReplayItem, replay_loss, replay_terms, total_loss
from .model import ModelConfig, SurvivalModel
from .survival import (UndefinedMetricError, c_index, c_index_ipcw,
                       nll_survival_loss, risk_scores)
# bench/test_bench.py (BY_VALUE) requires this module to hold `risk_score`
from .survival import risk_score  # noqa: F401
from .synthdata import split_folds

REPLAY_METHODS = ("er", "derpp", "fcr")  # the methods that keep a buffer
METHODS = ("finetune", "joint") + REPLAY_METHODS
# the least value of each integer field; k_top counts routed experts beside
# the shared one, so it may be 0
_INT_MINIMA = {"epochs": 0, "replay_count": 1, "buffer_capacity": 1,
               "latent": 1, "hidden": 1, "n_experts": 1, "k_top": 0,
               "n_folds": 2, "fold": 0, "seed": 0}


@dataclass(frozen=True)
class MethodConfig:
    method: str = "finetune"
    epochs: int = 20
    learning_rate: float = 2e-4
    weight_decay: float = 1e-5
    alpha: float = 2.4e-3         # feature-constraint weight
    beta: float = 0.5             # replay weight
    replay_count: int = 1         # items replayed per training step
    censored_weight: float = 0.0  # alpha_s, scales down the censored NLL term
    buffer_capacity: int = 32
    latent: int = ModelConfig.latent
    hidden: int = ModelConfig.hidden
    n_experts: int = ModelConfig.n_experts
    k_top: int = ModelConfig.k_top
    n_folds: int = 5
    fold: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("learning_rate", "weight_decay", "alpha", "beta"):
            require_nonnegative(name, getattr(self, name))
        if not 0.0 <= self.censored_weight <= 1.0:
            raise ValueError("censored_weight must lie in [0, 1]")
        for name, low in _INT_MINIMA.items():
            require_int(name, getattr(self, name), low)
        if self.k_top + 1 > self.n_experts:
            raise ValueError(f"k_top + 1 = {self.k_top + 1} experts (with the "
                             f"shared one) exceed n_experts = {self.n_experts}")
        if self.fold >= self.n_folds:
            raise ValueError(f"fold {self.fold} is not one of the "
                             f"n_folds = {self.n_folds} folds")


class NonFiniteLossError(ValueError):
    """A training step's loss is NaN or infinite."""


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
    return risk_scores(model.predict([task.cases[i] for i in indices],
                                     task.task_id))


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
        with ad.no_grad():
            _, _, _, f_f, _ = model.forward(case, task_id)
            logits = model.heads[task_id](f_f).data.copy()
        item = ReplayItem(case, task_id, zeros, zeros, zeros, logits=logits)
    buffer.items[slot] = item


def _step_loss(cfg: MethodConfig, model: SurvivalModel, case, task_id: int,
               buffer: ReplayBuffer | None,
               rng_buffer: np.random.Generator) -> ad.Tensor:
    hazards, *_ = model.forward(case, task_id)
    current = nll_survival_loss(hazards, case.label, case.censored,
                                cfg.censored_weight)
    if buffer is None or len(buffer) == 0:  # finetune and joint have none
        return current
    alpha = 0.0 if cfg.method == "er" else cfg.alpha  # er has no feature term
    if alpha == 0.0 and cfg.beta == 0.0:
        return current
    items = buffer.sample_replay(cfg.replay_count, rng_buffer)
    if cfg.method == "derpp":
        distill = None
        for it in items:
            _, _, _, f_f, _ = model.forward(it.case, it.task_id)
            logits = model.heads[it.task_id](f_f)
            term = ad.mean_all(ad.square(ad.sub(logits, ad.constant(it.logits))))
            distill = term if distill is None else ad.add(distill, term)
        distill = ad.scale(distill, 1.0 / len(items))
        rl = replay_loss(model, items, cfg.censored_weight)
        return total_loss(current, distill, rl, alpha, cfg.beta)
    fc, rl = replay_terms(model, items, alpha, cfg.beta, cfg.censored_weight)
    return total_loss(current, fc, rl, alpha, cfg.beta)


def _scored(model: SurvivalModel, task: TaskData, idx: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A C-index's arguments for the cases `idx` of `task`."""
    return _evaluate_risks(model, task, idx), task.times[idx], task.censor[idx]


def _run_epochs(model: SurvivalModel, cfg: MethodConfig, parts, key: int,
                curve_task: int, curves: list | None,
                buffer: ReplayBuffer | None = None,
                rng_buffer: np.random.Generator | None = None,
                step_hook=None) -> dict[str, np.ndarray]:
    """AdamW on every part's trainable parameters for `cfg.epochs` epochs
    over the pooled training cases of `parts`, (task, train_idx, val_idx)
    triples; returns the state with the best validation score, the mean
    C-index over the parts' validation cases.

    Epoch `e` visits the pool in the order `_shuffle_rng(cfg.seed, key, e)`
    permutes it. Each step stores its case in `buffer` when one is given,
    then calls `step_hook(model)`. Ties in validation go to the earliest
    epoch; zero epochs returns the initial parameters. A NaN or infinite
    loss raises `NonFiniteLossError` before it touches a parameter.
    """
    pool = [(task.task_id, task.cases[i]) for task, tr, _ in parts for i in tr]
    if not pool:
        ids = ", ".join(str(task.task_id) for task, _, _ in parts)
        raise ValueError(f"task {ids}: empty training split")
    trainable: dict[str, ad.Tensor] = {}
    for task, _, _ in parts:
        trainable.update(model.trainable_parameters(task.task_id))
    opt = AdamW(trainable, cfg.learning_rate, cfg.weight_decay)
    best_state = model.get_state()
    best_val = -np.inf
    for epoch in range(cfg.epochs):
        losses = []
        for j in _shuffle_rng(cfg.seed, key, epoch).permutation(len(pool)):
            task_id, case = pool[j]
            loss = _step_loss(cfg, model, case, task_id, buffer, rng_buffer)
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLossError(
                    f"{cfg.method}: task {task_id}, epoch {epoch}, case "
                    f"{case.case_id!r}: loss is {value}")
            losses.append(value)
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
        val_c = float(np.mean([c_index(*_scored(model, task, va))
                               for task, _, va in parts]))
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
    return _run_epochs(model, cfg, [(task, train_idx, val_idx)], task.task_id,
                       task.task_id, curves,
                       buffer if cfg.method in REPLAY_METHODS else None,
                       rng_buffer, step_hook)


def _train_joint(model: SurvivalModel, stream: TaskStream, cfg: MethodConfig,
                 splits, curves: list | None,
                 step_hook=None) -> dict[str, np.ndarray]:
    """Every task at once: each epoch shuffles the union of their cases."""
    return _run_epochs(model, cfg, [(t, tr, va) for t, (tr, va)
                                    in zip(stream.tasks, splits)],
                       stream.n_tasks, -1, curves, step_hook=step_hook)


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
        scored = _scored(model, task, va)
        matrices["c_index"].values[row, j] = c_index(*scored)
        matrices["c_index_ipcw"].values[row, j] = c_index_ipcw(*scored)


def collect_routing(model: SurvivalModel, stream: TaskStream, splits
                    ) -> list[tuple[int, str, int, float]]:
    """(task, site, expert, proportion) rows over each task's validation
    cases."""
    rows: list[tuple[int, str, int, float]] = []
    for task, (_, va) in zip(stream.tasks, splits):
        sites = model.routing([task.cases[i] for i in va], task.task_id)
        rows += [(task.task_id, site, e, float(prop))
                 for site, props in sites.items()
                 for e, prop in enumerate(props)]
    return rows


def build_model(stream: TaskStream, cfg: MethodConfig) -> SurvivalModel:
    """Seeded model with routers and heads for every task in the stream."""
    rng_init = np.random.default_rng([cfg.seed, 0])
    n_bins = stream.tasks[0].bins.n_bins
    model = SurvivalModel(ModelConfig(
        d_patch=stream.d_patch, genomic_width=stream.genomic_width,
        latent=cfg.latent, hidden=cfg.hidden, n_bins=n_bins,
        n_experts=cfg.n_experts, k_top=cfg.k_top), rng_init)
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
    rng_buffer = np.random.default_rng([cfg.seed, 2])
    buffer = (ReplayBuffer(cfg.buffer_capacity)
              if cfg.method in REPLAY_METHODS else None)
    if cfg.method == "joint":
        best = _train_joint(model, stream, cfg, splits, curves, step_hook)
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
