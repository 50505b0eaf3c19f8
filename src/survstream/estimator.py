"""Scikit-learn-flavoured facade over the continual-learning harness.

`ContinualSurvivalEstimator(method="fcr").fit(stream)` trains the configured
method over a task stream; `predict_risk` / `predict_hazard` score cases
through a task's own router and head. Constructor arguments mirror
`MethodConfig` fields so `get_params` / `set_params` and `clone`-style reuse
behave the way scikit-learn users expect.
"""

from __future__ import annotations

import inspect

import numpy as np

from .data import CaseRecord, TaskStream
from .fcr import CLLossConfig
from .harness import MethodConfig, SequenceResult, run_sequence
from .survival import SurvLossConfig, risk_score


class NotFittedError(RuntimeError):
    pass


class ContinualSurvivalEstimator:
    def __init__(self, method: str = "fcr", epochs: int = 20,
                 learning_rate: float = 2e-4, weight_decay: float = 1e-5,
                 alpha: float = 2.4e-3, beta: float = 0.5,
                 replay_count: int = 1, buffer_capacity: int = 32,
                 censored_weight: float = 0.0, latent: int = 64,
                 hidden: int = 128, n_experts: int = 8, k_top: int = 2,
                 n_folds: int = 5, fold: int = 0, seed: int = 0):
        given = locals()
        for name in self._PARAM_NAMES:
            setattr(self, name, given[name])
        self.result_: SequenceResult | None = None

    # the hyperparameter names: the constructor's keywords, in order
    _PARAM_NAMES = tuple(inspect.signature(__init__).parameters)[1:]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "ContinualSurvivalEstimator":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def method_config(self) -> MethodConfig:
        return MethodConfig(
            method=self.method, epochs=self.epochs,
            learning_rate=self.learning_rate, weight_decay=self.weight_decay,
            loss=CLLossConfig(alpha=self.alpha, beta=self.beta,
                              replay_count=self.replay_count),
            surv=SurvLossConfig(censored_weight=self.censored_weight),
            buffer_capacity=self.buffer_capacity, latent=self.latent,
            hidden=self.hidden, n_experts=self.n_experts, k_top=self.k_top,
            n_folds=self.n_folds, fold=self.fold, seed=self.seed)

    def fit(self, stream: TaskStream) -> "ContinualSurvivalEstimator":
        if not isinstance(stream, TaskStream) or stream.n_tasks == 0:
            raise ValueError("fit expects a nonempty TaskStream")
        self.result_ = run_sequence(self.method_config(), stream)
        return self

    def _model(self):
        if self.result_ is None:
            raise NotFittedError("call fit before predicting")
        return self.result_.model

    def predict_hazard(self, cases: list[CaseRecord], task_id: int) -> np.ndarray:
        model = self._model()
        out = [model.forward(c, task_id)[0].data.reshape(-1) for c in cases]
        return np.asarray(out)

    def predict_risk(self, cases: list[CaseRecord], task_id: int) -> np.ndarray:
        return np.asarray([risk_score(h) for h in
                           self.predict_hazard(cases, task_id)])

    def score_matrix(self, metric: str = "c_index") -> np.ndarray:
        if self.result_ is None:
            raise NotFittedError("call fit first")
        return self.result_.matrices[metric].values.copy()
