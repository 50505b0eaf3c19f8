"""Scikit-learn-flavoured facade over the continual-learning harness.

`ContinualSurvivalEstimator(method="fcr").fit(stream)` trains the configured
method over a task stream; `predict_risk` / `predict_hazard` score cases
through a task's own router and head. The keyword parameters are the fields
of `MethodConfig`, with the values of `MethodConfig(method="fcr")` as
defaults; an unknown one raises `ValueError`. So `get_params` / `set_params`
and `clone`-style reuse work as in scikit-learn.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .data import CaseRecord, TaskStream
from .harness import MethodConfig, SequenceResult, run_sequence
from .survival import risk_scores

_DEFAULTS = asdict(MethodConfig(method="fcr"))


class NotFittedError(RuntimeError):
    pass


class ContinualSurvivalEstimator:
    _PARAM_NAMES = tuple(_DEFAULTS)

    def __init__(self, **params):
        self.set_params(**{**_DEFAULTS, **params})
        self.result_: SequenceResult | None = None

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "ContinualSurvivalEstimator":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def method_config(self) -> MethodConfig:
        return MethodConfig(**self.get_params())

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
        return self._model().predict(cases, task_id)

    def predict_risk(self, cases: list[CaseRecord], task_id: int) -> np.ndarray:
        return risk_scores(self.predict_hazard(cases, task_id))

    def score_matrix(self, metric: str = "c_index") -> np.ndarray:
        if self.result_ is None:
            raise NotFittedError("call fit first")
        return self.result_.matrices[metric].values.copy()
