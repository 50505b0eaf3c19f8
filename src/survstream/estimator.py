"""Scikit-learn-flavoured facade over the continual-learning harness.

`ContinualSurvivalEstimator(method="fcr").fit(stream)` trains the configured
method over a task stream; `predict_risk` / `predict_hazard` score cases
through a task's own router and head. The keyword parameters are the fields
of `MethodConfig(method="fcr")`, `loss` and `surv` inlined and `attn_dim` left
out, with those values as defaults; an unknown one raises `ValueError`. So
`get_params` / `set_params` and `clone`-style reuse work as in scikit-learn.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .data import CaseRecord, TaskStream
from .harness import MethodConfig, SequenceResult, run_sequence
from .survival import risk_scores

# the nested configs whose fields are parameters of their own
_NESTED = {f.name: f.default_factory for f in fields(MethodConfig)
           if is_dataclass(f.default_factory)}


def _flatten(cfg: MethodConfig) -> dict:
    """The estimator parameters that describe `cfg`."""
    flat = {}
    for name, value in asdict(cfg).items():
        flat.update(value if name in _NESTED else {name: value})
    del flat["attn_dim"]
    return flat


_DEFAULTS = _flatten(MethodConfig(method="fcr"))


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
        params = self.get_params()
        nested = {name: cls(**{f.name: params.pop(f.name) for f in fields(cls)})
                  for name, cls in _NESTED.items()}
        return MethodConfig(**params, **nested)

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
