"""Task-incremental multimodal survival prediction toolkit."""

from .data import CaseRecord, TaskData, TaskStream
from .estimator import ContinualSurvivalEstimator
from .fcr import ReplayBuffer, ReplayItem
from .harness import (MethodConfig, PerformanceMatrix, average_performance,
                      bwt, forgetting, fwt, run_sequence)
from .model import ModelConfig, SurvivalModel
from .moe import GatingResult, MoEModule, topk_s_select
from .survival import (BinSpec, assign_bin, c_index, c_index_ipcw, chi2_sf,
                       compute_bins, hazards_to_survival, km_estimator,
                       log_rank_test, nll_survival_loss, risk_score,
                       risk_scores)
from .synthdata import GeneratorConfig, generate_stream, split_folds

__all__ = [
    "BinSpec", "CaseRecord", "ContinualSurvivalEstimator",
    "GatingResult", "GeneratorConfig", "MethodConfig", "ModelConfig",
    "MoEModule", "PerformanceMatrix", "ReplayBuffer", "ReplayItem",
    "SurvivalModel", "TaskData", "TaskStream",
    "assign_bin", "average_performance", "bwt", "c_index", "c_index_ipcw",
    "chi2_sf", "compute_bins", "forgetting", "fwt", "generate_stream",
    "hazards_to_survival", "km_estimator", "log_rank_test",
    "nll_survival_loss", "risk_score", "risk_scores", "run_sequence",
    "split_folds",
    "topk_s_select",
]
