"""Tests of the benchmark itself, on tiny configurations (python3 -m pytest bench)."""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from survstream import cli, estimator, fcr, harness, model, reports, survival
from tracer import Tracer

TINY_MODEL = {"latent": 8, "hidden": 16, "n_experts": 4, "k_top": 1}


def tiny_cl(methods):
    return workloads.ContinualTraining(tuple(methods), n_tasks=2,
                                       cases_per_task=40, epochs=1,
                                       run_keys=dict(TINY_MODEL))


def traced(wl, tmp_path, seed=3):
    return run.run_traced(wl, seed, tmp_path / "work", "test")


def metrics(result):
    return {k: v for k, (v, _) in result["metrics"].items()}


# ---------------------------------------------------------------- oracles


def test_oracles_on_hand_cases():
    times, censor = [1.0, 2.0, 3.0], [0, 0, 0]
    assert checks.harrell_oracle([3.0, 2.0, 1.0], times, censor) == 1.0
    assert checks.harrell_oracle([1.0, 2.0, 3.0], times, censor) == 0.0
    assert checks.harrell_oracle([1.0, 1.0, 1.0], times, censor) == 0.5
    # no censoring: G = 1, so Uno's C equals Harrell's below tau
    assert checks.uno_oracle([3.0, 2.0, 1.0], times, censor) == 1.0


@pytest.mark.parametrize("tied", [False, True])
def test_program_concordance_matches_oracle(tied):
    c = workloads.make_cohort(11, 120, tied)
    args = c["risks"], c["times"], c["censor"]
    assert checks.check_concordance("c", survival.c_index(*args), *args,
                                    False) == []
    assert checks.check_concordance("u", survival.c_index_ipcw(*args), *args,
                                    True) == []


def test_oracle_check_reports_a_wrong_value():
    c = workloads.make_cohort(11, 50, False)
    args = c["risks"], c["times"], c["censor"]
    assert checks.check_concordance("c", survival.c_index(*args) + 1e-9,
                                    *args, False)


# ---------------------------------------------------------------- wrappers


BY_VALUE = {
    harness: ("c_index", "c_index_ipcw", "nll_survival_loss", "risk_score",
              "replay_loss", "total_loss"),
    fcr: ("nll_survival_loss",),
    reports: ("km_estimator", "log_rank_test"),
    estimator: ("run_sequence",),
    cli: ("ingest_stream", "load_model", "save_model", "save_stream",
          "emit_km_csv", "collect_routing"),
}


def test_wrappers_reach_by_value_imports():
    before = {(m, n): getattr(m, n) for m, names in BY_VALUE.items()
              for n in names}
    with Tracer():
        for (m, n), orig in before.items():
            wrapped = getattr(m, n)
            assert getattr(wrapped, "__bench_traced__", False), (m, n)
            assert wrapped.__wrapped__ is orig
        assert getattr(model.SurvivalModel.forward, "__bench_traced__", False)
    for (m, n), orig in before.items():
        assert getattr(m, n) is orig


# ---------------------------------------------------------------- counts


FORWARDS_PER_STEP = {"finetune": 1, "joint": 1, "er": 2, "fcr": 3, "derpp": 4}


def test_tiny_counts_exact_and_repeatable(tmp_path):
    wl = tiny_cl(harness.METHODS)
    first = traced(wl, tmp_path)
    assert first["problems"] == []
    m = metrics(first)
    for method, n in FORWARDS_PER_STEP.items():
        assert m[f"model.forward.calls_per_step.{method}"] == n, method
    assert m["harness.steps"] == 4 * 2 * 32 + 64
    second = metrics(traced(wl, tmp_path))
    counts = [k for k, u in layers.metric_units().items() if u == "count"]
    assert {k: m[k] for k in counts} == {k: second[k] for k in counts}


def test_adamw_updates_at_most_the_trainable_tensors(tmp_path):
    wl = tiny_cl(("fcr",))
    wl.setup(3, run.fresh(tmp_path / "work"))
    tracer = Tracer()
    unit = wl.unit(tracer)
    updated = tracer.table().count_values("harness.AdamW.step")
    net = unit.data["probe"].results[0].model
    limit = max(len(net.trainable_parameters(t)) for t in net.task_ids)
    assert updated.size == 64 and 0 < updated.max() <= limit


# ------------------------------------------------- layers each workload uses


CL_COMMON = [f"autodiff.{p}.calls" for p in (
    "matmul", "add", "sub", "mul", "scale", "log", "sigmoid", "relu",
    "tanh", "softmax", "transpose", "concat_cols", "concat_rows",
    "tile_rows", "mean_rows", "col", "linear")] + [
    "autodiff.primitive.calls_per_step", "autodiff.backward.self_s",
    "model.forward.calls_per_step", "model.forward.self_s",
    "model.encode_patches.s", "model.encode_genomics.s", "model.fuse.s",
    "model.predict_hazards.s", "model.get_state.s", "model.set_state.s",
    "moe.patch.forward_s", "moe.genomic.forward_s", "moe.fusion.forward_s",
    "moe.topk_s_select.calls", "moe.topk_s_select.self_s",
    "moe.routing_stats.s", "survival.nll_survival_loss.self_s",
    "harness.AdamW.step.s", "harness.AdamW.tensors_per_step",
    "harness.train_task.s", "harness.evaluate_risks.s",
    "harness.collect_routing.s", "harness.steps", "bagio.save_stream.s",
    "bagio.ingest_stream.s", "bagio.ingest_stream.MBps",
    "checkpoint.save_model.s", "reports.emit_km_csv.s",
    "reports.write_run_reports.s", "synthdata.generate_stream.s"]
FCR_LAYER = ["fcr.reservoir_update.s", "fcr.sample_replay.s",
             "fcr.replay_items_per_step", "fcr.buffer_save.s"]
EVAL = [f"autodiff.{p}.calls" for p in (
    "matmul", "add", "mul", "sigmoid", "relu", "tanh", "softmax",
    "transpose", "concat_cols", "concat_rows", "tile_rows", "mean_rows",
    "col", "linear")] + [
    "model.forward.self_s", "model.encode_patches.s",
    "model.encode_genomics.s", "model.fuse.s", "model.predict_hazards.s",
    "moe.patch.forward_s", "moe.genomic.forward_s", "moe.fusion.forward_s",
    "moe.topk_s_select.calls", "moe.routing_stats.s",
    "harness.evaluate_risks.s", "harness.collect_routing.s",
    "bagio.save_stream.s", "bagio.ingest_stream.s",
    "bagio.ingest_stream.MBps", "checkpoint.save_model.s",
    "checkpoint.load_model.s", "reports.emit_km_csv.s",
    "synthdata.generate_stream.s", "cli.km.s", "cli.routing.s"]
NO_TRAINING = ["autodiff.backward.self_s", "harness.AdamW.step.s",
               "harness.steps", "fcr.sample_replay.s"]


def assert_nonzero(m, names):
    zero = [n for n in names if not m[n] > 0]
    assert zero == []


def test_cl_fcr_exercises_its_layers(tmp_path):
    m = metrics(traced(tiny_cl(("fcr",)), tmp_path))
    assert_nonzero(m, CL_COMMON + FCR_LAYER + [
        "model.feature_triple.s", "model.forward.calls_per_step.fcr"])


def test_cl_baselines_exercise_their_layers(tmp_path):
    m = metrics(traced(tiny_cl(workloads.BASELINES), tmp_path))
    assert_nonzero(m, CL_COMMON + FCR_LAYER + ["autodiff.mean_all.calls"] + [
        f"model.forward.calls_per_step.{b}" for b in workloads.BASELINES])
    assert m["model.feature_triple.s"] == 0.0


def test_finetune_and_joint_never_touch_the_buffer(tmp_path):
    m = metrics(traced(tiny_cl(("finetune", "joint")), tmp_path))
    assert [n for n in m if n.startswith("fcr.") and m[n] != 0.0] == []


def test_eval_cohort_reads_and_scores_without_training(tmp_path):
    wl = workloads.Chain((workloads.EvalCohort(n_tasks=2, cases_per_task=60),
                          workloads.SurvivalMetrics(sizes=(100,))))
    result = traced(wl, tmp_path)
    assert result["problems"] == []
    m = metrics(result)
    assert_nonzero(m, EVAL + [f"survival.{r}.n100-{t}.s"
                              for r in workloads.ROUTINES
                              for t in ("tied", "untied")])
    assert [n for n in NO_TRAINING if m[n] != 0.0] == []
    timed = run.run_timed(wl, 3, 0.0, tmp_path / "timed")
    assert timed["problems"] == []
    assert {"eval_cases_per_s", "metric_set_s"} <= set(timed["workload_metrics"])


def test_survival_metrics_time_each_routine_without_training(tmp_path):
    wl = workloads.SurvivalMetrics(sizes=(100,))
    result = traced(wl, tmp_path)
    assert result["problems"] == []
    m = metrics(result)
    assert_nonzero(m, [f"survival.{r}.n100-{t}.s" for r in workloads.ROUTINES
                       for t in ("tied", "untied")])
    assert [n for n in NO_TRAINING if m[n] != 0.0] == []


# ------------------------------------------------------------- definition


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.__file__).parent.parent
                       / "BENCHMARK.json").read_text())
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == \
        layers.metric_units()
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_untraced_run_checks_and_repeats(tmp_path):
    wl = tiny_cl(("er",))
    result = run.run_timed(wl, 5, 0.0, tmp_path / "work")
    assert result["problems"] == [] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v, _ in result["metrics"].values())
    assert result["workload_metrics"]["train_steps_per_s"][0] > 0


def test_run_s_takes_each_segment_at_its_median():
    units = [workloads.Unit(sum(seg), seg, 1, "same")
             for seg in ([1.0, 5.0], [2.0, 1.0], [3.0, 2.0])]
    assert run.segment_median_s(units) == 4.0
    assert run.mismatches(units) == []
    units.append(workloads.Unit(1.0, [1.0], 1, "same"))
    assert run.mismatches(units) and run.segment_median_s(units) == 4.0


def test_checks_catch_a_non_monotone_km_curve():
    assert checks.check_km_curve("km", [1.0, 0.8, 0.9])
    assert checks.check_km_curve("km", [1.0, 0.8, 0.8]) == []
    assert checks.check_unit_interval("m", [0.5, np.nan])
