"""Stacked inference: `SurvivalModel.predict` and `collect_routing` send
the cases of a call through stacked passes of at most `INFER_CHUNK` cases of
any bag sizes, each of which pools each bag size on its own and runs
everything after pooling once, each expert only on the rows that chose it.
Every case must come out bit for bit as its own forward would give it."""

import dataclasses
import functools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from survstream import autodiff as ad
from survstream import cli
from survstream import model as model_module
from survstream import moe
from survstream.bagio import save_stream
from survstream.checkpoint import save_model
from survstream.harness import (MethodConfig, _evaluate_risks, build_model,
                                collect_routing)
from survstream.model import NonFiniteHazardError
from survstream.synthdata import GeneratorConfig, generate_stream

# default model widths: the BLAS calls are those of real runs
STREAM = generate_stream(GeneratorConfig(n_tasks=2, cases_per_task=40,
                                         n_patches=(3, 6), seed=5))
N_EXPERTS = MethodConfig().n_experts
K_TOPS = (1, N_EXPERTS - 1)


@functools.lru_cache(maxsize=None)
def _model(k_top: int, perturbed: bool):
    """Seeded weights leave the append-mode experts' outputs at zero;
    perturbed weights make every expert contribute."""
    model = build_model(STREAM, MethodConfig(k_top=k_top, seed=2))
    if perturbed:
        rng = np.random.default_rng(9)
        for p in model.parameters().values():
            p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
    return model


def _own_forwards(model, cases, task_id) -> np.ndarray:
    with ad.no_grad():
        return np.concatenate([model.forward(c, task_id)[0].data
                               for c in cases])


def _with_nan_patch(case):
    patches = case.patches.copy()
    patches[0, 0] = np.nan
    return dataclasses.replace(case, patches=patches)


@st.composite
def case_lists(draw):
    """A task and a list of its cases: any order, duplicates allowed,
    sometimes all of one bag size."""
    task = draw(st.sampled_from(STREAM.tasks))
    pool = list(range(len(task)))
    if draw(st.booleans()):
        n = draw(st.sampled_from(sorted({c.patches.shape[0]
                                         for c in task.cases})))
        pool = [i for i in pool if task.cases[i].patches.shape[0] == n]
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return task, [task.cases[i] for i in picks]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=case_lists(), k_top=st.sampled_from(K_TOPS),
       perturbed=st.booleans())
def test_predict_equals_each_cases_own_forward(drawn, k_top, perturbed):
    task, cases = drawn
    model = _model(k_top, perturbed)
    got = model.predict(cases, task.task_id)
    assert got.shape == (len(cases), model.cfg.n_bins)
    assert got.tobytes() == _own_forwards(model, cases, task.task_id).tobytes()


class _CountingExpert:
    """An expert that adds the rows it is called on to `seen[key]`."""

    def __init__(self, expert, seen, key):
        self.expert, self.seen, self.key = expert, seen, key

    def __call__(self, x):
        self.seen[self.key] = self.seen.get(self.key, 0) + len(x.data)
        return self.expert(x)


def test_a_stack_runs_each_expert_only_on_the_rows_that_chose_it(monkeypatch):
    model, task = _model(1, True), STREAM.tasks[0]
    cases = task.cases
    assert len({c.patches.shape[0] for c in cases}) > 1
    # selection counts per site, from each row's own gate
    chosen = {name: np.rint(props * len(cases)).astype(int)
              for name, props in model.routing(cases, task.task_id).items()}
    # rows of one stack choose differently, so a union would show
    assert all((0 < n).any() and (n < len(cases)).any()
               for n in chosen.values())
    seen = {}
    for name, site in (("patch", model.moe_patch), ("genomic", model.moe_gen),
                       ("fusion", model.moe_fuse)):
        monkeypatch.setattr(site, "experts", [
            _CountingExpert(e, seen, (name, i))
            for i, e in enumerate(site.experts)])
    with ad.no_grad():
        model.forward(cases, task.task_id)
    assert seen == {(name, i): n for name, counts in chosen.items()
                    for i, n in enumerate(counts) if n}


@pytest.mark.parametrize("k_top", K_TOPS)
def test_collect_routing_equals_a_per_case_reference(k_top):
    model = _model(k_top, True)
    splits = [(None, np.arange(len(t))[::-1]) for t in STREAM.tasks]
    want = []
    for task, (_, va) in zip(STREAM.tasks, splits):
        masks = {"patch": [], "genomic": [], "fusion": []}
        with ad.no_grad():
            for i in va:  # each case's own (1, n_experts) mask per site
                for name, chosen in zip(
                        masks, model.forward(task.cases[i], task.task_id)[4]):
                    masks[name].append(chosen)
        for name, chosen in masks.items():
            props = np.concatenate(chosen).mean(axis=0)
            want += [(task.task_id, name, e, float(v))
                     for e, v in enumerate(props)]
    assert collect_routing(model, STREAM, splits) == want


def test_a_stack_exists_only_under_no_grad():
    stack = np.zeros((2, 1, 3))
    with pytest.raises(ad.ShapeError):
        ad.constant(stack)
    with pytest.raises(ad.ShapeError):
        ad.Tensor(stack, requires_grad=True)
    with ad.no_grad():
        assert ad.constant(stack).shape == (2, 1, 3)
    model, task = _model(1, False), STREAM.tasks[0]
    same = [c for c in task.cases
            if c.patches.shape == task.cases[0].patches.shape][:2]
    with pytest.raises(ad.ShapeError):
        model.forward(same, task.task_id)


def test_a_mixed_bag_stack_equals_each_cases_own_forward():
    model, task = _model(1, True), STREAM.tasks[0]
    cases = task.cases[::-1]
    assert len({c.patches.shape[0] for c in cases}) > 1
    with ad.no_grad():
        stacked = model.forward(cases, task.task_id)
        own = [model.forward(c, task.task_id) for c in cases]
    for k, out in enumerate(stacked[:4]):
        assert out.shape == (len(cases),) + own[0][k].shape
        assert out.data.tobytes() == np.stack([o[k].data for o in own]).tobytes()
    for site, chosen in enumerate(stacked[4]):  # each site's selections
        assert chosen.shape == (len(cases),) + own[0][4][site].shape
        assert chosen.tobytes() == np.stack([o[4][site] for o in own]).tobytes()


def test_a_nan_case_changes_only_its_own_row_of_a_stack():
    model, task = _model(1, True), STREAM.tasks[0]
    cases = task.cases
    poisoned = list(cases)
    poisoned[1] = _with_nan_patch(cases[1])
    clean = model.predict(cases, task.task_id)
    with ad.no_grad():
        stacked = model.forward(poisoned, task.task_id)[0].data
    stacked = stacked.reshape(len(cases), -1)
    assert np.isnan(stacked[1]).all()
    keep = [0] + list(range(2, len(cases)))
    assert stacked[keep].tobytes() == clean[keep].tobytes()


def test_non_finite_hazards_name_their_task_and_case():
    model, task = _model(1, False), STREAM.tasks[1]
    cases = list(task.cases)
    cases[7] = _with_nan_patch(cases[7])
    bad_task = dataclasses.replace(task, cases=cases)
    expected = re.escape(f"task {task.task_id}, case '{cases[7].case_id}'")
    with pytest.raises(NonFiniteHazardError, match=expected):
        model.predict(cases, task.task_id)
    # validation and performance-matrix rows score through the same path
    with pytest.raises(NonFiniteHazardError, match=expected):
        _evaluate_risks(model, bad_task, np.arange(len(cases)))


def test_km_verb_exits_2_naming_the_non_finite_case(tmp_path, capsys):
    model = _model(1, False)
    stream = dataclasses.replace(STREAM, tasks=list(STREAM.tasks))
    cases = list(STREAM.tasks[0].cases)
    cases[3] = _with_nan_patch(cases[3])
    stream.tasks[0] = dataclasses.replace(STREAM.tasks[0], cases=cases)
    save_stream(stream, tmp_path / "stream")
    save_model(model, tmp_path / "model.npz")
    code = cli.main(["km", str(tmp_path / "model.npz"),
                     str(tmp_path / "stream"), "0", str(tmp_path / "km.csv")])
    assert code == cli.EXIT_DATA
    assert repr(cases[3].case_id) in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_chunked_predict_and_routing_equal_one_stack(monkeypatch, chunk):
    model, task = _model(1, True), STREAM.tasks[0]
    cases = task.cases[::-1]
    monkeypatch.setattr(model_module, "INFER_CHUNK", len(cases))
    hazards = model.predict(cases, task.task_id)
    routing = model.routing(cases, task.task_id)
    monkeypatch.setattr(model_module, "INFER_CHUNK", chunk)
    assert model.predict(cases, task.task_id).tobytes() == hazards.tobytes()
    chunked = model.routing(cases, task.task_id)
    assert list(chunked) == list(routing)
    assert all(chunked[k].tobytes() == routing[k].tobytes() for k in routing)


def test_routing_reads_each_site_once_over_every_chunk(monkeypatch):
    model, task = _model(1, True), STREAM.tasks[0]
    monkeypatch.setattr(model_module, "INFER_CHUNK", 3)
    chunks, sizes = [], []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda cases, t:
                        chunks.append(len(cases)) or forward(cases, t))
    for site in (model.moe_patch, model.moe_gen, model.moe_fuse):
        stats = site.routing_stats
        monkeypatch.setattr(site, "routing_stats", lambda x, stats=stats:
                            sizes.append(len(x)) or stats(x))
    model.routing(task.cases, task.task_id)
    assert len(task.cases) == 40 and chunks == [3] * 13 + [1]
    assert sizes == [len(task.cases)] * 3


def test_routing_gates_each_site_once(monkeypatch):
    stream = generate_stream(GeneratorConfig(n_tasks=1, cases_per_task=300,
                                             n_patches=(3, 6), seed=5))
    model, task = build_model(stream, MethodConfig(seed=2)), stream.tasks[0]
    calls = []
    gate = moe.topk_s_select
    monkeypatch.setattr(moe, "topk_s_select", lambda logits, *a:
                        calls.append(logits.shape) or gate(logits, *a))
    model.routing(task.cases, task.task_id)
    assert calls == [(300, 1, N_EXPERTS)] * 3


def test_a_non_finite_case_in_a_later_chunk_is_named(monkeypatch):
    model, task = _model(1, False), STREAM.tasks[1]
    cases = list(task.cases)
    cases[7] = _with_nan_patch(cases[7])
    monkeypatch.setattr(model_module, "INFER_CHUNK", 3)
    with pytest.raises(NonFiniteHazardError,
                       match=re.escape(f"case '{cases[7].case_id}'")):
        model.predict(cases, task.task_id)


def test_chunked_predict_peaks_well_below_one_stack(monkeypatch):
    model, task = _model(1, False), STREAM.tasks[0]
    cases = task.cases * 50
    assert len(cases) == 2000 and model_module.INFER_CHUNK >= 512

    def peak():
        tracemalloc.start()
        try:
            out = model.predict(cases, task.task_id)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunked, chunked_peak = peak()
    monkeypatch.setattr(model_module, "INFER_CHUNK", len(cases))
    whole, whole_peak = peak()
    assert chunked.tobytes() == whole.tobytes()
    assert chunked_peak < 0.5 * whole_peak
