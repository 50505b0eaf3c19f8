import numpy as np
import pytest

from survstream import autodiff as ad
from survstream import harness
from survstream.estimator import ContinualSurvivalEstimator
from survstream.fcr import (CLLossConfig, ReplayBuffer, ReplayItem,
                            feature_constraint_loss, replay_loss, total_loss)
from survstream.harness import (AdamW, MethodConfig, PerformanceMatrix,
                                _step_loss, average_on_trained,
                                average_performance, build_model, bwt,
                                collect_routing, forgetting, fwt,
                                run_sequence, train_task)
from survstream.model import SurvivalModel
from survstream.moe import MoEModule
from survstream.survival import UndefinedMetricError, nll_survival_loss
from survstream.synthdata import GeneratorConfig, generate_stream, split_folds

TINY_KW = dict(latent=8, hidden=10, attn_dim=4, n_experts=4, k_top=1)
GEN = GeneratorConfig(n_tasks=2, cases_per_task=60, n_patches=(3, 6),
                      d_patch=8, group_dims=(5, 4, 3, 6, 2, 4), seed=0)


@pytest.fixture(scope="module")
def stream():
    return generate_stream(GEN)


def model_states_equal(a, b):
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestAdamW:
    def test_single_step_hand_formula(self):
        p = ad.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        g = np.array([[0.5, -1.0]])
        lr, wd, b1, b2, eps = 0.1, 0.0, 0.9, 0.999, 1e-8
        opt = AdamW({"p": p}, lr, wd, betas=(b1, b2), eps=eps)
        opt.step({"p": g})
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = np.array([[1.0, -2.0]]) - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_decoupled_weight_decay(self):
        p = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step({"p": np.array([[0.0]])})
        # zero gradient: only the decay multiplier acts
        assert abs(p.data[0, 0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12

    def test_untouched_parameter_frozen(self):
        p = ad.Tensor(np.array([[1.0]]), requires_grad=True)
        q = ad.Tensor(np.array([[1.0]]), requires_grad=True)
        opt = AdamW({"p": p, "q": q}, lr=0.1, weight_decay=0.5)
        opt.step({"p": np.array([[1.0]])})
        assert q.data[0, 0] == 1.0  # no gradient, no decay, no moment

    def test_unknown_gradient_ignored(self):
        p = ad.Tensor(np.array([[1.0]]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step({"ghost": np.array([[1.0]])})
        assert p.data[0, 0] == 1.0

    def test_two_steps_match_reference_loop(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(2, 3))
        p = ad.Tensor(x0.copy(), requires_grad=True)
        lr, wd = 0.05, 0.01
        opt = AdamW({"p": p}, lr, wd)
        grads = [rng.normal(size=(2, 3)) for _ in range(2)]
        m = np.zeros((2, 3))
        v = np.zeros((2, 3))
        ref = x0.copy()
        for t, g in enumerate(grads, start=1):
            opt.step({"p": g})
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            ref = ref * (1 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-12)


HAND = np.array([
    [0.50, 0.48, 0.52],
    [0.80, 0.55, 0.60],
    [0.70, 0.82, 0.58],
    [0.65, 0.75, 0.85],
])


class TestMatrixMetrics:
    def test_average(self):
        assert average_performance(HAND) == pytest.approx(0.75, abs=1e-12)

    def test_forgetting(self):
        # j=0: max(0.80, 0.70) - 0.65; j=1: 0.82 - 0.75
        assert forgetting(HAND) == pytest.approx(0.11, abs=1e-12)

    def test_bwt(self):
        assert bwt(HAND) == pytest.approx(-0.11, abs=1e-12)

    def test_fwt(self):
        # (0.55 - 0.48 + 0.58 - 0.52) / 2
        assert fwt(HAND) == pytest.approx(0.065, abs=1e-12)

    def test_forgetting_negative_of_bwt_when_diag_is_max(self):
        # if no intermediate row beats the diagonal, forgetting == -bwt
        m = HAND.copy()
        m[2, 0] = 0.60
        assert forgetting(m) == pytest.approx(-bwt(m), abs=1e-12)

    def test_average_on_trained(self):
        assert average_on_trained(HAND, 2) == pytest.approx(0.76, abs=1e-12)
        with pytest.raises(UndefinedMetricError):
            average_on_trained(HAND, 0)

    def test_missing_entries_rejected(self):
        m = HAND.copy()
        m[3, 1] = np.nan
        with pytest.raises(UndefinedMetricError):
            average_performance(m)

    def test_single_task_has_no_transfer_metrics(self):
        m = np.array([[0.5], [0.7]])
        assert average_performance(m) == 0.7
        for fn in (forgetting, bwt, fwt):
            with pytest.raises(UndefinedMetricError):
                fn(m)

    def test_empty_matrix_initialised_nan(self):
        pm = PerformanceMatrix.empty(3, "c_index")
        assert pm.values.shape == (4, 3)
        assert np.isnan(pm.values).all()


class TestMethodConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MethodConfig(method="sgd")

    def test_negative_epochs(self):
        with pytest.raises(ValueError):
            MethodConfig(epochs=-1)

    def test_defaults(self):
        cfg = MethodConfig()
        assert cfg.epochs == 20
        assert cfg.learning_rate == 2e-4
        assert cfg.weight_decay == 1e-5
        assert cfg.buffer_capacity == 32

    def test_estimator_defaults_match_method_config(self):
        # the estimator's keyword defaults restate MethodConfig's
        assert (ContinualSurvivalEstimator().method_config()
                == MethodConfig(method="fcr"))


class TestTrainTask:
    def test_zero_epochs_returns_initial_state(self, stream):
        cfg = MethodConfig(epochs=0, seed=0, **TINY_KW)
        model = build_model(stream, cfg)
        before = model.get_state()
        task = stream.tasks[0]
        tr, va = split_folds(task, 5, 0)[0]
        best = train_task(model, task, cfg, tr, va, None,
                          np.random.default_rng(0))
        assert model_states_equal(before, best)

    def test_empty_train_split_rejected(self, stream):
        cfg = MethodConfig(epochs=1, seed=0, **TINY_KW)
        model = build_model(stream, cfg)
        task = stream.tasks[0]
        with pytest.raises(ValueError):
            train_task(model, task, cfg, np.array([], dtype=int),
                       np.arange(5), None, np.random.default_rng(0))

    def test_training_is_deterministic(self, stream):
        states = []
        for _ in range(2):
            cfg = MethodConfig(epochs=1, seed=3, **TINY_KW)
            model = build_model(stream, cfg)
            task = stream.tasks[0]
            tr, va = split_folds(task, 5, 0)[0]
            train_task(model, task, cfg, tr, va, None,
                       np.random.default_rng(0))
            states.append(model.get_state())
        assert model_states_equal(*states)

    def test_curves_recorded(self, stream):
        cfg = MethodConfig(epochs=2, seed=0, **TINY_KW)
        model = build_model(stream, cfg)
        task = stream.tasks[0]
        tr, va = split_folds(task, 5, 0)[0]
        curves = []
        train_task(model, task, cfg, tr, va, None,
                   np.random.default_rng(0), curves=curves)
        assert [(t, e) for t, e, _, _ in curves] == [(0, 0), (0, 1)]
        for _, _, loss, val_c in curves:
            assert np.isfinite(loss) and 0.0 <= val_c <= 1.0


@pytest.fixture(scope="module")
def result(stream):
    cfg = MethodConfig(method="fcr", epochs=2, seed=0, **TINY_KW)
    return run_sequence(cfg, stream)


@pytest.fixture(scope="module")
def degenerate_states(stream):
    out = {}
    for method, loss in (
            ("finetune", CLLossConfig()),
            ("fcr", CLLossConfig(alpha=0.0, beta=0.0)),
            ("er", CLLossConfig(alpha=0.0, beta=0.0))):
        cfg = MethodConfig(method=method, epochs=2, seed=1, loss=loss,
                           **TINY_KW)
        out[method] = run_sequence(cfg, stream).model.get_state()
    return out


class TestRunSequence:
    def test_matrix_complete(self, result):
        for pm in result.matrices.values():
            assert pm.values.shape == (3, 2)
            assert not np.isnan(pm.values).any()
            assert ((pm.values >= 0) & (pm.values <= 1)).all()

    def test_summary_keys(self, result):
        s = result.summary()
        assert set(s) == {"c_index", "c_index_ipcw"}
        assert set(s["c_index"]) == {"average", "forgetting", "bwt", "fwt"}

    def test_buffer_populated(self, result):
        assert result.buffer is not None
        assert len(result.buffer) > 0
        assert result.buffer.seen_count > 0
        # fcr items carry frozen features
        it = result.buffer.items[0]
        assert it.f_fused.shape == (1, TINY_KW["latent"])

    def test_routing_rows(self, result):
        # 2 tasks x 3 sites x n_experts entries
        assert len(result.routing) == 2 * 3 * TINY_KW["n_experts"]
        shared = TINY_KW["n_experts"] - 1
        for task_id, site, expert, prop in result.routing:
            assert 0.0 <= prop <= 1.0
            if expert == shared:
                assert prop == 1.0

    def test_curves_cover_tasks_and_epochs(self, result):
        assert [(t, e) for t, e, _, _ in result.curves] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_finetune_has_no_buffer(self, stream):
        cfg = MethodConfig(method="finetune", epochs=1, seed=0, **TINY_KW)
        res = run_sequence(cfg, stream)
        assert res.buffer is None

    def test_joint_fills_only_final_row(self, stream):
        cfg = MethodConfig(method="joint", epochs=1, seed=0, **TINY_KW)
        res = run_sequence(cfg, stream)
        vals = res.matrices["c_index"].values
        assert not np.isnan(vals[0]).any()
        assert np.isnan(vals[1]).all()  # no per-task checkpoints
        assert not np.isnan(vals[2]).any()
        s = res.summary()["c_index"]
        assert set(s) == {"average"}  # transfer metrics undefined

    def test_derpp_stores_logits(self, stream):
        cfg = MethodConfig(method="derpp", epochs=1, seed=0,
                           loss=CLLossConfig(alpha=0.1, beta=0.5), **TINY_KW)
        res = run_sequence(cfg, stream)
        assert all(it.logits is not None for it in res.buffer.items)


class TestReductionChain:
    """finetune, fcr(alpha=0, beta=0) and er(alpha=0, beta=0) must take
    bit-identical optimisation trajectories."""

    def test_fcr_degenerate_equals_finetune(self, degenerate_states):
        assert model_states_equal(degenerate_states["finetune"],
                                  degenerate_states["fcr"])

    def test_er_degenerate_equals_finetune(self, degenerate_states):
        assert model_states_equal(degenerate_states["finetune"],
                                  degenerate_states["er"])

    def test_nonzero_weights_change_trajectory(self, stream):
        base = MethodConfig(method="fcr", epochs=1, seed=1,
                            loss=CLLossConfig(alpha=0.0, beta=0.0), **TINY_KW)
        active = MethodConfig(method="fcr", epochs=1, seed=1,
                              loss=CLLossConfig(alpha=0.5, beta=0.5), **TINY_KW)
        a = run_sequence(base, stream).model.get_state()
        b = run_sequence(active, stream).model.get_state()
        assert not model_states_equal(a, b)


class TestFrozenRouters:
    def test_earlier_task_routing_stable_after_later_training(self, stream):
        cfg = MethodConfig(method="finetune", epochs=1, seed=2, **TINY_KW)
        model = build_model(stream, cfg)
        splits = [split_folds(t, 5, cfg.seed + 7919 * t.task_id)[0]
                  for t in stream.tasks]
        rng = np.random.default_rng(0)
        t0 = stream.tasks[0]
        train_task(model, t0, cfg, *splits[0], None, rng)
        before = {n: p.data.copy() for n, p in model.parameters().items()
                  if ".router0." in n}
        t1 = stream.tasks[1]
        train_task(model, t1, cfg, *splits[1], None, rng)
        after = {n: p.data.copy() for n, p in model.parameters().items()
                 if ".router0." in n}
        assert model_states_equal(before, after)


def _grads_of(loss, params):
    ad.backward(loss)
    out = {}
    for name, p in params.items():
        out[name] = p.grad
        p.grad = None
    return out


@pytest.mark.parametrize("drift", [0.0, 0.01])
def test_fcr_step_loss_equals_the_standalone_loss_functions(stream, drift):
    """fcr's step (one forward per replayed item) against total_loss over
    feature_constraint_loss and replay_loss (one forward per item each).

    The value is the same bit for bit. The gradients are too while the
    stored features have not drifted; once they have, the shared forward
    adds the two terms' upstream gradients before back-propagating them, so
    the gradients agree only up to rounding."""
    cfg = MethodConfig(method="fcr", seed=4,
                       loss=CLLossConfig(alpha=0.3, beta=0.7, replay_count=3),
                       **TINY_KW)
    model = build_model(stream, cfg)
    task = stream.tasks[1]
    buffer = ReplayBuffer(4)
    rng = np.random.default_rng(5)
    for case in task.cases[:6]:
        buffer.reservoir_update(
            ReplayItem(case, 1, *model.feature_triple(case, 1)), rng)
    for p in model.parameters().values():
        p.data = p.data + drift
    params = model.trainable_parameters(1)
    case = task.cases[7]
    items = buffer.sample_replay(3, np.random.default_rng(6))
    assert len({it.case.case_id for it in items}) > 1

    step = _step_loss(cfg, model, case, 1, buffer, np.random.default_rng(6))
    step_grads = _grads_of(step, params)
    hazards = model.forward(case, 1)[0]
    current = nll_survival_loss(hazards, case.label, case.censored, cfg.surv)
    fc = feature_constraint_loss(model, items)
    ref = total_loss(current, fc, replay_loss(model, items, cfg.surv),
                     cfg.loss)
    ref_grads = _grads_of(ref, params)

    assert (fc.item() > 0.0) == (drift > 0.0)
    assert step.item() == ref.item()
    assert set(step_grads) == set(ref_grads)
    for name in ref_grads:
        a, b = step_grads[name], ref_grads[name]
        assert (a is None) == (b is None), name
        if a is None:
            continue
        if drift:
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15), name
        else:
            assert np.array_equal(a, b), name


def test_collect_routing_feeds_each_site_what_forward_feeds_it(
        stream, monkeypatch):
    cfg = MethodConfig(seed=2, **TINY_KW)
    model = build_model(stream, cfg)
    sites = {model.moe_patch: "patch", model.moe_gen: "genomic",
             model.moe_fuse: "fusion"}
    seen = {name: [] for name in sites.values()}
    orig_forward = MoEModule.forward

    def recording_forward(self, x, task_id):
        seen[sites[self]].append(x.data.reshape(-1).copy())
        return orig_forward(self, x, task_id)

    monkeypatch.setattr(MoEModule, "forward", recording_forward)
    task = stream.tasks[1]
    idx = np.arange(5)
    for i in idx:
        model.forward(task.cases[i], task.task_id)
    forward_inputs = {name: list(xs) for name, xs in seen.items()}
    monkeypatch.setattr(MoEModule, "forward", orig_forward)

    routed = {}
    orig_stats = MoEModule.routing_stats

    def recording_stats(self, inputs, task_id):
        routed[sites[self]] = [np.asarray(x).copy() for x in inputs]
        return orig_stats(self, inputs, task_id)

    monkeypatch.setattr(MoEModule, "routing_stats", recording_stats)
    collect_routing(model, type(stream)([task], stream.d_patch,
                                        stream.genomic_width),
                    [(None, idx)])
    assert set(routed) == set(forward_inputs)
    for name, xs in forward_inputs.items():
        assert len(routed[name]) == len(xs) == idx.size
        for a, b in zip(routed[name], xs):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _eager_store_case(method, model, buffer, case, task_id, rng):
    """The store step building every item before the reservoir decides."""
    zeros = np.zeros((1, 1))
    if method == "fcr":
        item = ReplayItem(case, task_id, *model.feature_triple(case, task_id))
    elif method == "derpp":
        _, _, _, f_f = model.forward(case, task_id)
        item = ReplayItem(case, task_id, zeros, zeros, zeros,
                          logits=model.heads[task_id](f_f).data.copy())
    else:
        item = ReplayItem(case, task_id, zeros, zeros, zeros)
    buffer.reservoir_update(item, rng)


@pytest.mark.parametrize("method", ["fcr", "derpp"])
def test_items_built_only_when_kept_match_eager_storage(stream, method,
                                                        monkeypatch):
    cfg = MethodConfig(method=method, epochs=2, buffer_capacity=6, seed=1,
                       **TINY_KW)
    built = []
    orig_triple = SurvivalModel.feature_triple

    def counting_triple(self, case, task_id):
        built.append(case.case_id)
        return orig_triple(self, case, task_id)

    monkeypatch.setattr(SurvivalModel, "feature_triple", counting_triple)
    lazy = run_sequence(cfg, stream)
    n_built = len(built)
    monkeypatch.setattr(harness, "_store_case", _eager_store_case)
    eager = run_sequence(cfg, stream)

    eager_built = len(built) - n_built
    if method == "fcr":  # one snapshot per kept case, not one per step
        assert 6 <= n_built < eager_built
    assert model_states_equal(lazy.model.get_state(), eager.model.get_state())
    assert lazy.buffer.seen_count == eager.buffer.seen_count
    for a, b in zip(lazy.buffer.items, eager.buffer.items, strict=True):
        assert a.case.case_id == b.case.case_id and a.task_id == b.task_id
        for f in ("f_patch", "f_genomic", "f_fused"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert (a.logits is None) == (b.logits is None)
        if a.logits is not None:
            assert np.array_equal(a.logits, b.logits)
