import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstream import autodiff as ad
from survstream.moe import (DuplicateTaskError, MoEModule, UnknownTaskError,
                            topk_s_select)
from tests.helpers import finite_diff_check, gradients


def _oracle_select(logits, k_top: int, shared_idx: int) -> frozenset[int]:
    """One row's selection, the way the gate made it row by row: a sort on
    (-logit, index), so ties go to the lowest expert index."""
    vals = list(logits)
    rest = [i for i in range(len(vals)) if i != shared_idx]
    order = sorted(rest, key=lambda i: (-vals[i], i))
    return frozenset(order[:k_top]) | {shared_idx}


def _chosen(g) -> frozenset[int]:
    """The experts a one-row gating result selects."""
    return frozenset(np.flatnonzero(g.selected).tolist())


def _gate(logits, k_top: int, shared_idx: int):
    """`topk_s_select` on constant logits: a list is one (1, n) row."""
    return topk_s_select(ad.constant(logits), k_top, shared_idx)


class TestTopKSSelect:
    def test_shared_always_in(self):
        # shared expert scores lowest but is still selected
        g = _gate([5.0, 4.0, 3.0, -100.0], k_top=2, shared_idx=3)
        assert _chosen(g) == frozenset({0, 1, 3})

    def test_top_scores_win(self):
        g = _gate([1.0, 9.0, 2.0, 8.0, 0.0], k_top=2, shared_idx=4)
        assert _chosen(g) == frozenset({1, 3, 4})

    def test_tie_breaks_to_lowest_index(self):
        g = _gate([2.0, 2.0, 2.0, 0.0], k_top=2, shared_idx=3)
        assert _chosen(g) == frozenset({0, 1, 3})

    def test_weights_zero_off_support(self):
        g = _gate([1.0, 2.0, 3.0, 4.0, 0.0], k_top=2, shared_idx=4)
        off = [i for i in range(5) if i not in _chosen(g)]
        assert all(g.weights.data[0, i] == 0.0 for i in off)

    def test_weights_hand_case(self):
        # selected logits 0, log 2, log 4 -> weights 1/7, 2/7, 4/7
        g = _gate([math.log(2), math.log(4), -50.0, 0.0], k_top=2,
                  shared_idx=3)
        assert _chosen(g) == frozenset({0, 1, 3})
        assert np.allclose(g.weights.data, [[2 / 7, 4 / 7, 0.0, 1 / 7]],
                           atol=1e-12)

    def test_support_size_exceeds_pool(self):
        with pytest.raises(ValueError):
            _gate([1.0, 2.0], k_top=2, shared_idx=1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=4, max_size=10),
           st.integers(1, 3))
    def test_invariants(self, logits, k_top):
        n = len(logits)
        if k_top + 1 > n:
            k_top = n - 1
        g = _gate(logits, k_top=k_top, shared_idx=n - 1)
        assert g.selected.sum() == k_top + 1
        assert g.selected[0, n - 1]
        assert abs(g.weights.data.sum() - 1.0) < 1e-12
        assert (g.weights.data >= 0.0).all()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-30, 30).map(lambda v: round(v, 1)),
                    min_size=3, max_size=10),
           st.integers(1, 3), st.data())
    def test_selection_and_weights_match_a_reference(self, logits, k_top,
                                                     data):
        # rounded logits make ties common; they go to the lowest index
        n = len(logits)
        k_top = min(k_top, n - 1)
        shared = data.draw(st.integers(0, n - 1))
        x = np.array(logits)
        rest = [i for i in np.lexsort((np.arange(n), -x)) if i != shared]
        selected = sorted(rest[:k_top] + [shared])
        e = np.zeros(n)
        e[selected] = np.exp(x[selected] - x[selected].max())
        g = _gate(logits, k_top=k_top, shared_idx=shared)
        assert np.flatnonzero(g.selected).tolist() == selected
        assert np.array_equal(g.weights.data[0], e / e.sum())


# rounded logits make ties common; -0.0 and 0.0 compare equal
_TIED = st.one_of(st.just(0.0), st.just(-0.0),
                  st.floats(-3, 3).map(lambda v: round(v, 1)))


@st.composite
def logit_stacks(draw):
    """A (B, n) logit stack with any valid k_top and shared index."""
    n = draw(st.integers(2, 10))
    b = draw(st.integers(1, 40))
    values = draw(st.lists(_TIED, min_size=b * n, max_size=b * n))
    return (np.array(values).reshape(b, n), draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)))


class TestStackedGate:
    @settings(max_examples=300, deadline=None)
    @given(logit_stacks())
    def test_select_equals_the_row_by_row_oracle(self, drawn):
        logits, k_top, shared = drawn
        chosen = _gate(logits, k_top, shared).selected
        assert chosen.dtype == bool and chosen.shape == logits.shape
        for row, mask in zip(logits, chosen):
            assert (frozenset(np.flatnonzero(mask).tolist())
                    == _oracle_select(row.tolist(), k_top, shared))

    @settings(max_examples=100, deadline=None)
    @given(logit_stacks())
    def test_a_stack_gates_as_its_rows_one_by_one(self, drawn):
        logits, k_top, shared = drawn
        g = _gate(logits, k_top, shared)
        assert g.selected.shape == g.weights.shape == logits.shape
        for b, row in enumerate(logits):
            one = _gate(row, k_top, shared)
            assert g.selected[b].tobytes() == one.selected.tobytes()
            assert g.weights.data[b].tobytes() == one.weights.data.tobytes()

    def test_zero_and_negative_zero_tie(self):
        # equal logits: the lower index wins whichever sign its zero has
        chosen = _gate([[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0]], 1, 2).selected
        assert chosen.tolist() == [[True, False, True], [True, False, True]]


def test_taped_gate_weights_pass_the_gradient_check():
    rng = np.random.default_rng(12)
    logits = ad.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    coef = ad.constant(rng.normal(size=(1, 6)))

    def loss_fn():
        return ad.sum_all(ad.mul(topk_s_select(logits, 2, 5).weights, coef))

    assert finite_diff_check(loss_fn, {"logits": logits}, eps=1e-6) < 1e-6
    g = topk_s_select(logits, 2, 5)
    assert g.weights.requires_grad
    grad = gradients(ad.sum_all(ad.mul(g.weights, coef)),
                     {"logits": logits})["logits"]
    assert (grad[~g.selected] == 0.0).all()
    assert (grad[g.selected] != 0.0).all()


def routed(module, x, task_id=0):
    """The gating result of the (1, d_in) input x under the task's router,
    through the router call `MoEModule.forward` makes."""
    logits = module.routers[task_id](ad.constant(x))
    return topk_s_select(logits, module.k_top, module.shared_idx)


@pytest.fixture
def append_module():
    rng = np.random.default_rng(0)
    m = MoEModule(d_in=6, d_out=6, n_experts=4, k_top=2, mode="append",
                  expert_hidden=5, rng=rng)
    m.add_task_router(0, rng)
    return m


@pytest.fixture
def replace_module():
    rng = np.random.default_rng(1)
    m = MoEModule(d_in=6, d_out=3, n_experts=4, k_top=1, mode="replace",
                  expert_hidden=5, rng=rng)
    m.add_task_router(0, rng)
    return m


class TestMoEModule:
    def test_append_is_identity_at_init(self, append_module):
        x = np.random.default_rng(2).normal(size=(1, 6))
        y, _ = append_module.forward(ad.constant(x), 0)
        assert np.array_equal(y.data, x)

    def test_replace_matches_manual_mixture(self, replace_module):
        x = np.random.default_rng(3).normal(size=(1, 6))
        g = routed(replace_module, x)
        manual = np.zeros((1, 3))
        for i in _chosen(g):
            manual += g.weights.data[0, i] * replace_module.experts[i](
                ad.constant(x)).data
        y, _ = replace_module.forward(ad.constant(x), 0)
        assert np.allclose(y.data, manual, atol=1e-12)

    def test_forward_weights_match_gate(self, replace_module):
        x = np.random.default_rng(4).normal(size=(1, 6))
        g = routed(replace_module, x)
        _, selected = replace_module.forward(ad.constant(x), 0)
        assert selected.tobytes() == g.selected.tobytes()
        assert selected.sum() == 2
        assert selected[0, replace_module.shared_idx]

    def test_unknown_task(self, append_module):
        with pytest.raises(UnknownTaskError):
            append_module.forward(ad.constant(np.zeros((1, 6))), 5)

    def test_duplicate_router(self, append_module):
        with pytest.raises(DuplicateTaskError):
            append_module.add_task_router(0, np.random.default_rng(0))

    def test_append_needs_square(self):
        with pytest.raises(ValueError):
            MoEModule(4, 5, 4, 2, "append", 3, np.random.default_rng(0))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            MoEModule(4, 4, 4, 2, "swap", 3, np.random.default_rng(0))

    def test_routers_are_task_specific(self, append_module):
        rng = np.random.default_rng(7)
        append_module.add_task_router(1, rng)
        x = ad.constant(rng.normal(size=(1, 6)))
        l0 = append_module.routers[0](x).data
        l1 = append_module.routers[1](x).data
        assert not np.allclose(l0, l1)

    def test_routing_stats_sane(self, append_module):
        rng = np.random.default_rng(8)
        with ad.no_grad():
            _, selected = append_module.forward(
                ad.constant(rng.normal(size=(40, 1, 6))), 0)
        stats = append_module.routing_stats(selected)
        assert stats[append_module.shared_idx] == 1.0
        assert abs(stats.sum() - 3.0) < 1e-12  # k_top + 1 picks per input
        with pytest.raises(ValueError):
            append_module.routing_stats(selected[:0])

    def test_gradient_flow_through_mixture(self, replace_module):
        x = ad.constant(np.random.default_rng(9).normal(size=(1, 6)))
        params = replace_module.parameters("moe")

        def loss_fn():
            return ad.sum_all(ad.square(replace_module.forward(x, 0)[0]))

        assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6

    def test_unselected_experts_get_zero_grad(self, replace_module):
        x = ad.constant(np.random.default_rng(10).normal(size=(1, 6)))
        out, selected = replace_module.forward(x, 0)
        loss = ad.sum_all(ad.square(out))
        params = replace_module.parameters("moe")
        grads = gradients(loss, params)
        for i in range(replace_module.n_experts):
            gnorm = sum(np.abs(grads[k]).sum() for k in grads
                        if f".expert{i}." in k)
            if selected[0, i]:
                assert gnorm > 0.0
            else:
                assert gnorm == 0.0


def test_selection_frequency_uniform_logit_inputs():
    """With i.i.d. router inputs each regular expert is picked ~k/(n-1)."""
    rng = np.random.default_rng(123)
    m = MoEModule(8, 8, 8, 2, "append", 4, rng)
    m.add_task_router(0, rng)
    n_calls = 2000
    with ad.no_grad():
        _, selected = m.forward(ad.constant(rng.normal(size=(n_calls, 1, 8))), 0)
    stats = m.routing_stats(selected)
    assert stats[7] == 1.0
    p = 2.0 / 7.0
    sigma = math.sqrt(p * (1 - p) / n_calls)
    # random router weights skew per-expert rates, so allow a loose band
    assert (stats[:7] > 0.01).all() and (stats[:7] < 0.9).all()
    assert abs(stats[:7].mean() - p) < 1e-12  # exactly 2 of 7 per call
    assert sigma > 0.0


def _perturbed(module, rng):
    """Every parameter moved off its seeded value, so that append-mode
    experts contribute too."""
    for p in module.parameters("moe").values():
        p.data = p.data + rng.normal(scale=0.5, size=p.data.shape)
    return module


@st.composite
def moe_stacks(draw):
    """A perturbed module of either mode, n_experts 2-8 and any k_top, and a
    (B, 1, d) stack of repeated rows. Some router columns may copy another,
    so a row's logits tie; repeated rows make groups that cover every row."""
    n = draw(st.integers(2, 8))
    mode = draw(st.sampled_from(["append", "replace"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = MoEModule(5, 5 if mode == "append" else 3, n, draw(st.integers(0, n - 1)),
                  mode, 4, rng)
    m.add_task_router(0, rng)
    _perturbed(m, rng)
    router = m.routers[0]
    ties = draw(st.lists(st.integers(0, n - 1), max_size=n))
    router.w.data[:, ties] = router.w.data[:, :1]
    router.b.data[:, ties] = router.b.data[:, :1]
    distinct = rng.normal(size=(draw(st.integers(1, 40)), 1, 5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=1, max_size=40))
    return m, distinct[picks]


@settings(max_examples=200, deadline=None)
@given(moe_stacks())
def test_a_stack_mixes_each_row_as_that_row_alone(drawn):
    m, x = drawn
    with ad.no_grad():
        stacked, selected = m.forward(ad.constant(x), 0)
        own = [m.forward(ad.constant(row), 0) for row in x]
    assert stacked.shape == (len(x), 1, m.d_out)
    assert stacked.data.tobytes() == np.stack([o.data for o, _ in own]).tobytes()
    assert selected.shape == (len(x), 1, m.n_experts)
    assert selected.tobytes() == np.stack([s for _, s in own]).tobytes()


def _op(node) -> str:
    """The primitive that made a taped node."""
    return node._backward.__qualname__.split(".")[0]


@pytest.mark.parametrize("mode", ["append", "replace"])
@pytest.mark.parametrize("k_top", [0, 1, 3])
def test_one_row_tapes_exactly_the_mixture_nodes(mode, k_top):
    rng = np.random.default_rng(11)
    m = MoEModule(6, 6 if mode == "append" else 3, 4, k_top, mode, 5, rng)
    m.add_task_router(0, rng)
    _perturbed(m, rng)
    x = ad.constant(rng.normal(size=(1, 6)))
    out, selected = m.forward(x, 0)
    k = k_top + 1
    assert Counter(_op(node) for node in ad._topo(out) if node._parents) == {
        "linear": 1 + 2 * k, "add": 1 + k_top + (mode == "append"),
        "softmax": 1, "col": k, "mul": k, "relu": k}
    # mix = ((term_0 + term_1) + term_2)..., terms in ascending expert order
    mix = out._parents[1] if mode == "append" else out
    terms = []
    while _op(mix) == "add":
        mix, term = mix._parents
        terms.append(term)
    terms = [mix] + terms[::-1]
    assert [_op(t) for t in terms] == ["mul"] * k
    assert [t._parents[1].data.tobytes() for t in terms] == [
        m.experts[i](x).data.tobytes() for i in np.flatnonzero(selected)]
