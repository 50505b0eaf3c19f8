import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstream import autodiff as ad
from tests.helpers import finite_diff_check, gradients


def naive_matmul(x, w):
    n, k = x.shape
    _, m = w.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += x[i, l] * w[l, j]
    return out


class TestLinear:
    def test_zero_input_yields_bias(self):
        x = ad.constant(np.zeros((1, 3)))
        w = ad.constant(np.random.default_rng(0).normal(size=(3, 2)))
        b = ad.constant([[1.0, 2.0]])
        assert np.array_equal(ad.linear(x, w, b).data, [[1.0, 2.0]])

    def test_identity_weights(self):
        y = ad.linear(ad.constant([[4.0, 5.0]]), ad.constant(np.eye(2)),
                      ad.constant(np.zeros((1, 2))))
        assert np.array_equal(y.data, [[4.0, 5.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=(1, 3))
        y = ad.linear(ad.constant(x), ad.constant(w), ad.constant(b))
        assert np.allclose(y.data, naive_matmul(x, w) + b, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant(0.0)).item() == 0.5

    def test_relu_clamps_negative(self):
        assert ad.relu(ad.constant(-3.0)).item() == 0.0

    def test_log_domain_error(self):
        with pytest.raises(ad.DomainError):
            ad.log(ad.constant([-1.0, 2.0]))

    def test_broadcast_bias_add(self):
        a = ad.constant(np.ones((3, 2)))
        b = ad.constant([[1.0, 2.0]])
        assert np.array_equal(ad.add(a, b).data, [[2, 3]] * 3)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(ad.constant([[0.0, 0.0, 0.0]])).data
        assert np.allclose(out, 1 / 3, atol=1e-15)

    def test_full_mask_collapse(self):
        out = ad.softmax(ad.constant([[2.5, -math.inf]])).data
        assert np.array_equal(out, [[1.0, 0.0]])

    def test_direct_evaluation(self):
        out = ad.softmax(ad.constant([[3.0, 0.0]])).data
        expected = math.exp(3) / (math.exp(3) + 1)
        assert abs(out[0, 0] - expected) < 1e-5
        assert abs(out[0, 0] - 0.95257) < 1e-5

    def test_all_masked_raises(self):
        with pytest.raises(ad.EmptySupportError):
            ad.softmax(ad.constant([[-math.inf, -math.inf]]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=9))
    def test_probability_vector(self, vals):
        out = ad.softmax(ad.constant([vals])).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    def test_unmasked_input_matches_the_masked_path(self, vals, upstream):
        # an appended masked column leaves the other entries' values and
        # gradients unchanged, bit for bit
        n = len(vals)
        x = ad.Tensor([vals], requires_grad=True)
        xm = ad.Tensor([vals + [-math.inf]], requires_grad=True)
        out, outm = ad.softmax(x), ad.softmax(xm)
        assert np.array_equal(out.data, outm.data[:, :n])
        assert outm.data[0, n] == 0.0
        g = np.array([upstream[:n]])
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        ad.backward(ad.sum_all(ad.mul(outm, ad.constant(np.append(g, 0.0)))))
        assert np.array_equal(x.grad, xm.grad[:, :n]) and xm.grad[0, n] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_only_minus_inf_masks(self, bad):
        # a NaN or +inf is not a mask: the row turns NaN, so a NaN input
        # reaches the loss instead of being dropped from the attention
        with np.errstate(invalid="ignore"):
            out = ad.softmax(ad.constant([[1.0, bad, -math.inf]])).data
        assert np.isnan(out[0, :2]).any()


class TestBackward:
    def test_linear_gradient_replicates_input(self):
        x = np.array([[1.0, 2.0, 3.0]])
        w = ad.Tensor(np.random.default_rng(1).normal(size=(3, 2)),
                      requires_grad=True)
        loss = ad.sum_all(ad.matmul(ad.constant(x), w))
        grads = gradients(loss, {"w": w})
        assert np.allclose(grads["w"], np.repeat(x.T, 2, axis=1), atol=1e-14)

    def test_disconnected_parameter_zero_grad(self):
        p = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        q = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = ad.sum_all(ad.square(p))
        grads = gradients(loss, {"p": p, "q": q})
        assert np.array_equal(grads["q"], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        p = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.square(p))

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = {
            "w1": ad.Tensor(rng.normal(size=(4, 5)) * 0.5, requires_grad=True),
            "b1": ad.Tensor(rng.normal(size=(1, 5)) * 0.1, requires_grad=True),
            "w2": ad.Tensor(rng.normal(size=(5, 2)) * 0.5, requires_grad=True),
            "b2": ad.Tensor(rng.normal(size=(1, 2)) * 0.1, requires_grad=True),
        }
        x = ad.constant(rng.normal(size=(3, 4)))

        def loss_fn():
            h = ad.tanh(ad.linear(x, params["w1"], params["b1"]))
            y = ad.sigmoid(ad.linear(h, params["w2"], params["b2"]))
            return ad.sum_all(ad.square(y))

        assert finite_diff_check(loss_fn, params, eps=1e-5) < 1e-6


class TestFiniteDiffCheck:
    def test_quadratic(self):
        w = ad.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
        err = finite_diff_check(lambda: ad.sum_all(ad.square(w)), {"w": w},
                                eps=1e-5)
        assert err < 1e-8

    def test_constant_loss(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        err = finite_diff_check(lambda: ad.constant(5.0), {"w": w}, eps=1e-5)
        assert err == 0.0

    def test_eps_must_be_positive(self):
        w = ad.Tensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(ad.DomainError):
            finite_diff_check(lambda: ad.sum_all(w), {"w": w}, eps=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.uniform(0.2, 2.0, size=(2, 3)), requires_grad=True)
    y = ad.Tensor(rng.uniform(-1.0, 1.0, size=(2, 3)), requires_grad=True)
    params = {"x": x, "y": y}

    def loss_fn():
        t = ad.mul(ad.tanh(x), ad.sigmoid(y))
        t = ad.add(t, ad.sigmoid(ad.scale(y, 0.3)))
        t = ad.sub(t, ad.square(ad.log(x)))
        u = ad.softmax(ad.concat_cols(t, ad.relu(y)))
        return ad.mean_all(ad.square(u))

    assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6


def test_forward_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 4))

    def run():
        return ad.softmax(ad.matmul(ad.constant(x), ad.constant(w))).data

    assert np.array_equal(run(), run())


def test_structured_ops_gradients():
    rng = np.random.default_rng(5)
    v = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    m = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    params = {"v": v, "m": m}

    def loss_fn():
        t = ad.concat_rows([ad.tile_rows(v, 2), m])
        pooled = ad.mean_rows(t)
        s = ad.transpose(ad.col(pooled, 1))
        return ad.sum_all(ad.mul(ad.square(pooled), ad.tile_rows(ad.transpose(s), 1)))

    assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6



def _grads_of(build, tensors):
    ad.backward(ad.sum_all(ad.square(build())))
    return [t.grad.copy() for t in tensors]


class TestFusedLinear:
    """linear is one tape node with the values and gradients of
    add(matmul(x, w), b), bit for bit."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.x = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        self.w = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        self.b = ad.Tensor(rng.normal(size=(1, 6)), requires_grad=True)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_matches_matmul_then_add(self, rows):
        x, w, b = ad.Tensor(self.x.data[:rows], requires_grad=True), self.w, self.b
        fused = ad.linear(x, w, b)
        plain = ad.add(ad.matmul(x, w), b)
        assert np.array_equal(fused.data, plain.data)
        assert fused._parents == (x, w, b)
        grads = _grads_of(lambda: ad.linear(x, w, b), (x, w, b))
        ref = _grads_of(lambda: ad.add(ad.matmul(x, w), b), (x, w, b))
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref))

    def test_shape_errors_name_the_replaced_primitive(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.linear(self.x, ad.constant(np.ones((6, 2))), self.b)
        with pytest.raises(ad.ShapeError, match="add"):
            ad.linear(self.x, self.w, ad.constant(np.ones((1, 2))))

    def test_constants_get_no_gradient(self):
        c = ad.constant(self.x.data)
        ad.backward(ad.sum_all(ad.linear(c, self.w, self.b)))
        assert c.grad is None and self.w.grad is not None


class TestNoGrad:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.x = ad.constant(rng.normal(size=(3, 4)))
        self.w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        self.b = ad.Tensor(rng.normal(size=(1, 2)), requires_grad=True)

    def forward(self):
        return ad.softmax(ad.tanh(ad.linear(self.x, self.w, self.b)))

    def test_same_values_and_no_tape(self):
        taped = self.forward()
        with ad.no_grad():
            free = self.forward()
        assert np.array_equal(free.data, taped.data)
        assert taped.requires_grad and taped._parents
        assert not free.requires_grad
        assert free._parents == () and free._backward is None

    def test_nesting_restores_the_outer_state(self):
        with ad.no_grad():
            with ad.no_grad():
                assert not self.forward().requires_grad
            assert not self.forward().requires_grad
        assert self.forward().requires_grad

    def test_an_exception_restores_recording(self):
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        loss = ad.sum_all(self.forward())
        assert loss.requires_grad
        ad.backward(loss)
        assert self.w.grad is not None

    def test_backward_inside_raises_a_typed_error(self):
        loss = ad.sum_all(ad.square(self.forward()))  # recorded outside
        with ad.no_grad():
            with pytest.raises(ad.NoGradError, match="no_grad"):
                ad.backward(loss)
        assert self.w.grad is None
        assert issubclass(ad.NoGradError, ValueError)

    def test_finite_diff_probes_leave_recording_on(self):
        params = {"w": self.w, "b": self.b}
        err = finite_diff_check(
            lambda: ad.sum_all(ad.square(self.forward())), params, eps=1e-6)
        assert err < 1e-6
        assert self.forward().requires_grad
