import re

import numpy as np
import pytest

from survstream import autodiff as ad
from survstream.data import CaseRecord, N_GENOMIC_GROUPS, padded_groups
from survstream.model import ModelConfig, SurvivalModel
from survstream.moe import DuplicateTaskError, UnknownTaskError
from tests.helpers import finite_diff_check, gradients

TINY = ModelConfig(d_patch=5, genomic_width=7, latent=8, hidden=10,
                   attn_dim=4, n_bins=4, n_experts=4, k_top=1)


def make_case(rng, n_patches=3, d_patch=5, cid="c0",
              group_dims=(7, 5, 3, 6, 2, 4)):
    return CaseRecord(
        case_id=cid,
        patches=rng.normal(size=(n_patches, d_patch)),
        groups=tuple(rng.normal(size=k) for k in group_dims),
        time=float(rng.exponential(5.0)),
        censored=0,
        label=int(rng.integers(0, 4)),
    )


@pytest.fixture
def model():
    rng = np.random.default_rng(0)
    m = SurvivalModel(TINY, rng)
    m.add_task(0, rng)
    return m


class TestCaseRecord:
    def test_rejects_empty_bag(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_case(rng, n_patches=0)

    def test_rejects_wrong_group_count(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            CaseRecord("x", rng.normal(size=(2, 5)),
                       tuple(rng.normal(size=3) for _ in range(4)),
                       1.0, 0)

    def test_padding_layout(self):
        rng = np.random.default_rng(1)
        case = make_case(rng, group_dims=(3, 1, 2, 3, 3, 3))
        mat = padded_groups(case, 4)
        assert mat.shape == (N_GENOMIC_GROUPS, 4)
        assert np.array_equal(mat[1, 1:], np.zeros(3))
        assert np.array_equal(mat[0, :3], case.groups[0])

    def test_padding_too_narrow(self):
        rng = np.random.default_rng(1)
        case = make_case(rng)
        with pytest.raises(ValueError):
            padded_groups(case, 3)


class TestForward:
    def test_shapes(self, model):
        case = make_case(np.random.default_rng(2))
        hazards, f_p, f_g, f_f, selected = model.forward(case, 0)
        assert hazards.shape == (1, TINY.n_bins)
        assert f_p.shape == f_g.shape == f_f.shape == (1, TINY.latent)
        assert [s.shape for s in selected] == [(1, TINY.n_experts)] * 3

    def test_hazards_in_unit_interval(self, model):
        rng = np.random.default_rng(3)
        for _ in range(5):
            hazards, *_ = model.forward(make_case(rng), 0)
            assert (hazards.data > 0).all() and (hazards.data < 1).all()

    def test_deterministic(self, model):
        case = make_case(np.random.default_rng(4))
        a = model.forward(case, 0)[0].data
        b = model.forward(case, 0)[0].data
        assert np.array_equal(a, b)

    def test_bag_size_invariance_of_shapes(self, model):
        rng = np.random.default_rng(5)
        for n in (1, 2, 9):
            hazards, *_ = model.forward(make_case(rng, n_patches=n), 0)
            assert hazards.shape == (1, TINY.n_bins)

    def test_patch_order_sensitive_features_same_pool(self, model):
        # attention pooling is permutation invariant over the bag
        rng = np.random.default_rng(6)
        case = make_case(rng, n_patches=4)
        shuffled = CaseRecord(case.case_id, case.patches[::-1].copy(),
                              case.groups, case.time, case.censored,
                              label=case.label)
        a = model.forward(case, 0)[0].data
        b = model.forward(shuffled, 0)[0].data
        assert np.allclose(a, b, atol=1e-12)

    def test_unknown_task(self, model):
        with pytest.raises(UnknownTaskError):
            model.forward(make_case(np.random.default_rng(7)), 3)

    def test_genomics_influence_patch_branch(self, model):
        # patch encoder attention is conditioned on the genomic summary
        rng = np.random.default_rng(8)
        case = make_case(rng, n_patches=4)
        altered = CaseRecord(case.case_id, case.patches,
                             tuple(g + 1.0 for g in case.groups),
                             case.time, case.censored, label=case.label)
        f_a = model.forward(case, 0)[1].data
        f_b = model.forward(altered, 0)[1].data
        assert not np.allclose(f_a, f_b)

    def test_no_grad_forward_equals_the_taped_forward(self, model):
        rng = np.random.default_rng(9)
        # random weights everywhere, so the append sites are not the identity
        model.set_state({k: rng.normal(size=v.shape) * 0.5
                         for k, v in model.get_state().items()})
        for n in (1, 4, 9):
            case = make_case(rng, n_patches=n)
            taped = model.forward(case, 0)
            with ad.no_grad():
                free = model.forward(case, 0)
            for t, f in zip(taped[:4], free[:4]):
                assert np.array_equal(f.data, t.data)
                assert t.requires_grad and not f.requires_grad
            assert all(np.array_equal(t, f) for t, f in zip(taped[4], free[4]))
            triple = model.feature_triple(case, 0)
            assert all(np.array_equal(a, t.data)
                       for a, t in zip(triple, taped[1:]))


class TestTasks:
    def test_add_task_registers_everything(self, model):
        rng = np.random.default_rng(9)
        model.add_task(1, rng)
        assert model.task_ids == [0, 1]
        assert 1 in model.moe_patch.routers
        assert 1 in model.moe_gen.routers
        assert 1 in model.moe_fuse.routers

    def test_duplicate_task(self, model):
        with pytest.raises(DuplicateTaskError):
            model.add_task(0, np.random.default_rng(0))

    def test_per_task_heads_differ(self, model):
        rng = np.random.default_rng(10)
        model.add_task(1, rng)
        case = make_case(rng)
        h0 = model.forward(case, 0)[0].data
        h1 = model.forward(case, 1)[0].data
        assert not np.allclose(h0, h1)

    def test_trainable_excludes_other_tasks(self, model):
        rng = np.random.default_rng(11)
        model.add_task(1, rng)
        names = set(model.trainable_parameters(0))
        assert any(".router0." in n for n in names)
        assert not any(".router1." in n for n in names)
        assert any(n.startswith("head0") for n in names)
        assert not any(n.startswith("head1") for n in names)
        # all experts and trunk weights stay trainable
        assert any(".expert" in n for n in names)
        assert any(n.startswith("patch_embed") for n in names)


class TestGradients:
    def test_full_model_finite_differences(self, model):
        case = make_case(np.random.default_rng(12), n_patches=2)
        params = model.trainable_parameters(0)

        def loss_fn():
            hazards, *_ = model.forward(case, 0)
            return ad.mean_all(ad.square(hazards))

        assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-6

    def test_frozen_router_gets_no_gradient(self, model):
        rng = np.random.default_rng(13)
        model.add_task(1, rng)
        case = make_case(rng)
        hazards, *_ = model.forward(case, 0)
        loss = ad.mean_all(ad.square(hazards))
        grads = gradients(loss, model.parameters())
        for name, g in grads.items():
            if ".router1." in name or name.startswith("head1"):
                assert np.abs(g).sum() == 0.0


class TestState:
    def test_round_trip(self, model):
        case = make_case(np.random.default_rng(14))
        before = model.forward(case, 0)[0].data
        state = model.get_state()
        for p in model.parameters().values():
            p.data = p.data + 0.1
        model.set_state(state)
        after = model.forward(case, 0)[0].data
        assert np.array_equal(before, after)

    def test_state_copy_is_detached(self, model):
        state = model.get_state()
        key = next(iter(state))
        state[key] += 5.0
        assert not np.array_equal(state[key], model.parameters()[key].data)

    def test_mismatched_state_rejected(self, model):
        state = model.get_state()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError):
            model.set_state(state)

    def test_misshapen_parameter_rejected_before_any_is_set(self, model):
        before = model.get_state()
        state = model.get_state()
        state["patch_embed.fc1.w"] = state["patch_embed.fc1.w"][:1]
        shape = before["patch_embed.fc1.w"].shape
        with pytest.raises(ValueError, match=r"patch_embed\.fc1\.w.*\(1, "
                           + str(shape[1]) + r"\).*" + re.escape(str(shape))):
            model.set_state(state)
        after = model.get_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)
