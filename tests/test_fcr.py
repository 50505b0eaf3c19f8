import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstream import autodiff as ad
from survstream.bagio import CorruptFileError
from survstream.fcr import ReplayBuffer, ReplayItem, replay_loss, total_loss
from survstream.model import SurvivalModel
from tests.helpers import feature_constraint_loss, finite_diff_check, spoil
from tests.test_backbone import TINY, make_case


def make_item(rng, task_id=0, d=8, cid="c0"):
    case = make_case(rng, cid=cid)
    return ReplayItem(case, task_id,
                      rng.normal(size=(1, d)), rng.normal(size=(1, d)),
                      rng.normal(size=(1, d)))


class TestReservoir:
    def test_fill_phase_keeps_everything(self):
        rng = np.random.default_rng(0)
        buf = ReplayBuffer(8)
        items = [make_item(rng, cid=f"c{i}") for i in range(8)]
        for it in items:
            buf.reservoir_update(it, rng)
        assert [it.case.case_id for it in buf.items] == [f"c{i}" for i in range(8)]

    def test_update_returns_the_slot_taken(self):
        rng = np.random.default_rng(2)
        buf = ReplayBuffer(3)
        kept = 0
        for i in range(40):
            it = make_item(rng, cid=f"c{i}")
            slot = buf.reservoir_update(it, rng)
            if i < 3:
                assert slot == i
            if slot is None:
                assert all(x is not it for x in buf.items)
            else:
                assert buf.items[slot] is it
                kept += 1
        assert 3 < kept < 40

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(1)
        buf = ReplayBuffer(4)
        for i in range(50):
            buf.reservoir_update(make_item(rng, cid=f"c{i}"), rng)
            assert len(buf) <= 4
        assert buf.seen_count == 50

    def test_inclusion_probability_uniform(self):
        # every stream position should land in the reservoir with
        # probability m/n; check each position across trials within 5 sigma
        # (80 positions are checked at once, so leave headroom for the
        # expected extremes)
        m, n, trials = 8, 80, 800
        hits = np.zeros(n)
        rng = np.random.default_rng(2)
        tiny = np.zeros((1, 1))
        case = make_case(np.random.default_rng(0))
        for _ in range(trials):
            buf = ReplayBuffer(m)
            for i in range(n):
                buf.reservoir_update(
                    ReplayItem(case, i, tiny, tiny, tiny), rng)
            for it in buf.items:
                hits[it.task_id] += 1
        p = m / n
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits.sum() - m * trials) == 0  # exactly m kept per trial
        assert (np.abs(hits / trials - p) < 5 * sigma).all()

    def test_sample_with_replacement(self):
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(4)
        for i in range(4):
            buf.reservoir_update(make_item(rng, cid=f"c{i}"), rng)
        batch = buf.sample_replay(50, rng)
        assert len(batch) == 50
        assert {b.case.case_id for b in batch} <= {f"c{i}" for i in range(4)}

    def test_empty_sample(self):
        buf = ReplayBuffer(4)
        assert buf.sample_replay(3, np.random.default_rng(0)) == []

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 40), st.integers(0, 2 ** 31 - 1))
    def test_size_invariant(self, capacity, n_items, seed):
        rng = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity)
        case = make_case(np.random.default_rng(0))
        tiny = np.zeros((1, 1))
        for i in range(n_items):
            buf.reservoir_update(ReplayItem(case, i, tiny, tiny, tiny), rng)
        assert len(buf) == min(capacity, n_items)
        assert buf.seen_count == n_items


def _saved_buffer(tmp_path, n_items=2):
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(n_items)
    for i in range(n_items):
        it = make_item(rng, task_id=i, cid=f"case_{i}")
        if i % 2:
            it.logits = rng.normal(size=(1, 4))
        buf.reservoir_update(it, rng)
    path = tmp_path / "buffer.npz"
    buf.save(path)
    return buf, path


def _item_fields(it):
    c = it.case
    arrays = (c.patches, *c.groups, it.f_patch, it.f_genomic, it.f_fused)
    logits = None if it.logits is None else (it.logits.dtype, it.logits.shape,
                                             it.logits.tobytes())
    return (c.case_id, it.task_id, c.time, type(c.time), c.censored,
            type(c.censored), c.label, type(c.label),
            [(a.dtype, a.shape, a.tobytes()) for a in arrays], logits)


def _buffer_fields(buf):
    return (buf.capacity, buf.seen_count, [_item_fields(it) for it in buf.items])


class TestBufferSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        buf = ReplayBuffer(6)
        for i in range(9):
            it = make_item(rng, task_id=i % 3, cid=f"case_{i}")
            if i % 2:
                it.logits = rng.normal(size=(1, 4))
            buf.reservoir_update(it, rng)
        path = tmp_path / "buf.npz"
        buf.save(path)
        back = ReplayBuffer.load(path)
        assert back.capacity == buf.capacity
        assert back.seen_count == buf.seen_count
        assert len(back) == len(buf)
        for a, b in zip(buf.items, back.items):
            assert a.case.case_id == b.case.case_id
            assert a.task_id == b.task_id
            assert a.case.time == b.case.time
            assert a.case.censored == b.case.censored
            assert a.case.label == b.case.label
            assert np.array_equal(a.case.patches, b.case.patches)
            for ga, gb in zip(a.case.groups, b.case.groups):
                assert np.array_equal(ga, gb)
            assert np.array_equal(a.f_patch, b.f_patch)
            assert np.array_equal(a.f_genomic, b.f_genomic)
            assert np.array_equal(a.f_fused, b.f_fused)
            if a.logits is None:
                assert b.logits is None
            else:
                assert np.array_equal(a.logits, b.logits)
        # dtypes, shapes and Python scalar types survive as well
        assert _buffer_fields(back) == _buffer_fields(buf)

    def test_empty_buffer_round_trip(self, tmp_path):
        buf = ReplayBuffer(3)
        buf.save(tmp_path / "empty.npz")
        back = ReplayBuffer.load(tmp_path / "empty.npz")
        assert (back.capacity, back.seen_count, back.items) == (3, 0, [])

    def test_saves_at_the_given_path(self, tmp_path):
        ReplayBuffer(1).save(tmp_path / "buffer")  # numpy would add ".npz"
        assert [p.name for p in tmp_path.iterdir()] == ["buffer"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CorruptFileError):
            ReplayBuffer.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayBuffer.load(tmp_path / "absent.npz")

    def test_every_truncation_is_a_corrupt_file(self, tmp_path):
        _, path = _saved_buffer(tmp_path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.npz"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CorruptFileError):
                ReplayBuffer.load(cut)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7))
    def test_a_flipped_bit_is_caught_or_harmless(self, tmp_path_factory,
                                                 where, bit):
        tmp = tmp_path_factory.mktemp("flip")
        buf, path = _saved_buffer(tmp)
        blob = bytearray(path.read_bytes())
        blob[int(where * len(blob))] ^= 1 << bit
        path.write_bytes(bytes(blob))
        try:
            back = ReplayBuffer.load(path)
        except CorruptFileError:
            return
        assert _buffer_fields(back) == _buffer_fields(buf)

    @pytest.mark.parametrize("n_items", [0, 1, 40])
    def test_member_count_does_not_grow_with_the_items(self, tmp_path, n_items):
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(max(n_items, 1))
        for i in range(n_items):
            buf.reservoir_update(make_item(rng, cid=f"case_{i}"), rng)
        buf.save(tmp_path / "buf.npz")
        with zipfile.ZipFile(tmp_path / "buf.npz") as zf:
            assert len(zf.namelist()) == 16

    def test_items_of_two_group_layouts_round_trip(self, tmp_path):
        # a buffer spans tasks, and each task may have its own group widths
        rng = np.random.default_rng(6)
        buf = ReplayBuffer(8)
        for i in range(7):
            it = make_item(rng, task_id=i % 2, cid=f"case_{i}")
            if i % 2:
                it.case = make_case(rng, n_patches=2 + i, cid=f"case_{i}",
                                    group_dims=(1, 9, 2, 2, 5, 3))
            if i % 3:
                it.logits = rng.normal(size=(1, 4))
            buf.reservoir_update(it, rng)
        buf.save(tmp_path / "buf.npz")
        back = ReplayBuffer.load(tmp_path / "buf.npz")
        assert _buffer_fields(back) == _buffer_fields(buf)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("member, what", [("patches", "patch"),
                                              ("groups", "genomic")])
    def test_a_non_finite_feature_names_its_case(self, tmp_path, member, what,
                                                 value):
        buf, path = _saved_buffer(tmp_path, n_items=3)
        spoil(buf.items[1].case, member, value)
        buf.save(path)
        with pytest.raises(CorruptFileError) as caught:
            ReplayBuffer.load(path)
        assert str(caught.value) == (
            f"{path}: unreadable replay buffer (ValueError: case 'case_1': "
            f"a {what} value is not finite)")

    @pytest.mark.parametrize("member, value", [
        ("f_patch", math.nan), ("f_genomic", math.inf),
        ("f_fused", -math.inf), ("logits", math.inf)])
    def test_a_non_finite_frozen_value_is_a_corrupt_file(self, tmp_path,
                                                         member, value):
        buf, path = _saved_buffer(tmp_path, n_items=3)
        getattr(buf.items[1], member)[0, 0] = value  # item 1 has logits
        buf.save(path)
        with pytest.raises(CorruptFileError) as caught:
            ReplayBuffer.load(path)
        assert str(caught.value) == (
            f"{path}: unreadable replay buffer (ValueError: {member} holds "
            f"NaN or inf)")

    def test_an_old_layout_buffer_is_a_corrupt_file(self, tmp_path):
        # one member per item array under `i/<name>`
        buf, _ = _saved_buffer(tmp_path)
        arrays = {"capacity": np.int64(buf.capacity),
                  "seen_count": np.int64(buf.seen_count),
                  "case_id": np.array([it.case.case_id for it in buf.items]),
                  "task_id": np.array([it.task_id for it in buf.items]),
                  "time": np.array([it.case.time for it in buf.items]),
                  "censored": np.array([it.case.censored for it in buf.items]),
                  "label": np.array([it.case.label for it in buf.items]),
                  "has_logits": np.array([it.logits is not None
                                          for it in buf.items])}
        for i, it in enumerate(buf.items):
            arrays[f"{i}/patches"] = it.case.patches
            arrays.update((f"{i}/group{j}", g)
                          for j, g in enumerate(it.case.groups))
            arrays.update({f"{i}/f_patch": it.f_patch,
                           f"{i}/f_genomic": it.f_genomic,
                           f"{i}/f_fused": it.f_fused})
            if it.logits is not None:
                arrays[f"{i}/logits"] = it.logits
        with open(tmp_path / "old.npz", "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CorruptFileError, match="replay buffer"):
            ReplayBuffer.load(tmp_path / "old.npz")

    @pytest.mark.parametrize("method", [1, 8, 12, 99])
    def test_unknown_compression_method_is_a_corrupt_file(self, tmp_path,
                                                          method):
        _, path = _saved_buffer(tmp_path)
        blob = bytearray(path.read_bytes())
        # central-directory record of the first member: the method field
        # sits 10 bytes into the record
        at = blob.index(b"PK\x01\x02") + 10
        blob[at:at + 2] = method.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError):
            ReplayBuffer.load(path)


class TestLosses:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(5)
        m = SurvivalModel(TINY, rng)
        m.add_task(0, rng)
        return m

    def test_zero_drift_at_insertion(self, model):
        rng = np.random.default_rng(6)
        case = make_case(rng)
        f_p, f_g, f_f = model.feature_triple(case, 0)
        item = ReplayItem(case, 0, f_p, f_g, f_f)
        loss = feature_constraint_loss(model, [item])
        assert abs(loss.item()) < 1e-24

    def test_drift_grows_with_perturbation(self, model):
        rng = np.random.default_rng(7)
        case = make_case(rng)
        f_p, f_g, f_f = model.feature_triple(case, 0)
        item = ReplayItem(case, 0, f_p, f_g, f_f)
        for p in model.parameters().values():
            p.data = p.data + 0.05
        assert feature_constraint_loss(model, [item]).item() > 0.0

    def test_feature_loss_hand_value(self, model):
        # freeze features, then shift them by known offsets so the loss is
        # the mean over items of the summed squared offsets
        rng = np.random.default_rng(8)
        case = make_case(rng)
        f_p, f_g, f_f = model.feature_triple(case, 0)
        d = TINY.latent
        item = ReplayItem(case, 0, f_p + 0.1, f_g - 0.2, f_f + 0.3)
        loss = feature_constraint_loss(model, [item])
        expected = d * (0.1 ** 2 + 0.2 ** 2 + 0.3 ** 2)
        assert abs(loss.item() - expected) < 1e-10

    def test_replay_loss_is_mean_nll(self, model):
        from survstream.survival import nll_survival_loss
        rng = np.random.default_rng(9)
        items = []
        singles = []
        for i in range(3):
            case = make_case(rng, cid=f"c{i}")
            f_p, f_g, f_f = model.feature_triple(case, 0)
            items.append(ReplayItem(case, 0, f_p, f_g, f_f))
            hazards, *_ = model.forward(case, 0)
            singles.append(nll_survival_loss(hazards, case.label,
                                             case.censored).item())
        loss = replay_loss(model, items)
        assert abs(loss.item() - np.mean(singles)) < 1e-12

    def test_empty_batches_zero(self, model):
        assert feature_constraint_loss(model, []).item() == 0.0
        assert replay_loss(model, []).item() == 0.0

    def test_total_loss_arithmetic(self):
        out = total_loss(ad.constant(3.0), ad.constant(4.0),
                         ad.constant(0.5), 0.25, 2.0)
        assert out.item() == 3.0 + 0.25 * 4.0 + 2.0 * 0.5

    def test_gradients_flow_into_current_model_only(self, model):
        rng = np.random.default_rng(10)
        case = make_case(rng)
        f_p, f_g, f_f = model.feature_triple(case, 0)
        item = ReplayItem(case, 0, f_p + 1.0, f_g, f_f)
        params = model.trainable_parameters(0)

        def loss_fn():
            return feature_constraint_loss(model, [item])

        assert finite_diff_check(loss_fn, params, eps=1e-6) < 1e-5
