import csv
import json
import math
import os
import subprocess
import sys
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survstream
from survstream import cli
from survstream.bagio import (CorruptFileError, DimensionMismatchError,
                              ingest_stream, ingest_task, read_npz,
                              read_task_file, save_stream, write_task_file)
from survstream.checkpoint import CheckpointMismatchError, load_model, save_model
from survstream.cli import (_RUN_KEYS, ConfigError, _scoring_inputs,
                            build_parser, load_config, main, run_experiment)
from survstream.data import TaskStream
from survstream.estimator import ContinualSurvivalEstimator, NotFittedError
from survstream.fcr import ReplayBuffer
from survstream.harness import MethodConfig, build_model
from survstream.model import SurvivalModel
from survstream.survival import UndefinedMetricError
from survstream.synthdata import GeneratorConfig, generate_stream, split_folds
from tests.helpers import spoil, streams_equal

GEN = GeneratorConfig(n_tasks=2, cases_per_task=60, n_patches=(3, 6),
                      d_patch=8, group_dims=(5, 4, 3, 6, 2, 4), seed=0)
TINY_KW = dict(latent=8, hidden=10, n_experts=4, k_top=1)


@pytest.fixture(scope="module")
def stream():
    return generate_stream(GEN)


class TestBagIO:
    def test_task_file_round_trip(self, stream, tmp_path):
        path = tmp_path / "t.npz"
        cases = stream.tasks[0].cases
        write_task_file(path, cases)
        back = read_task_file(path)
        assert len(back) == len(cases)
        for a, b in zip(cases, back):
            assert a.case_id == b.case_id
            assert a.time == b.time
            assert a.censored == b.censored
            assert np.array_equal(a.patches, b.patches)
            for ga, gb in zip(a.groups, b.groups):
                assert np.array_equal(ga, gb)

    def test_stream_round_trip_lossless(self, stream, tmp_path):
        save_stream(stream, tmp_path / "s")
        back = ingest_stream(tmp_path / "s", n_bins=GEN.n_bins)
        assert streams_equal(stream, back)
        assert back.genomic_width == stream.genomic_width

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_truncated_file(self, stream, tmp_path):
        path = tmp_path / "t.npz"
        write_task_file(path, stream.tasks[0].cases)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_trailing_bytes(self, stream, tmp_path):
        path = tmp_path / "t.npz"
        write_task_file(path, stream.tasks[0].cases)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptFileError):
            ingest_stream(tmp_path)

    def test_manifest_lists_missing_file(self, stream, tmp_path):
        save_stream(stream, tmp_path / "s")
        (tmp_path / "s" / "task_1.npz").unlink()
        with pytest.raises(CorruptFileError):
            ingest_stream(tmp_path / "s")

    def test_mixed_patch_widths_rejected(self, stream, tmp_path):
        save_stream(stream, tmp_path / "s")
        other = generate_stream(GeneratorConfig(**{
            **GEN.__dict__, "d_patch": 5, "n_tasks": 1}))
        write_task_file(tmp_path / "s" / "task_1.npz", other.tasks[0].cases)
        with pytest.raises(DimensionMismatchError):
            ingest_stream(tmp_path / "s")

    def test_mixed_group_widths_round_trip(self, stream, tmp_path):
        # each case keeps its own group widths, and the stream pads to the
        # widest group of any case: here one that is no task's first case
        first, second, *rest = stream.tasks[1].cases
        wide = replace(second, case_id="wide", groups=(
            *second.groups[:2], np.arange(9.0), *second.groups[3:]))
        narrow = replace(first, groups=tuple(g[:1] for g in first.groups))
        cases = [narrow, wide, *rest]
        write_task_file(tmp_path / "t.npz", cases)
        assert _case_fields(read_task_file(tmp_path / "t.npz")) == \
            _case_fields(cases)
        tasks = [stream.tasks[0], replace(stream.tasks[1], cases=cases)]
        save_stream(TaskStream(tasks, stream.d_patch, 9), tmp_path / "s")
        assert ingest_stream(tmp_path / "s").genomic_width == 9


def _case_fields(cases):
    return [(c.case_id, c.time, type(c.time), c.censored, type(c.censored),
             [(a.dtype, a.shape, a.tobytes()) for a in (c.patches, *c.groups)])
            for c in cases]


def _saved_task_file(directory, stream):
    path = directory / "t.npz"
    write_task_file(path, stream.tasks[0].cases[:3])
    return path


class TestTaskFileDamage:
    def test_every_truncation_is_a_corrupt_file(self, stream, tmp_path):
        blob = _saved_task_file(tmp_path, stream).read_bytes()
        cut = tmp_path / "cut.npz"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CorruptFileError, match="task file"):
                read_task_file(cut)

    def test_every_appended_byte_is_a_corrupt_file(self, stream, tmp_path):
        path = _saved_task_file(tmp_path, stream)
        blob = path.read_bytes()
        for byte in range(256):
            path.write_bytes(blob + bytes([byte]))
            with pytest.raises(CorruptFileError, match="task file"):
                read_task_file(path)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7))
    def test_a_flipped_bit_is_caught_or_harmless(self, stream, tmp_path_factory,
                                                 where, bit):
        path = _saved_task_file(tmp_path_factory.mktemp("flip"), stream)
        original = _case_fields(stream.tasks[0].cases[:3])
        blob = bytearray(path.read_bytes())
        blob[int(where * len(blob))] ^= 1 << bit
        path.write_bytes(bytes(blob))
        try:
            back = read_task_file(path)
        except CorruptFileError:
            return
        assert _case_fields(back) == original

    @pytest.mark.parametrize("n_patches", [[0, 3, 3], [2, 3, 3], [3, 3]])
    def test_patch_counts_must_cover_the_patches(self, stream, tmp_path,
                                                 n_patches):
        path = _saved_task_file(tmp_path, stream)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["patches"] = arrays["patches"][:6]
        arrays["n_patches"] = np.array(n_patches, dtype=np.int64)
        np.savez(path, **arrays)
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_a_shrunk_header_with_a_stale_crc_is_a_corrupt_file(self,
                                                                 tmp_path):
        # numpy reads only the bytes a member's header declares, and zipfile
        # checks a CRC only at a member's end (it reads 4 KiB ahead): only
        # the CRC pass sees a header shrunk by more than that
        path = tmp_path / "a.npz"
        with open(path, "wb") as fh:
            np.savez(fh, a=np.arange(4096.0))
        blob = path.read_bytes()
        assert blob.count(b"'shape': (4096,)") == 1
        path.write_bytes(blob.replace(b"'shape': (4096,)", b"'shape': (1024,)"))
        with np.load(path) as z:
            assert np.array_equal(z["a"], np.arange(1024.0))
        with pytest.raises(CorruptFileError, match=r"member a\.npy: .*CRC"):
            read_npz(path, "archive", lambda z: z["a"])

    def test_a_flipped_member_magic_names_the_member_and_zipfiles_reason(
            self, tmp_path):
        path = tmp_path / "a.npz"
        with open(path, "wb") as fh:
            np.savez(fh, a=np.arange(4.0), b=np.arange(3.0))
        with zipfile.ZipFile(path) as zf:
            offset = zf.getinfo("b.npy").header_offset
        blob = bytearray(path.read_bytes())
        assert blob[offset:offset + 4] == b"PK\x03\x04"
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError,
                           match=r"member b\.npy: Bad magic number") as info:
            read_npz(path, "archive", lambda z: z["b"])
        assert "CRC" not in str(info.value)

    def test_a_shrunk_header_with_a_valid_crc_is_a_corrupt_file(self,
                                                                 tmp_path):
        # the same damage with the member's CRC recomputed: the bytes left
        # after the declared array give it away
        path = tmp_path / "a.npz"
        with open(path, "wb") as fh:
            np.savez(fh, a=np.arange(4096.0))
        with zipfile.ZipFile(path) as zf:
            member = zf.read("a.npy")
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a.npy", member.replace(b"'shape': (4096,)",
                                                b"'shape': (1024,)"))
        with np.load(path) as z:
            assert np.array_equal(z["a"], np.arange(1024.0))
        with pytest.raises(CorruptFileError, match="bytes after the array"):
            read_npz(path, "archive", lambda z: z["a"])

    def test_read_npz_reads_what_np_load_reads(self, tmp_path):
        path = tmp_path / "a.npz"
        arrays = {"fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
                  "scalar": np.array(2.5), "empty": np.zeros((0, 3)),
                  "text": np.array(["a", "bcd"]), "big": np.arange(3, dtype=">i4"),
                  "wide": np.arange(4.0).reshape(1, 1, 4)}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        got = read_npz(path, "archive", dict)
        with np.load(path) as z:
            for name in arrays:
                assert got[name].dtype == z[name].dtype, name
                assert got[name].shape == z[name].shape, name
                assert got[name].flags.f_contiguous == z[name].flags.f_contiguous
                assert got[name].tobytes("A") == z[name].tobytes("A"), name
                assert got[name].flags.writeable, name

    def test_a_short_member_behind_a_cached_header_is_a_corrupt_file(
            self, tmp_path):
        # a and b share one header, so b's is parsed from the cache; b's
        # payload, one byte short with a valid CRC, must still be refused
        path = tmp_path / "a.npz"
        with open(path, "wb") as fh:
            np.savez(fh, a=np.arange(8.0), b=np.arange(8.0) + 1)
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        assert members["a.npy"][:-64] == members["b.npy"][:-64]
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a.npy", members["a.npy"])
            zf.writestr("b.npy", members["b.npy"][:-1])
        with pytest.raises(CorruptFileError, match="1 bytes short"):
            read_npz(path, "archive", lambda z: z["b"])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("member, what", [("patches", "patch"),
                                              ("groups", "genomic")])
    def test_a_non_finite_feature_names_its_case(self, stream, tmp_path,
                                                 capsys, member, what, value):
        save_stream(stream, tmp_path / "s")
        path = tmp_path / "s" / "task_0.npz"
        cases = read_task_file(path)
        spoil(cases[1], member, value)
        write_task_file(path, cases)
        message = f"case {cases[1].case_id!r}: a {what} value is not finite"
        with pytest.raises(CorruptFileError) as caught:
            read_task_file(path)
        assert f"{path}: unreadable task file (ValueError: {message})" == \
            str(caught.value)
        assert main(["ingest-check", str(tmp_path / "s")]) == 2
        assert message in capsys.readouterr().err

    def test_group_widths_must_sum_to_the_columns(self, stream, tmp_path):
        path = _saved_task_file(tmp_path, stream)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["group_widths"] = arrays["group_widths"] + 1
        np.savez(path, **arrays)
        with pytest.raises(CorruptFileError, match="group widths"):
            read_task_file(path)


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _entry(task_id=0, file="task_0.npz"):
    return {"task_id": task_id, "file": file}


class TestManifest:
    EDITS = {
        "entry without file": lambda m: {**m, "tasks": [{"task_id": 0}]},
        "tasks not a list": lambda m: {**m, "tasks": 5},
        "task_id a string": lambda m: {**m, "tasks": [_entry("0")]},
        "task_id a float": lambda m: {**m, "tasks": [_entry(0.5)]},
        "task_id a bool": lambda m: {**m, "tasks": [_entry(True)]},
        "file not a string": lambda m: {**m, "tasks": [_entry(file=0)]},
        "no tasks": lambda m: {**m, "tasks": []},
        "not an object": lambda m: [m],
        "no version": lambda m: {"tasks": m["tasks"]},
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_malformed_manifest_is_a_corrupt_file(self, stream, tmp_path,
                                                  capsys, checkpoint_file,
                                                  edit):
        save_stream(stream, tmp_path / "s")
        _edit_manifest(tmp_path / "s", self.EDITS[edit])
        with pytest.raises(CorruptFileError, match="manifest"):
            ingest_stream(tmp_path / "s")
        with pytest.raises(CorruptFileError, match="manifest"):
            ingest_task(tmp_path / "s", 0)
        assert main(["ingest-check", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert main(["km", str(checkpoint_file[1]), str(tmp_path / "s"), "0",
                     str(tmp_path / "km.csv")]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_stream_files_are_npz_with_manifest_version_3(self, stream,
                                                          tmp_path):
        save_stream(stream, tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest == {"version": 3, "tasks": [
            {"task_id": 0, "file": "task_0.npz"},
            {"task_id": 1, "file": "task_1.npz"}]}
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "manifest.json", "task_0.npz", "task_1.npz"]

    def test_a_repeated_task_id_is_refused_before_any_task_file_is_read(
            self, stream, tmp_path, capsys):
        save_stream(stream, tmp_path / "s")
        _edit_manifest(tmp_path / "s", lambda m: {**m, "tasks": [
            _entry(0), _entry(1, "task_1.npz"), _entry(0, "task_1.npz")]})
        for name in ("task_0.npz", "task_1.npz"):  # unreadable if read
            (tmp_path / "s" / name).write_bytes(b"not an archive")
        for read in (ingest_stream, lambda d: ingest_task(d, 1)):
            with pytest.raises(CorruptFileError,
                               match="task_id 0 is listed more than once"):
                read(tmp_path / "s")
        assert main(["ingest-check", str(tmp_path / "s")]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "task_id 0 is listed more than once" in out.err

    @pytest.mark.parametrize("version", [1, 2])
    def test_an_old_stream_names_its_version(self, stream, tmp_path, capsys,
                                             version):
        # version 1 listed .svb files; version 2 task files held one row of
        # groups per case and a single width list
        save_stream(stream, tmp_path / "s")
        _edit_manifest(tmp_path / "s", lambda m: {**m, "version": version})
        for read in (ingest_stream, lambda d: ingest_task(d, 0)):
            with pytest.raises(CorruptFileError,
                               match=f"manifest version {version}"):
                read(tmp_path / "s")
        assert main(["ingest-check", str(tmp_path / "s")]) == 2
        assert f"manifest version {version}" in capsys.readouterr().err


class TestSingleTaskRead:
    """km and routing read the manifest and the scored task's file only."""

    def test_a_task_equals_its_entry_in_the_stream(self, stream, tmp_path):
        save_stream(stream, tmp_path / "s")
        whole = ingest_stream(tmp_path / "s", n_bins=3)
        for task in whole.tasks:
            one = ingest_task(tmp_path / "s", task.task_id, n_bins=3)
            assert streams_equal(TaskStream([one], whole.d_patch, 0),
                                 TaskStream([task], whole.d_patch, 0))

    @pytest.mark.parametrize("verb", ["km", "routing"])
    def test_another_tasks_damaged_file_is_not_read(self, stream, tmp_path,
                                                    checkpoint_file, verb):
        save_stream(stream, tmp_path / "s")
        ckpt = str(checkpoint_file[1])
        intact = tmp_path / "intact.csv"
        assert main([verb, ckpt, str(tmp_path / "s"), "0", str(intact)]) == 0
        damaged = tmp_path / "s" / "task_1.npz"
        damaged.write_bytes(damaged.read_bytes()[:100])
        out = tmp_path / "out.csv"
        assert main([verb, ckpt, str(tmp_path / "s"), "0", str(out)]) == 0
        assert out.read_bytes() == intact.read_bytes()
        assert main(["ingest-check", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("verb", ["km", "routing"])
    def test_a_damaged_scored_file_exits_2(self, stream, tmp_path, capsys,
                                           checkpoint_file, verb):
        save_stream(stream, tmp_path / "s")
        damaged = tmp_path / "s" / "task_1.npz"
        damaged.write_bytes(damaged.read_bytes()[:100])
        assert main([verb, str(checkpoint_file[1]), str(tmp_path / "s"), "1",
                     str(tmp_path / "out.csv")]) == 2
        assert "unreadable task file" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["km", "routing"])
    def test_an_unlisted_task_exits_2(self, stream, tmp_path, capsys,
                                      checkpoint_file, verb):
        save_stream(stream, tmp_path / "s")
        assert main([verb, str(checkpoint_file[1]), str(tmp_path / "s"), "7",
                     str(tmp_path / "out.csv")]) == 2
        assert "task 7 is not listed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint_file(stream, tmp_path_factory):
    model = build_model(stream, MethodConfig(seed=6, **TINY_KW))
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.npz"
    save_model(model, path)
    return model, path


class TestScoringRefusals:
    """km and routing refuse, before any forward, a task the checkpoint has
    no head for, cases of a patch width other than its own and genomic
    groups wider than its own."""

    @pytest.fixture
    def no_forward(self, monkeypatch):
        def forward(*args, **kwargs):
            raise AssertionError("a forward ran")
        monkeypatch.setattr(SurvivalModel, "forward", forward)

    def _refuse(self, stream, task, tmp_path, capsys, checkpoint_file, verb):
        save_stream(stream, tmp_path / "s")
        argv = [verb, str(checkpoint_file[1]), str(tmp_path / "s"), str(task),
                str(tmp_path / "out.csv")]
        with pytest.raises(CheckpointMismatchError):
            _scoring_inputs(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert not (tmp_path / "out.csv").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["km", "routing"])
    def test_a_task_without_a_head_exits_2(self, tmp_path, capsys, no_forward,
                                           checkpoint_file, verb):
        err = self._refuse(generate_stream(replace(GEN, n_tasks=3)), 2,
                           tmp_path, capsys, checkpoint_file, verb)
        assert err.startswith("data error: task 2 of ")
        assert "the checkpoint's tasks [0, 1]" in err

    @pytest.mark.parametrize("verb", ["km", "routing"])
    def test_another_patch_width_exits_2(self, tmp_path, capsys, no_forward,
                                         checkpoint_file, verb):
        err = self._refuse(generate_stream(replace(GEN, d_patch=12)), 0,
                           tmp_path, capsys, checkpoint_file, verb)
        assert "has patch width 12; the checkpoint's patch width is 8" in err

    @pytest.mark.parametrize("verb", ["km", "routing"])
    def test_wider_genomic_groups_exit_2(self, tmp_path, capsys, no_forward,
                                         checkpoint_file, verb):
        wide = replace(GEN, group_dims=(9, 4, 3, 6, 2, 4))
        err = self._refuse(generate_stream(wide), 0, tmp_path, capsys,
                           checkpoint_file, verb)
        assert ("has a genomic group of width 9; the checkpoint's genomic "
                "width is 6") in err


def _state_bytes(model):
    return {k: (v.dtype, v.shape, v.tobytes())
            for k, v in model.get_state().items()}


class TestCheckpoint:
    def test_round_trip(self, stream, tmp_path):
        cfg = MethodConfig(seed=4, **TINY_KW)
        model = build_model(stream, cfg)
        path = tmp_path / "ckpt.npz"
        save_model(model, path)
        back = load_model(path)
        assert back.cfg == model.cfg
        assert back.task_ids == model.task_ids
        a, b = model.get_state(), back.get_state()
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_predictions_survive_round_trip(self, stream, tmp_path):
        cfg = MethodConfig(seed=5, **TINY_KW)
        model = build_model(stream, cfg)
        save_model(model, tmp_path / "ckpt.npz")
        back = load_model(tmp_path / "ckpt.npz")
        case = stream.tasks[0].cases[0]
        assert np.array_equal(model.forward(case, 0)[0].data,
                              back.forward(case, 0)[0].data)


    @pytest.fixture
    def saved(self, stream, tmp_path):
        model = build_model(stream, MethodConfig(seed=6, **TINY_KW))
        save_model(model, tmp_path / "ckpt.npz")
        return model, tmp_path / "ckpt.npz"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.npz")

    def test_a_path_without_a_suffix_round_trips(self, stream, tmp_path):
        model = build_model(stream, MethodConfig(seed=6, **TINY_KW))
        save_model(model, tmp_path / "ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        assert _state_bytes(load_model(tmp_path / "ckpt")) == _state_bytes(model)
        save_stream(stream, tmp_path / "s")
        assert main(["km", str(tmp_path / "ckpt"), str(tmp_path / "s"), "0",
                     str(tmp_path / "km.csv")]) == 0
        assert (tmp_path / "km.csv").stat().st_size > 0

    @pytest.mark.parametrize("keep", [0.0, 1e-4, 0.01, 0.25, 0.5, 0.9, 0.999])
    def test_truncation_is_a_corrupt_file(self, saved, keep):
        _, path = saved
        blob = path.read_bytes()
        path.write_bytes(blob[:int(keep * len(blob))])
        with pytest.raises(CorruptFileError, match="checkpoint"):
            load_model(path)

    @pytest.mark.parametrize("where", [0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                                       0.9995])
    def test_a_flipped_bit_is_caught_or_harmless(self, saved, where):
        model, path = saved
        blob = bytearray(path.read_bytes())
        blob[int(where * len(blob))] ^= 0x10
        path.write_bytes(bytes(blob))
        try:
            back = load_model(path)
        except CorruptFileError:
            return
        a, b = model.get_state(), back.get_state()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.integers(-1, 7))
    def test_any_cut_or_bit_flip_is_caught_or_harmless(self, checkpoint_file,
                                                       where, bit):
        # bit -1 cuts the file at `where`; 0-7 flips that bit of the byte there
        model, path = checkpoint_file
        blob = bytearray(path.read_bytes())
        at = int(where * len(blob))
        if bit < 0:
            del blob[at:]
        else:
            blob[at] ^= 1 << bit
        damaged = path.with_name("damaged.npz")
        damaged.write_bytes(bytes(blob))
        try:
            back = load_model(damaged)
        except CorruptFileError:
            return
        assert back.cfg == model.cfg and back.task_ids == model.task_ids
        assert _state_bytes(back) == _state_bytes(model)

    @pytest.mark.parametrize("meta", [None, b"not json", b"[1, 2]",
                                      b'{"config": {"d_patch": 8}}',
                                      b'{"config": {}, "task_ids": []}'])
    def test_missing_or_garbled_meta(self, saved, meta):
        _, path = saved
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
        if meta is not None:
            arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CorruptFileError):
            load_model(path)

    def test_misshapen_parameter_is_a_corrupt_file(self, saved, stream,
                                                   tmp_path):
        _, path = saved
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["param/patch_embed.fc1.w"] = arrays["param/patch_embed.fc1.w"][:1]
        np.savez(path, **arrays)
        with pytest.raises(CorruptFileError, match=r"patch_embed\.fc1\.w"):
            load_model(path)
        save_stream(stream, tmp_path / "s")
        assert main(["km", str(path), str(tmp_path / "s"), "0",
                     str(tmp_path / "km.csv")]) == 2

    def test_km_on_a_truncated_checkpoint_exits_2(self, saved, stream,
                                                  tmp_path, capsys):
        _, path = saved
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        save_stream(stream, tmp_path / "s")
        assert main(["km", str(path), str(tmp_path / "s"), "0",
                     str(tmp_path / "km.csv")]) == 2
        assert capsys.readouterr().err.startswith("data error:")


class TestEstimator:
    def test_params_round_trip(self):
        est = ContinualSurvivalEstimator(method="er", epochs=3, seed=9)
        params = est.get_params()
        est2 = ContinualSurvivalEstimator().set_params(**params)
        assert est2.get_params() == params

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            ContinualSurvivalEstimator().set_params(gamma=1.0)
        with pytest.raises(ValueError, match="gamma"):
            ContinualSurvivalEstimator(gamma=1)

    def test_default_params(self):
        assert ContinualSurvivalEstimator().get_params() == {
            "method": "fcr", "epochs": 20, "learning_rate": 2e-4,
            "weight_decay": 1e-5, "alpha": 2.4e-3, "beta": 0.5,
            "replay_count": 1, "buffer_capacity": 32, "censored_weight": 0.0,
            "latent": 64, "hidden": 128, "n_experts": 8, "k_top": 2,
            "n_folds": 5, "fold": 0, "seed": 0}

    def test_predict_before_fit(self):
        est = ContinualSurvivalEstimator()
        with pytest.raises(NotFittedError):
            est.predict_risk([], 0)
        with pytest.raises(NotFittedError):
            est.score_matrix()

    def test_fit_predict(self, stream):
        est = ContinualSurvivalEstimator(method="finetune", epochs=1,
                                         **TINY_KW)
        assert est.fit(stream) is est
        cases = stream.tasks[0].cases[:5]
        hz = est.predict_hazard(cases, 0)
        assert hz.shape == (5, GEN.n_bins)
        assert ((hz > 0) & (hz < 1)).all()
        risks = est.predict_risk(cases, 0)
        assert risks.shape == (5,)
        mat = est.score_matrix()
        assert mat.shape == (3, 2)
        assert not np.isnan(mat).any()

    def test_fit_rejects_non_stream(self):
        with pytest.raises(ValueError):
            ContinualSurvivalEstimator().fit([1, 2, 3])


def write_config(tmp_path, stream_dir=None, **overrides):
    cfg = {
        "source": {"type": "synthetic",
                   "generator": {"n_tasks": 2, "cases_per_task": 60,
                                 "n_patches": [3, 6], "d_patch": 8,
                                 "group_dims": [5, 4, 3, 6, 2, 4]}},
        "methods": ["finetune"],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
        "epochs": 1,
        **TINY_KW,
    }
    if stream_dir is not None:
        cfg["source"] = {"type": "directory", "path": str(stream_dir)}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg["methods"] == ["finetune"]

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, optimizer="sgd"))

    def test_accepted_keys_are_the_estimator_parameters(self, tmp_path):
        est_keys = {"epochs", "learning_rate", "weight_decay", "alpha",
                    "beta", "replay_count", "buffer_capacity",
                    "censored_weight", "latent", "hidden", "n_experts",
                    "k_top", "n_folds", "fold"}
        assert _RUN_KEYS == est_keys | {"source", "methods", "seeds",
                                        "output_dir", "n_bins"}
        for key in ("method", "seed"):  # set by the sweep, not the config
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, **{key: 0}))

    def test_method_config_names_every_run_setting_once(self, tmp_path):
        names = {f.name for f in fields(MethodConfig)}
        assert set(ContinualSurvivalEstimator._PARAM_NAMES) == names
        method_keys = _RUN_KEYS - {"source", "methods", "seeds", "output_dir",
                                   "n_bins"}
        assert method_keys | {"method", "seed"} == names
        defaults = MethodConfig()
        for key in method_keys:  # each is accepted at its default value
            load_config(write_config(tmp_path, **{key: getattr(defaults, key)}))

    def test_missing_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"methods": ["fcr"]}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_source_type(self, tmp_path):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["source"] = {"type": "database"}
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            load_config(path)


class TestConfigValues:
    BAD = {"unknown method": {"methods": ["bogus"]},
           "method not a list": {"methods": "fcr"},
           "negative epochs": {"epochs": -1},
           "negative alpha": {"alpha": -1},
           "alpha NaN": {"alpha": math.nan},
           "beta infinite": {"beta": math.inf},
           "learning_rate infinite": {"learning_rate": math.inf},
           "weight_decay NaN": {"weight_decay": math.nan},
           "zero replay_count": {"replay_count": 0},
           "replay_count a float": {"replay_count": 1.5},
           "censored_weight above 1": {"censored_weight": 2.0},
           "censored_weight NaN": {"censored_weight": math.nan},
           "repeated method": {"methods": ["finetune", "finetune"]},
           "repeated seed": {"seeds": [0, 0]},
           "epochs not a number": {"epochs": "many"},
           "attn_dim is not a parameter": {"attn_dim": 4},
           "k_top + 1 above n_experts": {"k_top": 4, "n_experts": 4},
           "zero latent": {"latent": 0},
           "zero hidden": {"hidden": 0},
           "zero n_experts": {"n_experts": 0, "k_top": 0},
           "negative k_top": {"k_top": -1},
           "latent a bool": {"latent": True},
           "k_top a float": {"k_top": 1.5},
           "fold outside n_folds": {"fold": 9},
           "negative fold": {"fold": -1},
           "one fold": {"n_folds": 1},
           "epochs a float": {"epochs": 1.5},
           "epochs a bool": {"epochs": True},
           "zero buffer_capacity": {"buffer_capacity": 0},
           "n_bins one": {"n_bins": 1},
           "n_bins a float": {"n_bins": 4.0},
           "seed a string": {"seeds": ["a"]},
           "seed a float": {"seeds": [0, 1.5]},
           "seed a bool": {"seeds": [True]},
           "censor_rate above 1": {"source": {"type": "synthetic",
                                              "generator": {"censor_rate": 2.0}}},
           "five group_dims": {"source": {"type": "synthetic",
                                          "generator": {"group_dims": [5, 4, 3, 6, 2]}}},
           "unknown generator key": {"source": {"type": "synthetic",
                                                "generator": {"n_genes": 3}}},
           "generator not a mapping": {"source": {"type": "synthetic",
                                                  "generator": [2, 60]}},
           "n_tasks a string": {"source": {"type": "synthetic",
                                           "generator": {"n_tasks": "a"}}},
           "zero cases_per_task": {"source": {"type": "synthetic",
                                              "generator": {"cases_per_task": 0}}},
           "zero d_patch": {"source": {"type": "synthetic",
                                       "generator": {"d_patch": 0}}},
           "n_patches reversed": {"source": {"type": "synthetic",
                                             "generator": {"n_patches": [6, 3]}}},
           "n_patches from zero": {"source": {"type": "synthetic",
                                              "generator": {"n_patches": [0, 2]}}},
           "n_patches one number": {"source": {"type": "synthetic",
                                               "generator": {"n_patches": 5}}},
           "n_patches three numbers": {"source": {"type": "synthetic",
                                                  "generator": {"n_patches": [1, 2, 3]}}},
           "n_patches floats": {"source": {"type": "synthetic",
                                           "generator": {"n_patches": [1.0, 2.0]}}},
           "signal_fraction above 1": {"source": {"type": "synthetic",
                                                  "generator": {"signal_fraction": 1.5}}},
           "group_dims holds a string": {"source": {"type": "synthetic",
                                                    "generator": {"group_dims": ["a", 1, 1, 1, 1, 1]}}},
           "noise_scale a string": {"source": {"type": "synthetic",
                                               "generator": {"noise_scale": "a"}}},
           "negative baseline_hazard": {"source": {"type": "synthetic",
                                                   "generator": {"baseline_hazard": -1}}},
           "zero baseline_hazard": {"source": {"type": "synthetic",
                                               "generator": {"baseline_hazard": 0}}},
           "shared_scale NaN": {"source": {"type": "synthetic",
                                           "generator": {"shared_scale": math.nan}}},
           "source a number": {"source": 5},
           "source null": {"source": None},
           "synthetic source with a path": {"source": {"type": "synthetic",
                                                       "generator": {},
                                                       "path": "stream"}},
           "directory source with a generator": {"source": {"type": "directory",
                                                            "path": "stream",
                                                            "generator": {}}},
           "generator seed": {"source": {"type": "synthetic",
                                         "generator": {"seed": 1}}},
           "generator n_bins": {"source": {"type": "synthetic",
                                           "generator": {"n_bins": 3}}},
           "output_dir a number": {"output_dir": 5},
           "source path a number": {"source": {"type": "directory", "path": 5}},
           "directory source without a path": {"source": {"type": "directory"}}}

    @pytest.mark.parametrize("attn_dim", [0, True, 2.0, 4])
    def test_method_config_refuses_an_attn_dim(self, attn_dim):
        # the attention width is the model's own (ModelConfig.attn_dim), not
        # a run setting
        with pytest.raises(TypeError, match="attn_dim"):
            MethodConfig(attn_dim=attn_dim)

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejected_as_config_error(self, tmp_path, case):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, **self.BAD[case]))

    @pytest.mark.parametrize("key", ["seed", "n_bins"])
    def test_a_generator_key_the_sweep_sets_is_named(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, **self.BAD[f"generator {key}"]))

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_run_exits_1_before_writing_output(self, tmp_path, capsys,
                                               monkeypatch, case):
        monkeypatch.chdir(tmp_path)  # where a relative output_dir would go
        config = write_config(tmp_path, **self.BAD[case])
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == [config]


class TestCLI:
    def test_a_config_that_is_not_an_object_exits_1(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"output_dir": "out"}]))
        assert main(["run", str(config)]) == cli.EXIT_CONFIG
        assert "config must be a JSON object" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_an_undefined_metric_in_a_verb_exits_3(self, tmp_path, capsys,
                                                   monkeypatch):
        def undefined(config_path):
            raise UndefinedMetricError("no comparable pairs")

        monkeypatch.setattr(cli, "run_experiment", undefined)
        assert main(["run", str(write_config(tmp_path))]) == cli.EXIT_METRIC
        err = capsys.readouterr().err
        assert err.startswith("undefined metric:") and "no comparable" in err

    def test_run_writes_reports(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"
        run_dir = out / "finetune_seed0"
        for fname in ("metrics.json", "matrix_c_index.csv",
                      "matrix_c_index_ipcw.csv", "routing.csv", "curves.csv",
                      "km_task0.csv", "km_task1.csv", "checkpoint.npz"):
            assert (run_dir / fname).exists(), fname
        assert (out / "aggregate.json").exists()
        assert (out / "stream_seed0" / "manifest.json").exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert "summary" in metrics and "km" in metrics
        agg = json.loads((out / "aggregate.json").read_text())
        assert "c_index" in agg["finetune"]
        assert "mean" in agg["finetune"]["c_index"]["average"]

    def test_replay_run_writes_a_loadable_buffer(self, tmp_path):
        assert main(["run", str(write_config(tmp_path, methods=["er"]))]) == 0
        run_dir = tmp_path / "out" / "er_seed0"
        assert sorted(p.name for p in run_dir.glob("buffer*")) == ["buffer.npz"]
        assert len(ReplayBuffer.load(run_dir / "buffer.npz")) > 0

    def test_run_exit_code_on_bad_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"methods": []}))
        assert main(["run", str(path)]) == 1

    def test_ingest_check(self, tmp_path, stream, capsys):
        save_stream(stream, tmp_path / "s")
        assert main(["ingest-check", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "task 0" in out and "task 1" in out

    def test_ingest_check_corrupt_exit_code(self, tmp_path, stream):
        save_stream(stream, tmp_path / "s")
        blob = (tmp_path / "s" / "task_0.npz").read_bytes()
        (tmp_path / "s" / "task_0.npz").write_bytes(blob[:10])
        assert main(["ingest-check", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("time", math.nan), ("time", math.inf), ("time", -1.0), ("time", 0.0),
        ("censored", 2)])
    def test_ingest_check_names_a_case_with_a_bad_outcome(
            self, tmp_path, stream, capsys, field, value):
        save_stream(stream, tmp_path / "s")
        path = tmp_path / "s" / "task_0.npz"
        cases = read_task_file(path)
        setattr(cases[1], field, value)
        write_task_file(path, cases)
        assert main(["ingest-check", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: unreadable task file" in err
        assert f"case {cases[1].case_id!r}: time" in err

    def test_km_and_routing_verbs(self, tmp_path, stream):
        path = write_config(tmp_path)
        run_experiment(path)
        ckpt = tmp_path / "out" / "finetune_seed0" / "checkpoint.npz"
        data = tmp_path / "out" / "stream_seed0"
        km_out = tmp_path / "km.csv"
        assert main(["km", str(ckpt), str(data), "0", str(km_out)]) == 0
        with open(km_out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["group"] for r in rows} == {"low", "high"}
        assert all(0.0 <= float(r["survival"]) <= 1.0 for r in rows)
        rt_out = tmp_path / "routing.csv"
        assert main(["routing", str(ckpt), str(data), "1", str(rt_out)]) == 0
        with open(rt_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * TINY_KW["n_experts"]
        props = {}
        for r in rows:
            props.setdefault(r["module_site"], 0.0)
            props[r["module_site"]] += float(r["proportion"])
        # each site selects k_top + 1 experts per case
        assert all(abs(v - (TINY_KW["k_top"] + 1)) < 1e-9
                   for v in props.values())

    def test_run_on_a_nan_training_case_exits_2_naming_it(self, tmp_path,
                                                          stream, capsys):
        task = stream.tasks[0]
        train_idx, _ = split_folds(task, 5, 0)[0]
        bad = task.cases[train_idx[0]]
        patches = bad.patches.copy()
        patches[0, 0] = np.nan
        cases = [replace(c, patches=patches) if c is bad else c
                 for c in task.cases]
        save_stream(TaskStream([replace(task, cases=cases), stream.tasks[1]],
                               stream.d_patch, stream.genomic_width),
                    tmp_path / "s")
        assert main(["run", str(write_config(tmp_path, tmp_path / "s"))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 's' / 'task_0.npz'}: "
                              "unreadable task file (ValueError: case "
                              f"{bad.case_id!r}: a patch value is not finite)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", [
        {"type": "directory", "path": "no_such_stream"},
        {"type": "synthetic", "generator": {"baseline_hazard": 1e300}}])
    def test_a_stream_that_cannot_be_built_exits_2_before_any_output(
            self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        with np.errstate(all="ignore"):
            code = main(["run", str(write_config(tmp_path, source=source))])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (tmp_path / "out").exists()

    def test_a_directory_source_is_read_once_for_every_seed(self, tmp_path,
                                                            stream, monkeypatch):
        save_stream(stream, tmp_path / "s")
        reads = []

        def counted(*args, **kwargs):
            reads.append(args)
            return ingest_stream(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest_stream", counted)
        path = write_config(tmp_path, tmp_path / "s", seeds=[0, 1])
        assert main(["run", str(path)]) == 0
        assert reads == [(str(tmp_path / "s"),)]
        for seed in (0, 1):
            assert (tmp_path / "out" / f"finetune_seed{seed}" / "metrics.json").exists()

    def test_each_seed_of_a_synthetic_sweep_has_its_own_stream(self, tmp_path):
        assert main(["run", str(write_config(tmp_path, seeds=[0, 1]))]) == 0
        saved = [ingest_stream(tmp_path / "out" / f"stream_seed{seed}")
                 for seed in (0, 1)]
        assert not streams_equal(*saved)

    def test_km_missing_task_exit_code(self, tmp_path):
        path = write_config(tmp_path)
        run_experiment(path)
        ckpt = tmp_path / "out" / "finetune_seed0" / "checkpoint.npz"
        data = tmp_path / "out" / "stream_seed0"
        assert main(["km", str(ckpt), str(data), "7",
                     str(tmp_path / "km.csv")]) == 2

    def test_importing_the_cli_loads_no_scipy(self):
        code = ("import survstream.cli, sys; print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))")
        src = str(Path(survstream.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "[]"

    def test_output_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SURVSTREAM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, output_dir="exp")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "root" / "exp" / "aggregate.json").exists()
