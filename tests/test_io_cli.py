import csv
import json

import numpy as np
import pytest

from survstream.bagio import (CorruptFileError, DimensionMismatchError,
                              ingest_stream, read_task_file, save_stream,
                              streams_equal, write_task_file)
from survstream.checkpoint import load_model, save_model
from survstream.cli import (_RUN_KEYS, ConfigError, load_config, main,
                            run_experiment)
from survstream.estimator import ContinualSurvivalEstimator, NotFittedError
from survstream.fcr import ReplayBuffer
from survstream.harness import MethodConfig, build_model
from survstream.synthdata import GeneratorConfig, generate_stream

GEN = GeneratorConfig(n_tasks=2, cases_per_task=60, n_patches=(3, 6),
                      d_patch=8, group_dims=(5, 4, 3, 6, 2, 4), seed=0)
TINY_KW = dict(latent=8, hidden=10, n_experts=4, k_top=1)


@pytest.fixture(scope="module")
def stream():
    return generate_stream(GEN)


class TestBagIO:
    def test_task_file_round_trip(self, stream, tmp_path):
        path = tmp_path / "t.svb"
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
        path = tmp_path / "bad.svb"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_truncated_file(self, stream, tmp_path):
        path = tmp_path / "t.svb"
        write_task_file(path, stream.tasks[0].cases)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_trailing_bytes(self, stream, tmp_path):
        path = tmp_path / "t.svb"
        write_task_file(path, stream.tasks[0].cases)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFileError):
            read_task_file(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptFileError):
            ingest_stream(tmp_path)

    def test_manifest_lists_missing_file(self, stream, tmp_path):
        save_stream(stream, tmp_path / "s")
        (tmp_path / "s" / "task_1.svb").unlink()
        with pytest.raises(CorruptFileError):
            ingest_stream(tmp_path / "s")

    def test_mixed_patch_widths_rejected(self, stream, tmp_path):
        save_stream(stream, tmp_path / "s")
        other = generate_stream(GeneratorConfig(**{
            **GEN.__dict__, "d_patch": 5, "n_tasks": 1}))
        write_task_file(tmp_path / "s" / "task_1.svb", other.tasks[0].cases)
        with pytest.raises(DimensionMismatchError):
            ingest_stream(tmp_path / "s")

    def test_inconsistent_group_widths_rejected(self, stream, tmp_path):
        cases = [stream.tasks[0].cases[0], stream.tasks[1].cases[0]]
        bad = type(cases[1])(
            case_id="bad", patches=cases[1].patches,
            groups=tuple(g[:2] for g in cases[1].groups),
            time=1.0, censored=0)
        with pytest.raises(DimensionMismatchError):
            write_task_file(tmp_path / "bad.svb", [cases[0], bad])


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


class TestCLI:
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
        blob = (tmp_path / "s" / "task_0.svb").read_bytes()
        (tmp_path / "s" / "task_0.svb").write_bytes(blob[:10])
        assert main(["ingest-check", str(tmp_path / "s")]) == 2

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

    def test_km_missing_task_exit_code(self, tmp_path):
        path = write_config(tmp_path)
        run_experiment(path)
        ckpt = tmp_path / "out" / "finetune_seed0" / "checkpoint.npz"
        data = tmp_path / "out" / "stream_seed0"
        assert main(["km", str(ckpt), str(data), "7",
                     str(tmp_path / "km.csv")]) == 2

    def test_output_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SURVSTREAM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, output_dir="exp")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "root" / "exp" / "aggregate.json").exists()
