import numpy as np
import pytest

from survstream.survival import c_index
from survstream.synthdata import (GenerationError, GeneratorConfig,
                                  generate_stream, split_folds)

SMALL = GeneratorConfig(n_tasks=2, cases_per_task=80, n_patches=(4, 10),
                        d_patch=8, group_dims=(5, 4, 3, 6, 2, 4), seed=0)


@pytest.fixture(scope="module")
def stream():
    return generate_stream(SMALL)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_stream(SMALL)
        b = generate_stream(SMALL)
        for ta, tb in zip(a.tasks, b.tasks):
            assert ta.bins == tb.bins
            for ca, cb in zip(ta.cases, tb.cases):
                assert ca.case_id == cb.case_id
                assert ca.time == cb.time
                assert np.array_equal(ca.patches, cb.patches)
                for ga, gb in zip(ca.groups, cb.groups):
                    assert np.array_equal(ga, gb)

    def test_seed_changes_data(self):
        a = generate_stream(SMALL)
        b = generate_stream(GeneratorConfig(**{
            **SMALL.__dict__, "seed": 1}))
        assert not np.array_equal(a.tasks[0].cases[0].patches,
                                  b.tasks[0].cases[0].patches)


class TestShape(object):
    def test_counts_and_dims(self, stream):
        assert stream.n_tasks == 2
        assert stream.d_patch == 8
        assert stream.genomic_width == 6
        for task in stream.tasks:
            assert len(task) == 80
            for c in task.cases:
                assert 4 <= c.patches.shape[0] <= 10
                assert c.patches.shape[1] == 8
                assert tuple(g.size for g in c.groups) == (5, 4, 3, 6, 2, 4)

    def test_values_survive_f32_round_trip(self, stream):
        for c in stream.tasks[0].cases[:10]:
            assert np.array_equal(c.patches,
                                  c.patches.astype(np.float32).astype(np.float64))
            for g in c.groups:
                assert np.array_equal(g, g.astype(np.float32).astype(np.float64))

    def test_labels_assigned(self, stream):
        for task in stream.tasks:
            labels = np.array([c.label for c in task.cases])
            assert ((labels >= 0) & (labels < SMALL.n_bins)).all()
            # uncensored cases spread over all bins by construction
            unc = labels[task.censor == 0]
            assert np.unique(unc).size == SMALL.n_bins


class TestStatistics:
    def test_censor_rate_near_target(self):
        cfg = GeneratorConfig(n_tasks=3, cases_per_task=400, seed=5)
        s = generate_stream(cfg)
        frac = np.mean([c.censored for t in s.tasks for c in t.cases])
        assert abs(frac - cfg.censor_rate) < 0.08

    def test_zero_censoring(self):
        cfg = GeneratorConfig(n_tasks=1, cases_per_task=60, censor_rate=0.0,
                              seed=2)
        s = generate_stream(cfg)
        assert all(c.censored == 0 for c in s.tasks[0].cases)

    def test_oracle_risk_is_concordant(self, stream):
        """The generating log-risk must predict the outcomes it produced."""
        for task in stream.tasks:
            risks = [c.oracle_risk for c in task.cases]
            ci = c_index(risks, task.times, task.censor)
            assert ci > 0.7

    def test_fused_oracle_beats_single_modalities(self):
        """Cross-modal term makes the full risk strictly more informative."""
        cfg = GeneratorConfig(n_tasks=2, cases_per_task=400, cross_scale=2.0,
                              seed=3)
        s = generate_stream(cfg)
        for task in s.tasks:
            full = c_index([c.oracle_risk for c in task.cases],
                           task.times, task.censor)
            part_p = c_index([c.oracle_risk_p for c in task.cases],
                             task.times, task.censor)
            part_g = c_index([c.oracle_risk_g for c in task.cases],
                             task.times, task.censor)
            assert full > max(part_p, part_g)

    def test_tasks_differ(self, stream):
        r0 = stream.tasks[0].cases[0].patches
        r1 = stream.tasks[1].cases[0].patches
        assert r0.shape != r1.shape or not np.array_equal(r0, r1)


class TestValidation:
    def test_bad_censor_rate(self):
        with pytest.raises(ValueError):
            GeneratorConfig(censor_rate=1.0)

    def test_bad_group_count(self):
        with pytest.raises(ValueError):
            GeneratorConfig(group_dims=(3, 3))

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            GeneratorConfig(cross_scale=-1.0)

    @pytest.mark.parametrize("bad", [
        {"n_tasks": "a"}, {"n_tasks": 0}, {"n_tasks": True},
        {"cases_per_task": 0}, {"cases_per_task": 2.5}, {"d_patch": 0},
        {"n_patches": (6, 3)}, {"n_patches": (0, 2)}, {"n_patches": 5},
        {"n_patches": (1, 2, 3)}, {"n_patches": (1.0, 2.0)},
        {"signal_fraction": 1.5}, {"signal_fraction": -0.1},
        {"signal_fraction": float("nan")},
        {"group_dims": ("a", 1, 1, 1, 1, 1)}, {"group_dims": (4, 0, 4, 4, 4, 4)},
        {"noise_scale": "a"}, {"noise_scale": -0.5},
        {"baseline_hazard": -1}, {"baseline_hazard": 0},
        {"baseline_hazard": float("inf")}, {"shared_scale": float("nan")},
        {"seed": 1.5}, {"seed": -1}, {"seed": True}, {"seed": "a"},
        {"n_bins": 1}, {"n_bins": 4.0}, {"n_bins": False}])
    def test_bad_generator_value(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            GeneratorConfig(**bad)


class TestSplitFolds:
    def test_partition(self, stream):
        task = stream.tasks[0]
        folds = split_folds(task, 5, seed=11)
        n = len(task)
        all_val = np.concatenate([v for _, v in folds])
        assert np.array_equal(np.sort(all_val), np.arange(n))
        for train, val in folds:
            assert np.intersect1d(train, val).size == 0
            assert train.size + val.size == n

    def test_stratified_censoring(self, stream):
        task = stream.tasks[0]
        censor = task.censor
        overall = censor.mean()
        for _, val in split_folds(task, 5, seed=11):
            assert abs(censor[val].mean() - overall) < 0.15

    def test_deterministic(self, stream):
        a = split_folds(stream.tasks[0], 5, seed=3)
        b = split_folds(stream.tasks[0], 5, seed=3)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_too_few_folds(self, stream):
        with pytest.raises(ValueError):
            split_folds(stream.tasks[0], 1, seed=0)
