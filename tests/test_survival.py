import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstream import autodiff as ad
from survstream import survival as sv


class TestBins:
    def test_quartiles_of_one_to_eight(self):
        # linear-interpolated quartiles of [1..8]: 2.75, 4.5, 6.25
        spec = sv.compute_bins(np.arange(1.0, 9.0), np.zeros(8, dtype=int), 4)
        assert spec.boundaries == (2.75, 4.5, 6.25)

    def test_censored_times_excluded(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 100.0, 200.0, 300.0])
        censor = np.array([0, 0, 0, 0, 1, 1, 1])
        spec = sv.compute_bins(times, censor, 2)
        assert spec.boundaries == (2.5,)

    def test_too_few_events(self):
        with pytest.raises(sv.InsufficientEventsError):
            sv.compute_bins([1.0, 2.0, 3.0], [0, 0, 1], 3)

    def test_degenerate_times_rejected(self):
        with pytest.raises(sv.InsufficientEventsError):
            sv.compute_bins([5.0] * 10, [0] * 10, 4)

    def test_assign_boundary_goes_up(self):
        spec = sv.BinSpec(4, (2.75, 4.5, 6.25))
        assert sv.assign_bin(2.74, spec) == 0
        assert sv.assign_bin(2.75, spec) == 1
        assert sv.assign_bin(4.5, spec) == 2
        assert sv.assign_bin(6.25, spec) == 3
        assert sv.assign_bin(1000.0, spec) == 3

    def test_binspec_validation(self):
        with pytest.raises(ValueError):
            sv.BinSpec(1, ())
        with pytest.raises(ValueError):
            sv.BinSpec(3, (1.0,))
        with pytest.raises(sv.InsufficientEventsError):
            sv.BinSpec(3, (2.0, 2.0))

    @given(st.lists(st.floats(0.01, 1e4), min_size=12, max_size=60,
                    unique=True))
    def test_every_bin_nonempty_on_distinct_times(self, times):
        times = np.asarray(times)
        spec = sv.compute_bins(times, np.zeros(times.size, dtype=int), 4)
        counts = np.bincount([sv.assign_bin(t, spec) for t in times],
                             minlength=4)
        assert (counts > 0).all()


class TestSurvivalCurve:
    def test_hand_case(self):
        s = sv.hazards_to_survival([0.1, 0.2, 0.5])
        assert np.allclose(s, [0.9, 0.72, 0.36], atol=1e-15)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = sv.hazards_to_survival(rng.uniform(0, 1, size=6))
            assert (np.diff(s) <= 1e-15).all()
            assert (s >= 0).all() and (s <= 1).all()

    def test_out_of_range_hazard(self):
        with pytest.raises(ValueError):
            sv.hazards_to_survival([0.5, 1.2])


class TestNLL:
    def test_uncensored_hand_case(self):
        # h = [0.2, 0.3, 0.4, 0.5], event in bin 2:
        # loss = -(log 0.8 + log 0.7) - log 0.4
        h = ad.constant([[0.2, 0.3, 0.4, 0.5]])
        loss = sv.nll_survival_loss(h, label=2, censored=0)
        expected = -(math.log(0.8) + math.log(0.7)) - math.log(0.4)
        assert abs(loss.item() - expected) < 1e-12

    def test_uncensored_first_bin(self):
        # empty survival prefix: loss = -log h[0]
        h = ad.constant([[0.25, 0.5, 0.5, 0.5]])
        loss = sv.nll_survival_loss(h, label=0, censored=0)
        assert abs(loss.item() - (-math.log(0.25))) < 1e-12

    def test_censored_hand_case(self):
        # censored in bin 1: loss = -(log 0.8 + log 0.7)
        h = ad.constant([[0.2, 0.3, 0.4, 0.5]])
        loss = sv.nll_survival_loss(h, label=1, censored=1)
        assert abs(loss.item() - 0.5798184952529422) < 1e-12

    def test_censored_weight_scales_down(self):
        h = ad.constant([[0.2, 0.3, 0.4, 0.5]])
        base = sv.nll_survival_loss(h, 1, 1).item()
        scaled = sv.nll_survival_loss(
            h, 1, 1, sv.SurvLossConfig(censored_weight=0.25)).item()
        assert abs(scaled - 0.75 * base) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        h = ad.constant([[1.0, 0.0, 0.5, 0.5]])
        loss = sv.nll_survival_loss(h, 1, 0)
        assert math.isfinite(loss.item())
        # log(eps) terms dominate at the clamp
        assert loss.item() > 10.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            sv.nll_survival_loss(ad.constant([[0.5, 0.5]]), 2, 0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = ad.Tensor(rng.normal(size=(1, 4)), requires_grad=True)

        def loss_fn():
            return sv.nll_survival_loss(ad.sigmoid(logits), 2, 0)

        err = ad.finite_diff_check(loss_fn, {"z": logits}, eps=1e-6)
        assert err < 1e-7


class TestRiskScore:
    def test_hand_case(self):
        # S = [0.8, 0.56, 0.336, 0.168], risk = -1.864
        assert abs(sv.risk_score([0.2, 0.3, 0.4, 0.5]) + 1.864) < 1e-12

    def test_higher_hazard_higher_risk(self):
        assert sv.risk_score([0.9, 0.9]) > sv.risk_score([0.1, 0.1])


def naive_c_index(risks, times, censor):
    num = 0.0
    den = 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if censor[i] == 0 and times[i] < times[j]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    if den == 0:
        raise sv.UndefinedMetricError("no comparable pairs")
    return num / den


def naive_km(times, events):
    """Product limit by a pass over the distinct times, masks recounted at each."""
    times, events = np.asarray(times, dtype=np.float64), np.asarray(events)
    if times.size == 0:
        raise ValueError("empty sample")
    out_t, out_s, s = [], [], 1.0
    for t in np.unique(times):
        d = int(events[times == t].sum())
        if d > 0:
            s *= 1.0 - d / int((times >= t).sum())
            out_t.append(float(t))
            out_s.append(s)
    return np.asarray(out_t), np.asarray(out_s)


def naive_ipcw(risks, times, censor, tau=None):
    """Uno's C by a double loop; G(t-) read off `naive_km` one step at a time."""
    if tau is None:
        if all(c != 0 for c in censor):
            raise sv.UndefinedMetricError("no uncensored cases")
        tau = max(t for t, c in zip(times, censor) if c == 0)
    g_t, g_s = naive_km(times, censor)
    num = den = 0.0
    for i in range(len(times)):
        if censor[i] != 0 or not times[i] < tau:
            continue
        g = 1.0
        for t, s in zip(g_t, g_s):
            if t < times[i]:
                g = s
        for j in range(len(times)):
            if times[j] > times[i]:
                den += 1.0 / g ** 2
                num += (1.0 if risks[i] > risks[j] else
                        0.5 if risks[i] == risks[j] else 0.0) / g ** 2
    if den == 0.0:
        raise sv.UndefinedMetricError("no comparable pairs under truncation")
    return num / den


def naive_log_rank(ta, ea, tb, eb):
    """chi2 from per-time counts taken by scanning every case."""
    a, b = list(zip(ta, ea)), list(zip(tb, eb))
    obs = exp = var = 0.0
    for t in sorted({t for t, e in a + b if e == 1}):
        n_a = sum(1 for u, _ in a if u >= t)
        n_b = sum(1 for u, _ in b if u >= t)
        d_a = sum(1 for u, e in a if u == t and e == 1)
        d = d_a + sum(1 for u, e in b if u == t and e == 1)
        n = n_a + n_b
        obs += d_a
        exp += n_a * d / n
        if n > 1:
            var += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    if var == 0.0:
        raise sv.UndefinedMetricError("log-rank variance is zero")
    return (obs - exp) ** 2 / var


def outcome(fn, *args):
    """fn's value, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@st.composite
def tied_cohorts(draw):
    """Up to 80 cases, times and risks rounded to 0-2 decimals (so many tie),
    a censoring fraction anywhere in [0, 1]."""
    n = draw(st.integers(0, 80))
    frac = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    times = np.round(rng.exponential(2.0, n), draw(st.integers(0, 2)))
    risks = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    censor = (rng.uniform(size=n) < frac).astype(np.int64)
    return risks, times, censor


class TestCIndex:
    def test_perfect_and_reversed(self):
        times = [1.0, 2.0, 3.0]
        censor = [0, 0, 0]
        assert sv.c_index([3.0, 2.0, 1.0], times, censor) == 1.0
        assert sv.c_index([1.0, 2.0, 3.0], times, censor) == 0.0

    def test_all_ties_half(self):
        assert sv.c_index([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0, 0, 0]) == 0.5

    def test_censored_cases_not_pair_anchors(self):
        # the censored shortest time contributes no pairs, so only the
        # (t=2, t=3) pair counts and it is concordant
        val = sv.c_index([9.0, 2.0, 1.0], [1.0, 2.0, 3.0], [1, 0, 0])
        assert val == 1.0

    def test_no_comparable_pairs(self):
        with pytest.raises(sv.UndefinedMetricError):
            sv.c_index([1.0, 2.0], [5.0, 5.0], [0, 0])
        with pytest.raises(sv.UndefinedMetricError):
            sv.c_index([1.0, 2.0], [1.0, 2.0], [1, 1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_naive_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        risks = rng.normal(size=n)
        times = rng.exponential(5.0, size=n)
        censor = (rng.uniform(size=n) < 0.3).astype(int)
        if (censor == 1).all():
            censor[0] = 0
        assert sv.c_index(risks, times, censor) == pytest.approx(
            naive_c_index(risks, times, censor), abs=1e-12)


class TestSortedMatchesOracles:
    """The sort-based routines against pairwise and sequential loops."""

    @settings(max_examples=150, deadline=None)
    @given(tied_cohorts())
    def test_c_index_equal(self, cohort):
        assert outcome(sv.c_index, *cohort) == outcome(naive_c_index, *cohort)

    @settings(max_examples=150, deadline=None)
    @given(tied_cohorts(), st.none() | st.floats(0.0, 6.0))
    def test_c_index_ipcw_within_1e12(self, cohort, tau):
        got = outcome(sv.c_index_ipcw, *cohort, tau)
        want = outcome(naive_ipcw, *cohort, tau)
        if isinstance(want, float):
            assert abs(got - want) <= 1e-12
        else:
            assert got is want

    @settings(max_examples=150, deadline=None)
    @given(tied_cohorts())
    def test_km_equal(self, cohort):
        _, times, censor = cohort
        got = outcome(sv.km_estimator, times, 1 - censor)
        want = outcome(naive_km, times, 1 - censor)
        if isinstance(want, tuple):
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
        else:
            assert got is want

    @settings(max_examples=150, deadline=None)
    @given(tied_cohorts(), st.integers(1, 79))
    def test_log_rank_equal(self, cohort, cut):
        _, times, censor = cohort
        if not 0 < cut < times.size:
            return
        args = (times[:cut], 1 - censor[:cut], times[cut:], 1 - censor[cut:])
        got = outcome(sv.log_rank_test, *args)
        want = outcome(naive_log_rank, *args)
        if isinstance(got, tuple):
            assert got == (want, sv.chi2_sf(want, 1))
        else:
            assert got is want


@pytest.mark.parametrize("fn", [sv.c_index, sv.c_index_ipcw])
def test_concordance_memory_stays_linear(fn):
    # one n x n boolean mask would take n^2 bytes: 400 MB at this n
    rng = np.random.default_rng(20)
    n = 20_000
    risks, times = rng.normal(size=n), rng.exponential(1.0, n)
    censor = (rng.uniform(size=n) < 0.3).astype(np.int64)
    tracemalloc.start()
    try:
        fn(risks, times, censor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


ROUTINES = {
    "c_index": (sv.c_index, ("risks", "times", "censor")),
    "c_index_ipcw": (sv.c_index_ipcw, ("risks", "times", "censor")),
    "km_estimator": (sv.km_estimator, ("times", "events")),
    "log_rank_test": (sv.log_rank_test,
                      ("times_a", "events_a", "times_b", "events_b")),
}


def _valid_args(names):
    return {name: ([0, 1, 1, 0] if name.startswith(("censor", "events"))
                   else [0.5, 1.0, 2.0, 3.0]) for name in names}


@pytest.mark.parametrize("routine", sorted(ROUTINES))
class TestInputGuard:
    def _rejects(self, routine, name, value):
        fn, names = ROUTINES[routine]
        args = _valid_args(names)
        args[name] = value
        with pytest.raises(sv.MetricInputError, match=name):
            fn(*args.values())

    def test_valid_inputs_accepted(self, routine):
        fn, names = ROUTINES[routine]
        fn(*_valid_args(names).values())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, routine, bad):
        for name in ROUTINES[routine][1]:
            if not name.startswith(("censor", "events")):
                self._rejects(routine, name, [0.5, bad, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
    def test_flag_outside_zero_one(self, routine, bad):
        for name in ROUTINES[routine][1]:
            if name.startswith(("censor", "events")):
                self._rejects(routine, name, [0, 1, bad, 0])

    def test_not_one_dimensional(self, routine):
        for name in ROUTINES[routine][1]:
            self._rejects(routine, name, np.ones((2, 2)))
            self._rejects(routine, name, 1.0)

    def test_unequal_lengths(self, routine):
        for name in ROUTINES[routine][1][1:]:
            if name != "times_b":  # the second group may differ in size
                self._rejects(routine, name, [0, 1, 0])


class TestKM:
    def test_hand_case(self):
        # events at 1, 2, 4; censored at 3
        ts, ss = sv.km_estimator([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        assert np.array_equal(ts, [1.0, 2.0, 4.0])
        assert np.allclose(ss, [0.75, 0.5, 0.0], atol=1e-15)

    def test_tied_events_and_censoring(self):
        # at t=2: 2 events among 3 at risk, censored case still in risk set
        ts, ss = sv.km_estimator([2.0, 2.0, 2.0], [1, 0, 1])
        assert np.array_equal(ts, [2.0])
        assert abs(ss[0] - 1.0 / 3.0) < 1e-15

    def test_no_events_flat_curve(self):
        ts, ss = sv.km_estimator([1.0, 2.0], [0, 0])
        assert ts.size == 0 and ss.size == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sv.km_estimator([], [])


class TestIPCW:
    def test_reduces_to_harrell_without_censoring(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 25
            risks = rng.normal(size=n)
            times = rng.exponential(3.0, size=n)
            censor = np.zeros(n, dtype=int)
            a = sv.c_index_ipcw(risks, times, censor)
            b = sv.c_index(risks, times, censor)
            assert abs(a - b) < 1e-12

    def test_hand_case_with_censoring(self):
        # censoring KM drops to 2/3 at t=2, so the t=3 anchor gets weight
        # (3/2)^2 = 2.25; num = 3 + 0, den = 3 + 2.25
        val = sv.c_index_ipcw([3.0, 1.0, 0.5, 2.0],
                              [1.0, 2.0, 3.0, 4.0], [0, 1, 0, 0])
        assert abs(val - 3.0 / 5.25) < 1e-12

    def test_tau_truncates_anchors(self):
        risks = [3.0, 2.0, 1.0, 0.5]
        times = [1.0, 2.0, 3.0, 4.0]
        censor = [0, 0, 0, 0]
        full = sv.c_index_ipcw(risks, times, censor, tau=5.0)
        trunc = sv.c_index_ipcw(risks, times, censor, tau=1.5)
        assert full == 1.0 and trunc == 1.0  # both concordant, fewer pairs

    def test_no_uncensored_rejected(self):
        with pytest.raises(sv.UndefinedMetricError):
            sv.c_index_ipcw([1.0, 2.0], [1.0, 2.0], [1, 1])


class TestChi2:
    def test_reference_value(self):
        assert abs(sv.chi2_sf(3.841, 1) - 0.05) < 1e-3

    def test_boundaries(self):
        assert sv.chi2_sf(0.0, 1) == 1.0
        assert sv.chi2_sf(1e9, 1) < 1e-12

    def test_matches_scipy_stats(self):
        from scipy.stats import chi2 as chi2_dist
        for x in (0.1, 1.0, 2.5, 6.63, 10.0):
            for df in (1, 2, 5):
                assert abs(sv.chi2_sf(x, df) - chi2_dist.sf(x, df)) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sv.chi2_sf(-0.1, 1)


class TestLogRank:
    def test_hand_case(self):
        # A events at 1, 2; B events at 3, 4:
        # O_A = 2, E_A = 1/2 + 1/3, V = 1/4 + 2/9 -> chi2 = 49/17
        chi2, p = sv.log_rank_test([1.0, 2.0], [1, 1], [3.0, 4.0], [1, 1])
        assert abs(chi2 - 49.0 / 17.0) < 1e-12
        assert abs(p - 0.08955507441364244) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        ta, tb = rng.exponential(2, 12), rng.exponential(4, 15)
        ea = (rng.uniform(size=12) < 0.8).astype(int)
        eb = (rng.uniform(size=15) < 0.8).astype(int)
        assert sv.log_rank_test(ta, ea, tb, eb) == pytest.approx(
            sv.log_rank_test(tb, eb, ta, ea), abs=1e-12)

    def test_identical_groups_not_significant(self):
        t = [1.0, 2.0, 3.0, 4.0, 5.0]
        e = [1, 1, 1, 1, 1]
        chi2, p = sv.log_rank_test(t, e, t, e)
        assert chi2 < 1e-12 and p > 0.999

    def test_separated_groups_significant(self):
        ta = np.linspace(1, 2, 20)
        tb = np.linspace(10, 11, 20)
        chi2, p = sv.log_rank_test(ta, np.ones(20, int), tb, np.ones(20, int))
        assert p < 1e-6

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            sv.log_rank_test([], [], [1.0], [1])

    def test_zero_variance_rejected(self):
        with pytest.raises(sv.UndefinedMetricError):
            sv.log_rank_test([1.0], [0], [2.0], [0])
