"""Discrete-time survival machinery and censored-data evaluation statistics.

Time is discretised into bins whose boundaries come from percentiles of the
uncensored follow-up times. A network predicts one conditional hazard per
bin; survival probabilities, the censored NLL loss, concordance indices,
Kaplan-Meier curves and the log-rank test are all built on top of that.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from . import autodiff as ad

HAZARD_EPS = 1e-7


class InsufficientEventsError(ValueError):
    """Too few (or degenerate) uncensored times to place bin boundaries."""


class UndefinedMetricError(ValueError):
    """A statistic has an empty comparison set (no comparable pairs, etc.)."""


class DegenerateWeightsError(ValueError):
    """IPCW weight 1/G(t-)^2 undefined because G(t-) = 0."""


class MetricInputError(ValueError):
    """A metric input with NaN or inf, a censor or event flag other than 0
    or 1, more than one dimension, or a length unlike its partners'."""


@dataclass(frozen=True)
class BinSpec:
    """Discrete time grid: n_bins bins separated by n_bins-1 boundaries."""

    n_bins: int
    boundaries: tuple[float, ...]

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("need at least 2 bins")
        if len(self.boundaries) != self.n_bins - 1:
            raise ValueError("boundary count must be n_bins - 1")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise InsufficientEventsError("boundaries must be strictly increasing")


@dataclass(frozen=True)
class SurvLossConfig:
    """censored_weight is the alpha_s factor scaling down the censored term."""

    censored_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.censored_weight <= 1.0:
            raise ValueError("censored_weight must lie in [0, 1]")


def compute_bins(times, censor, n_bins: int) -> BinSpec:
    """Bin boundaries at the i/n_bins percentiles of the uncensored times.

    Percentiles use linear interpolation between order statistics.
    """
    times = np.asarray(times, dtype=np.float64)
    censor = np.asarray(censor)
    uncensored = np.sort(times[censor == 0])
    if uncensored.size < n_bins:
        raise InsufficientEventsError(
            f"{uncensored.size} uncensored times for {n_bins} bins")
    qs = [100.0 * i / n_bins for i in range(1, n_bins)]
    bounds = np.percentile(uncensored, qs, method="linear")
    return BinSpec(n_bins, tuple(float(b) for b in bounds))


def assign_bin(t: float, spec: BinSpec) -> int:
    """Bin index of t; boundaries belong to the higher bin, last bin open."""
    return int(np.searchsorted(spec.boundaries, t, side="right"))


def hazards_to_survival(hazards) -> np.ndarray:
    """S[r] = prod_{u<=r} (1 - h[u])."""
    h = np.asarray(hazards, dtype=np.float64)
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("hazards must lie in [0, 1]")
    return np.cumprod(1.0 - h)


def nll_survival_loss(hazards: ad.Tensor, label: int, censored: int,
                      cfg: SurvLossConfig = SurvLossConfig()) -> ad.Tensor:
    """Censored negative log-likelihood on one case, as an autodiff scalar.

    `hazards` is a (1, n_bins) tensor of per-bin conditional hazards.
    Uncensored: -(log S(t_{Y-1}) + log h(t_Y)). Censored:
    -(1 - censored_weight) * log S(t_Y). Hazards are clamped away from
    {0, 1} before the logs.
    """
    n_bins = hazards.shape[1]
    if not 0 <= label < n_bins:
        raise ValueError(f"label {label} outside [0, {n_bins})")
    clamped = np.clip(hazards.data, HAZARD_EPS, 1.0 - HAZARD_EPS)
    # clamp as a constant offset so the graph stays differentiable where active
    h = ad.add(hazards, ad.constant(clamped - hazards.data))
    log_h = ad.log(h)
    log_1mh = ad.log(ad.sub(ad.constant(np.ones((1, n_bins))), h))
    if censored:
        surv_mask = np.zeros((n_bins, 1))
        surv_mask[:label + 1, 0] = 1.0
        log_surv = ad.matmul(log_1mh, ad.constant(surv_mask))
        return ad.scale(log_surv, -(1.0 - cfg.censored_weight))
    surv_mask = np.zeros((n_bins, 1))
    surv_mask[:label, 0] = 1.0  # S(t_{Y-1}); empty sum = log 1 = 0
    pick = np.zeros((n_bins, 1))
    pick[label, 0] = 1.0
    term = ad.add(ad.matmul(log_1mh, ad.constant(surv_mask)),
                  ad.matmul(log_h, ad.constant(pick)))
    return ad.scale(term, -1.0)


def risk_score(hazards) -> float:
    """Negative sum of survival probabilities; higher = shorter survival."""
    return float(-hazards_to_survival(hazards).sum())


def _columns(floats: dict, flags: dict) -> list[np.ndarray]:
    """The named arguments as 1-D arrays of one length: `floats` as finite
    float64, `flags` as given and holding only 0 and 1."""
    out = []
    for name, x in (*floats.items(), *flags.items()):
        flag = name in flags
        a = np.asarray(x) if flag else np.asarray(x, dtype=np.float64)
        if a.ndim != 1 or (out and a.size != out[0].size):
            want = f" of length {out[0].size}" if out else ""
            raise MetricInputError(f"{name} has shape {a.shape}, expected 1-D{want}")
        if not (((a == 0) | (a == 1)).all() if flag else np.isfinite(a).all()):
            raise MetricInputError(
                f"{name} holds {'a value other than 0 or 1' if flag else 'NaN or inf'}")
        out.append(a)
    return out


def _later_counts(risks: np.ndarray, times: np.ndarray):
    """Per case i: the number of cases j with t_j > t_i, and how many of those
    have r_j < r_i and r_j == r_i. O(n log n) comparisons, O(n) memory; each
    insertion into `seen` also shifts up to n list pointers (one memmove).

    Cases are visited by descending time; a group of equal times is counted
    against `seen`, the sorted risks of all later cases, before it joins it.
    """
    order = np.argsort(-times, kind="stable")
    t_desc = times[order]
    ends = (np.flatnonzero(np.r_[t_desc[1:] != t_desc[:-1], True]) + 1).tolist()
    idx, rs = order.tolist(), risks[order].tolist()
    later, lower, equal = ([0] * times.size for _ in range(3))
    seen: list[float] = []
    for a, b in zip([0, *ends[:-1]], ends):
        for i, r in zip(idx[a:b], rs[a:b]):
            lo = bisect_left(seen, r)
            later[i], lower[i], equal[i] = len(seen), lo, bisect_right(seen, r, lo) - lo
        for r in rs[a:b]:
            insort(seen, r)
    return np.array(later), np.array(lower), np.array(equal)


def c_index(risks, times, censor) -> float:
    """Harrell-style concordance over pairs (i, j): t_i < t_j, i uncensored.
    Sort-based (`_later_counts`): O(n log n) comparisons, O(n) memory."""
    risks, times, censor = _columns({"risks": risks, "times": times},
                                    {"censor": censor})
    later, lower, equal = _later_counts(risks, times)
    anchor = censor == 0
    n_pairs = later[anchor].sum()
    if n_pairs == 0:
        raise UndefinedMetricError("no comparable pairs")
    concordant = lower[anchor].sum() + 0.5 * equal[anchor].sum()
    return float(concordant / n_pairs)


def km_estimator(times, events) -> tuple[np.ndarray, np.ndarray]:
    """Product-limit survival estimate at the distinct event times.

    `events` uses 1 = event occurred. Ties at one time point: all events are
    processed before censored cases leave the risk set. Returns (event_times,
    survival) step-curve arrays. O(n log n) time, O(n) memory.
    """
    times, events = _columns({"times": times}, {"events": events})
    if times.size == 0:
        raise ValueError("empty sample")
    uniq, inv, count = np.unique(times, return_inverse=True, return_counts=True)
    d = np.bincount(inv[events == 1], minlength=uniq.size)
    n_risk = times.size - np.cumsum(count) + count
    keep = d > 0
    # cumprod multiplies in order, as a running product would
    return uniq[keep], np.cumprod(1.0 - d[keep] / n_risk[keep])


def c_index_ipcw(risks, times, censor, tau: float | None = None) -> float:
    """Uno's censoring-weighted concordance index.

    Pairs (i, j) with t_i < t_j, t_i < tau, i uncensored get weight
    1 / G(t_i-)^2 where G is the Kaplan-Meier estimate of the censoring
    distribution. Defaults tau to the maximum uncensored time. Sort-based
    (`_later_counts`): O(n log n) comparisons, O(n) memory.
    """
    risks, times, censor = _columns({"risks": risks, "times": times},
                                    {"censor": censor})
    if tau is None:
        unc = times[censor == 0]
        if unc.size == 0:
            raise UndefinedMetricError("no uncensored cases")
        tau = float(unc.max())
    later, lower, equal = _later_counts(risks, times)
    anchors = np.flatnonzero((censor == 0) & (times < tau) & (later > 0))
    g_t, g_s = km_estimator(times, censor)  # censoring distribution
    # G(t-): the curve's value before its first step at or after t
    g = np.r_[1.0, g_s][np.searchsorted(g_t, times[anchors], side="left")]
    if (g <= 0.0).any():
        raise DegenerateWeightsError(
            f"G(t-) = 0 at t = {times[anchors[np.argmax(g <= 0.0)]]}")
    num = den = 0.0
    for w, n_later, lo, eq in zip((1.0 / (g * g)).tolist(), later[anchors].tolist(),
                                  lower[anchors].tolist(), equal[anchors].tolist()):
        den += w * n_later
        num += w * (lo + 0.5 * eq)
    if den == 0.0:
        raise UndefinedMetricError("no comparable pairs under truncation")
    return float(num / den)


def chi2_sf(x: float, df: int = 1) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if x < 0.0:
        raise ValueError("chi2_sf requires x >= 0")
    return float(gammaincc(df / 2.0, x / 2.0))


def log_rank_test(times_a, events_a, times_b, events_b) -> tuple[float, float]:
    """Two-group log-rank test; returns (chi2, p) with 1 degree of freedom.
    O(n log n) time, O(n) memory."""
    times_a, events_a = _columns({"times_a": times_a}, {"events_a": events_a})
    times_b, events_b = _columns({"times_b": times_b}, {"events_b": events_b})
    if times_a.size == 0 or times_b.size == 0:
        raise ValueError("both groups must be nonempty")
    ev_a = np.sort(times_a[events_a == 1])
    at, d_at = np.unique(np.r_[ev_a, times_b[events_b == 1]], return_counts=True)
    n_a_at = times_a.size - np.searchsorted(np.sort(times_a), at)
    n_b_at = times_b.size - np.searchsorted(np.sort(times_b), at)
    d_a_at = np.searchsorted(ev_a, at, side="right") - np.searchsorted(ev_a, at)
    observed_a = expected_a = variance = 0.0
    # ascending time, one scalar at a time: np.sum would add pairwise
    for n_a, n_b, d, d_a in zip(n_a_at.tolist(), n_b_at.tolist(), d_at.tolist(),
                                d_a_at.tolist()):
        n = n_a + n_b
        observed_a += d_a
        expected_a += n_a * d / n
        if n > 1:
            variance += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    if variance == 0.0:
        raise UndefinedMetricError("log-rank variance is zero")
    chi2 = (observed_a - expected_a) ** 2 / variance
    return float(chi2), chi2_sf(chi2, 1)
