"""Output checks the benchmark runs on every run.

The pairwise oracles are deliberately the slowest correct implementation:
a double loop over pairs, with the censoring Kaplan-Meier weight recomputed
by its product definition. They are the reference the program's vectorised
or loop-based metrics must agree with to within `ORACLE_TOL`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-12
ORACLE_MAX_N = 300


def harrell_oracle(risks, times, censor) -> float | None:
    """Pairs (i, j) with t_i < t_j and i uncensored; ties in risk count 1/2."""
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if censor[i] != 0:
            continue
        for j in range(n):
            if times[i] < times[j]:
                den += 1.0
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den if den else None


def censoring_km(times, censor) -> list[tuple[float, float]]:
    """(s, G(s)) at each distinct time, G the product-limit censoring curve.

    G(s) multiplies (1 - censored_s / at_risk_s) over distinct times up to s,
    in ascending order, counting both by direct comparison.
    """
    curve = []
    g = 1.0
    for s in sorted(set(times)):
        c = sum(1 for x, k in zip(times, censor) if x == s and k != 0)
        if c:
            g *= 1.0 - c / sum(1 for x in times if x >= s)
        curve.append((s, g))
    return curve


def uno_oracle(risks, times, censor) -> float | None:
    """Uno's C: weight 1/G(t_i-)^2 on pairs t_i < t_j, t_i < tau, i uncensored."""
    unc = [t for t, c in zip(times, censor) if c == 0]
    if not unc:
        return None
    tau = max(unc)
    curve = censoring_km(times, censor)
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if censor[i] != 0 or not times[i] < tau:
            continue
        g = 1.0
        for s, gs in curve:
            if not s < times[i]:
                break
            g = gs
        w = 1.0 / (g * g)
        for j in range(n):
            if times[i] < times[j]:
                den += w
                if risks[i] > risks[j]:
                    num += w
                elif risks[i] == risks[j]:
                    num += 0.5 * w
    return num / den if den else None


def subsample(n: int, seed: int) -> np.ndarray:
    """Sorted indices of at most ORACLE_MAX_N cases, fixed by the seed."""
    if n <= ORACLE_MAX_N:
        return np.arange(n)
    return np.sort(np.random.default_rng([seed, 7]).choice(
        n, ORACLE_MAX_N, replace=False))


def check_concordance(name: str, value: float, risks, times, censor,
                      ipcw: bool) -> list[str]:
    """Compare one program-computed C-index with its oracle."""
    oracle = (uno_oracle if ipcw else harrell_oracle)(
        list(map(float, risks)), list(map(float, times)),
        list(map(int, censor)))
    if oracle is None:
        return [f"{name}: oracle has no comparable pairs"]
    if not abs(value - oracle) <= ORACLE_TOL:
        return [f"{name}: {value!r} differs from oracle {oracle!r}"]
    return []


def check_unit_interval(name: str, values) -> list[str]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        return [f"{name}: empty or non-finite"]
    if arr.min() < 0.0 or arr.max() > 1.0:
        return [f"{name}: outside [0, 1]"]
    return []


def check_km_curve(name: str, survival) -> list[str]:
    s = np.asarray(survival, dtype=np.float64)
    problems = check_unit_interval(name, s)
    if not problems and np.any(np.diff(s) > 0.0):
        problems.append(f"{name}: KM curve increases")
    return problems


def check_km_csv(path: Path) -> list[str]:
    """KM CSV written by the program: curves non-increasing, p in [0, 1]."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for group in ("low", "high"):
        surv = [float(r["survival"]) for r in rows if r["group"] == group]
        problems += check_km_curve(f"{path.name}:{group}", surv)
    problems += check_unit_interval(f"{path.name}:p",
                                    [float(r["p"]) for r in rows])
    return problems


def check_routing_rows(name: str, rows, k_top: int) -> list[str]:
    """Per (task, site), expert selection proportions sum to k_top + 1."""
    sums: dict[tuple, float] = {}
    for task, site, _expert, prop in rows:
        sums[(int(task), site)] = sums.get((int(task), site), 0.0) + float(prop)
    if not sums:
        return [f"{name}: no routing rows"]
    # the CSV keeps 9 significant digits per proportion
    return [f"{name}: task {t} site {s} proportions sum to {v!r}"
            for (t, s), v in sorted(sums.items())
            if not math.isclose(v, k_top + 1, abs_tol=1e-7)]


def check_routing_csv(path: Path, k_top: int) -> list[str]:
    with open(path, newline="") as fh:
        rows = [(r["task_id"], r["module_site"], r["expert_idx"],
                 r["proportion"]) for r in csv.DictReader(fh)]
    return check_routing_rows(path.name, rows, k_top)
