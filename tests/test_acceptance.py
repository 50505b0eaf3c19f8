"""Acceptance suite: ten end-to-end checks with one pass/fail line each.

Each criterion prints `criterion N: PASS/FAIL` (also echoed in the pytest
terminal summary) and fails the test run if its bound is violated.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from survstream import autodiff as ad
from survstream import survival as sv
from survstream.bagio import ingest_stream, save_stream
from survstream.fcr import ReplayBuffer, ReplayItem, replay_loss, total_loss
from survstream.harness import (MethodConfig, average_performance, forgetting,
                                run_sequence)
from survstream.model import ModelConfig, SurvivalModel
from survstream.moe import MoEModule, topk_s_select
from survstream.reports import emit_km_csv
from survstream.synthdata import GeneratorConfig, generate_stream
from tests.helpers import (feature_constraint_loss, finite_diff_check,
                           streams_equal)

RESULTS: list[tuple[int, bool, str]] = []


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    RESULTS.append((n, ok, detail))
    assert ok, line


def tiny_model(seed=0, **overrides):
    kw = dict(d_patch=4, genomic_width=5, latent=6, hidden=6, attn_dim=3,
              n_bins=4, n_experts=4, k_top=1)
    kw.update(overrides)
    rng = np.random.default_rng(seed)
    model = SurvivalModel(ModelConfig(**kw), rng)
    model.add_task(0, rng)
    return model


def tiny_case(rng, cid="c0", d_patch=4, group_dims=(4, 3, 2, 5, 3, 4)):
    from survstream.data import CaseRecord
    return CaseRecord(
        case_id=cid,
        patches=rng.normal(size=(3, d_patch)),
        groups=tuple(rng.normal(size=k) for k in group_dims),
        time=float(rng.exponential(5.0)),
        censored=int(rng.uniform() < 0.3),
        label=int(rng.integers(0, 4)),
    )


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity of the full combined loss


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    model = tiny_model(seed=1)
    batch = [tiny_case(rng, cid=f"b{i}") for i in range(2)]
    items = []
    for i, case in enumerate(batch):
        f_p, f_g, f_f = model.feature_triple(case, 0)
        # nonzero drift so the feature term actually contributes gradient
        items.append(ReplayItem(case, 0, f_p + 0.2, f_g - 0.1, f_f + 0.1))
    params = model.trainable_parameters(0)

    def loss_fn():
        current = None
        for case in batch:
            hazards, *_ = model.forward(case, 0)
            term = sv.nll_survival_loss(hazards, case.label, case.censored)
            current = term if current is None else ad.add(current, term)
        current = ad.scale(current, 0.5)
        return total_loss(current, feature_constraint_loss(model, items),
                          replay_loss(model, items), 0.7, 0.6)

    rel_err = finite_diff_check(loss_fn, params, eps=1e-5)
    elapsed = time.perf_counter() - t0
    _report(1, rel_err < 1e-4 and elapsed < 30.0,
            f"relative error {rel_err:.3g} over {len(params)} tensors, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: survival-metric oracles


def _oracle_c_index(risks, times, censor):
    num, den = 0.0, 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if censor[i] == 0 and times[i] < times[j]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den


def _oracle_censor_km(times, censor):
    """Survival curve of the censoring process, built by sequential removal."""
    order = np.argsort(times, kind="stable")
    s, curve = 1.0, []
    i, n = 0, len(times)
    ts, cs = np.asarray(times)[order], np.asarray(censor)[order]
    while i < n:
        t = ts[i]
        d = 0
        at_risk = n - i
        while i < n and ts[i] == t:
            d += cs[i]
            i += 1
        if d:
            s *= 1.0 - d / at_risk
            curve.append((t, s))
    return curve


def _oracle_ipcw(risks, times, censor, tau):
    curve = _oracle_censor_km(times, censor)

    def g_left(t):
        s = 1.0
        for tt, ss in curve:
            if tt < t:
                s = ss
        return s

    num, den = 0.0, 0.0
    n = len(times)
    for i in range(n):
        if censor[i] == 1 or times[i] >= tau:
            continue
        w = 1.0 / g_left(times[i]) ** 2
        for j in range(n):
            if times[j] > times[i]:
                den += w
                if risks[i] > risks[j]:
                    num += w
                elif risks[i] == risks[j]:
                    num += 0.5 * w
    return num / den


def _oracle_log_rank(ta, ea, tb, eb):
    ta, tb = np.asarray(ta, float), np.asarray(tb, float)
    ea, eb = np.asarray(ea), np.asarray(eb)
    obs, exp, var = 0.0, 0.0, 0.0
    for t in sorted(set(np.concatenate([ta[ea == 1], tb[eb == 1]]))):
        na = (ta >= t).sum()
        nb = (tb >= t).sum()
        n = na + nb
        d = (ea[ta == t] == 1).sum() + (eb[tb == t] == 1).sum()
        da = (ea[ta == t] == 1).sum()
        obs += da
        exp += na * d / n
        if n > 1:
            var += d * (na / n) * (nb / n) * (n - d) / (n - 1)
    return (obs - exp) ** 2 / var


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(2)
    worst_ipcw = 0.0
    worst_lr = 0.0
    exact = True
    for _ in range(50):
        n = 100
        risks = rng.normal(size=n)
        times = rng.exponential(5.0, size=n)
        censor = (rng.uniform(size=n) < 0.3).astype(int)
        if censor.all():
            censor[0] = 0
        exact &= sv.c_index(risks, times, censor) == _oracle_c_index(
            risks, times, censor)
        tau = float(times[censor == 0].max())
        worst_ipcw = max(worst_ipcw, abs(
            sv.c_index_ipcw(risks, times, censor)
            - _oracle_ipcw(risks, times, censor, tau)))
        half = n // 2
        chi2, _ = sv.log_rank_test(times[:half], 1 - censor[:half],
                                   times[half:], 1 - censor[half:])
        worst_lr = max(worst_lr, abs(chi2 - _oracle_log_rank(
            times[:half], 1 - censor[:half], times[half:], 1 - censor[half:])))
    ts, ss = sv.km_estimator([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
    km_ok = (np.array_equal(ts, [1.0, 2.0, 4.0])
             and np.allclose(ss, [0.75, 0.5, 0.0], atol=1e-15))
    ts2, ss2 = sv.km_estimator([2.0, 2.0, 2.0], [1, 0, 1])
    km_ok &= np.array_equal(ts2, [2.0]) and abs(ss2[0] - 1 / 3) < 1e-15
    chi_ok = abs(sv.chi2_sf(3.841, 1) - 0.05) < 1e-3
    _report(2, exact and worst_ipcw < 1e-9 and worst_lr < 1e-9
            and km_ok and chi_ok,
            f"c_index exact on 50 instances, ipcw dev {worst_ipcw:.2g}, "
            f"log-rank dev {worst_lr:.2g}, km hand cases ok={km_ok}, "
            f"chi2_sf(3.841,1)={sv.chi2_sf(3.841, 1):.5f}")


# ---------------------------------------------------------------------------
# criterion 3: routing invariants over 10,000 gating calls


def test_criterion_3_routing_invariants():
    rng = np.random.default_rng(0)
    n_calls = 10_000
    counts = np.zeros(8)
    support_ok = True
    weights_ok = True
    for _ in range(n_calls):
        g = topk_s_select(ad.constant(rng.normal(size=8)), k_top=2,
                          shared_idx=7)
        selected, weights = g.selected[0], g.weights.data[0]  # the one row
        support_ok &= selected.sum() == 3 and selected[7]
        weights_ok &= (weights >= 0).all() and abs(weights.sum() - 1) < 1e-12
        off = [i for i in range(8) if not selected[i]]
        weights_ok &= all(weights[i] == 0.0 for i in off)
        counts += selected
    p = 2.0 / 7.0
    sigma = math.sqrt(p * (1 - p) / n_calls)
    dev = np.abs(counts[:7] / n_calls - p)
    prop_ok = (dev < 3 * sigma).all()
    _report(3, support_ok and weights_ok and prop_ok,
            f"support/weights ok over {n_calls} calls, max proportion "
            f"deviation {dev.max():.4f} < 3 sigma ({3 * sigma:.4f})")


# ---------------------------------------------------------------------------
# criterion 4: integration-mode reductions


def test_criterion_4_integration_reductions():
    rng = np.random.default_rng(4)
    append = MoEModule(6, 6, 4, 2, "append", 5, rng)
    append.add_task_router(0, rng)
    xs = [rng.normal(size=(1, 6)) for _ in range(20)]
    identity_ok = all(
        np.array_equal(append.forward(ad.constant(x), 0)[0].data, x)
        for x in xs)
    # k_top = 0 forces the gate onto the shared expert alone
    replace = MoEModule(6, 3, 4, 0, "replace", 5, rng)
    replace.add_task_router(0, rng)
    shared = replace.experts[replace.shared_idx]
    shared_ok = all(
        np.array_equal(replace.forward(ad.constant(x), 0)[0].data,
                       shared(ad.constant(x)).data)
        for x in xs)
    _report(4, identity_ok and shared_ok,
            f"append identity exact={identity_ok}, "
            f"shared-only replace exact={shared_ok}")


# ---------------------------------------------------------------------------
# criterion 5: reservoir inclusion frequencies


def test_criterion_5_reservoir_property():
    t0 = time.perf_counter()
    m, n, trials = 32, 1000, 2000
    rng = np.random.default_rng(18)
    hits = np.zeros(n)
    tiny = np.zeros((1, 1))
    for _ in range(trials):
        buf = ReplayBuffer(m)
        for i in range(n):
            buf.reservoir_update(ReplayItem(None, i, tiny, tiny, tiny), rng)
        for it in buf.items:
            hits[it.task_id] += 1
    p = m / n
    sigma = math.sqrt(p * (1 - p) / trials)
    dev = np.abs(hits / trials - p)
    elapsed = time.perf_counter() - t0
    _report(5, (dev < 3 * sigma).all() and elapsed < 60.0,
            f"max inclusion deviation {dev.max():.4f} < 3 sigma "
            f"({3 * sigma:.4f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: bit-identical reduction chain


def test_criterion_6_reduction_chain():
    gen = GeneratorConfig(n_tasks=2, cases_per_task=60, n_patches=(3, 6),
                          d_patch=8, group_dims=(5, 4, 3, 6, 2, 4), seed=6)
    stream = generate_stream(gen)
    kw = dict(latent=8, hidden=10, n_experts=4, k_top=1, epochs=2, seed=6)
    trajectories = {}
    for method, weights in (("finetune", {}),
                            ("fcr", dict(alpha=0.0, beta=0.0)),
                            ("er", dict(alpha=0.0, beta=0.0))):
        hashes = []

        def hook(model):
            digest = hashlib.sha256()
            for name in sorted(model.parameters()):
                digest.update(model.parameters()[name].data.tobytes())
            hashes.append(digest.hexdigest())

        run_sequence(MethodConfig(method=method, **weights, **kw), stream,
                     step_hook=hook)
        trajectories[method] = hashes
    same_fcr = trajectories["finetune"] == trajectories["fcr"]
    same_er = trajectories["finetune"] == trajectories["er"]
    _report(6, same_fcr and same_er and len(trajectories["finetune"]) > 0,
            f"{len(trajectories['finetune'])} per-step states, "
            f"fcr(0,0) identical={same_fcr}, er(0,0) identical={same_er}")


# ---------------------------------------------------------------------------
# criteria 7 + 8: desk-scale continual-learning experiment (shared runs)


@pytest.fixture(scope="module")
def cl_experiment(tmp_path_factory):
    t0 = time.perf_counter()
    out = {"summaries": {}, "matrices": {}, "km_p": []}
    km_dir = tmp_path_factory.mktemp("km")
    for seed in range(5):
        stream = generate_stream(GeneratorConfig(seed=seed))
        for method in ("finetune", "fcr"):
            cfg = MethodConfig(method=method, epochs=6, seed=seed)
            res = run_sequence(cfg, stream)
            mat = res.matrices["c_index"].values
            out["matrices"][(method, seed)] = mat
            out["summaries"][(method, seed)] = {
                "average": average_performance(mat),
                "forgetting": forgetting(mat)}
            if method == "fcr":
                task = stream.tasks[-1]
                _, p = emit_km_csv(res.model, task,
                                   km_dir / f"km_seed{seed}.csv")
                out["km_p"].append(p)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_7_cl_ordering(cl_experiment):
    seeds = range(5)
    med = lambda xs: float(np.median(list(xs)))
    ft_avg = med(cl_experiment["summaries"][("finetune", s)]["average"]
                 for s in seeds)
    fcr_avg = med(cl_experiment["summaries"][("fcr", s)]["average"]
                  for s in seeds)
    ft_forget = med(cl_experiment["summaries"][("finetune", s)]["forgetting"]
                    for s in seeds)
    fcr_forget = med(cl_experiment["summaries"][("fcr", s)]["forgetting"]
                     for s in seeds)
    diag_gaps = []
    for s in seeds:
        mat = cl_experiment["matrices"][("fcr", s)]
        diag = np.mean([mat[j + 1, j] for j in range(mat.shape[1])])
        diag_gaps.append(diag - mat[0].mean())
    gap = med(diag_gaps)
    elapsed = cl_experiment["elapsed"]
    ok = (fcr_avg >= ft_avg and fcr_forget <= ft_forget
          and ft_forget > 0.02 and gap > 0 and elapsed < 600.0)
    _report(7, ok,
            f"median avg fcr {fcr_avg:.3f} >= finetune {ft_avg:.3f}, "
            f"median forgetting fcr {fcr_forget:.3f} <= finetune "
            f"{ft_forget:.3f} (> 0.02), diagonal-over-baseline gap "
            f"{gap:.3f}, {elapsed:.0f}s")


def test_criterion_8_km_stratification(cl_experiment):
    ps = cl_experiment["km_p"]
    n_sig = sum(p < 0.05 for p in ps)
    _report(8, n_sig >= 4,
            f"log-rank p < 0.05 in {n_sig}/5 seeds "
            f"(p values {['%.2g' % p for p in ps]})")


# ---------------------------------------------------------------------------
# criterion 9: loss-formula unit cases


def test_criterion_9_loss_hand_cases():
    h = ad.constant([[0.2, 0.3, 0.4, 0.5]])
    # event in bin 2
    a = sv.nll_survival_loss(h, 2, 0).item()
    a_ref = -(math.log(0.8) + math.log(0.7)) - math.log(0.4)
    # event in the first bin: loss = -log h[0]
    b = sv.nll_survival_loss(ad.constant([[0.25, 0.5, 0.5, 0.5]]), 0, 0).item()
    b_ref = -math.log(0.25)
    # censored in bin 1
    c = sv.nll_survival_loss(h, 1, 1).item()
    c_ref = -(math.log(0.8) + math.log(0.7))
    nll_ok = max(abs(a - a_ref), abs(b - b_ref), abs(c - c_ref)) < 1e-9
    t1 = total_loss(ad.constant(3.0), ad.constant(4.0), ad.constant(0.5),
                    0.25, 2.0).item()
    t2 = total_loss(ad.constant(1.5), ad.constant(0.0), ad.constant(2.0),
                    2.4e-3, 0.5).item()
    total_ok = t1 == 3.0 + 0.25 * 4.0 + 2.0 * 0.5 and t2 == 1.5 + 0.5 * 2.0
    _report(9, nll_ok and total_ok,
            f"nll deviations < 1e-9 (max {max(abs(a - a_ref), abs(b - b_ref), abs(c - c_ref)):.2g}), "
            f"total_loss arithmetic exact={total_ok}")


# ---------------------------------------------------------------------------
# criterion 10: lossless round-trip ingestion


def test_criterion_10_round_trip(tmp_path):
    cfg = GeneratorConfig(seed=0)
    stream = generate_stream(cfg)
    save_stream(stream, tmp_path / "stream")
    back = ingest_stream(tmp_path / "stream", n_bins=cfg.n_bins)
    equal = streams_equal(stream, back)
    bins_equal = all(a.bins == b.bins
                     for a, b in zip(stream.tasks, back.tasks))
    _report(10, equal and bins_equal,
            f"bit-identical features={equal}, equal bin grids={bins_equal}")
