"""The benchmark's three workloads.

Each workload has a set-up (timed on its own, repeated, reported as
`setup_s`) and a unit of work the measuring loop repeats for the run's
length. A unit returns its wall time split into segments (one optimisation
step, one request or one metric call each, the same segments in the same
order on every repeat), the operations it attempted, a fingerprint of
everything it produced (repeated units and the traced unit must match it bit
for bit) and the raw values its checks and report need.
Every input is derived from the workload seed; the program only sees the
generated stream, checkpoint and risk vectors. NOTES.md says why each
workload exists and which layers it should and should not move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from survstream import bagio, checkpoint, cli, harness, survival, synthdata

import checks
from tracer import Patcher

BASELINES = ("finetune", "joint", "er", "derpp")


@dataclass
class Unit:
    seconds: float
    segments: list[float]    # consecutive wall times; they sum to `seconds`
    ops: int
    fingerprint: str
    data: dict = field(default_factory=dict)    # for checks; first unit only
    stats: dict = field(default_factory=dict)   # for the report; every unit


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _segments(t0: float, marks: list[float], t1: float) -> list[float]:
    return np.diff([t0, *marks, t1]).tolist()


def _array_bytes(arrays: dict) -> bytes:
    return b"".join(k.encode() + np.ascontiguousarray(arrays[k]).tobytes()
                    for k in sorted(arrays))


def _tree_digest(root: Path) -> str:
    """Digest of every file under root; .npz by array content (the zip
    container carries write times)."""
    parts = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        parts.append(str(path.relative_to(root)))
        if path.suffix == ".npz":
            with np.load(path) as z:
                parts.append(_array_bytes({k: z[k] for k in z.files}))
        else:
            parts.append(path.read_bytes())
    return _digest(*parts)


# ---------------------------------------------------------------------------
# continual training through `survstream run`


class ClProbe:
    """Step timing and result capture around one `survstream run`.

    Installed in traced and untraced units alike, so the traced-minus-
    untraced difference is the tracer's alone. It wraps the public
    `AdamW.step` (one call per optimisation step), `train_task` and
    `_train_joint` (training time), `c_index` (every epoch's validation and
    every matrix row call it, so a step interval that contains a call is an
    epoch's first step and is excluded) and `run_sequence` (the results).
    """

    def __init__(self):
        self.results = []
        self.concordance: list[tuple] = []   # (ipcw, value, risks, times, censor)
        self.intervals: list[float] = []
        self.marks: list[float] = []         # every step's return time
        self.train_s = 0.0
        self.steps = 0
        self._last: float | None = None
        self._dirty = False
        self._patcher = Patcher()

    def __enter__(self):
        p = self._patcher
        p.method(harness.AdamW, "step", self._on_step)
        p.function(harness, "c_index", lambda f: self._on_concordance(f, False))
        p.function(harness, "c_index_ipcw",
                   lambda f: self._on_concordance(f, True))
        p.function(harness, "run_sequence", self._capture)
        p.function(harness, "train_task", self._timed)
        if hasattr(harness, "_train_joint"):
            p.function(harness, "_train_joint", self._timed)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _on_step(self, step):
        def wrapped(opt, grads):
            out = step(opt, grads)
            now = perf_counter()
            if self._last is not None and not self._dirty:
                self.intervals.append(now - self._last)
            self._last, self._dirty = now, False
            self.marks.append(now)
            self.steps += 1
            return out
        return wrapped

    def _on_concordance(self, fn, ipcw: bool):
        def wrapped(risks, times, censor, *args, **kwargs):
            self._dirty = True
            value = fn(risks, times, censor, *args, **kwargs)
            self.concordance.append((ipcw, value, risks, times, censor))
            return value
        return wrapped

    def _capture(self, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result
        return wrapped

    def _timed(self, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.train_s += perf_counter() - t0
        return wrapped


@dataclass
class ContinualTraining:
    """`survstream run` on a saved synthetic stream: fit, reports, files."""

    methods: tuple[str, ...]
    n_tasks: int = 3
    cases_per_task: int = 60
    epochs: int = 2
    run_keys: dict = field(default_factory=dict)  # extra config keys (tests)

    def setup(self, seed: int, work: Path) -> None:
        stream = synthdata.generate_stream(synthdata.GeneratorConfig(
            n_tasks=self.n_tasks, cases_per_task=self.cases_per_task,
            seed=seed))
        bagio.save_stream(stream, work / "stream")
        config = {"source": {"type": "directory", "path": str(work / "stream")},
                  "methods": list(self.methods), "seeds": [seed],
                  "output_dir": str(work / "runs"), "epochs": self.epochs,
                  **self.run_keys}
        (work / "config.json").write_text(json.dumps(config))
        self.work = work
        self.k_top = self.run_keys.get("k_top", harness.MethodConfig.k_top)

    def unit(self, tracer) -> Unit:
        runs = self.work / "runs"
        shutil.rmtree(runs, ignore_errors=True)
        with tracer, ClProbe() as probe:
            t0 = perf_counter()
            cli.run_experiment(self.work / "config.json")
            t1 = perf_counter()
        parts = [_tree_digest(runs)]
        for r in probe.results:
            parts += [_array_bytes({m: pm.values for m, pm in r.matrices.items()}),
                      _array_bytes(r.model.get_state())]
        return Unit(t1 - t0, _segments(t0, probe.marks, t1),
                    len(self.methods), _digest(*parts),
                    {"probe": probe},
                    {"intervals": probe.intervals, "steps": probe.steps,
                     "train_s": probe.train_s})

    def check(self, unit: Unit) -> list[str]:
        probe = unit.data["probe"]
        problems = []
        if len(probe.results) != len(self.methods):
            problems.append(f"{len(probe.results)} results for "
                            f"{len(self.methods)} methods")
        for method, r in zip(self.methods, probe.results):
            k = r.stream.n_tasks
            rows = [0, k] if method == "joint" else range(k + 1)
            for name, pm in r.matrices.items():
                problems += checks.check_unit_interval(
                    f"{method} matrix {name}", pm.values[list(rows)])
            problems += checks.check_routing_rows(f"{method} routing",
                                                  r.routing, self.k_top)
        for run_dir in sorted((self.work / "runs").glob("*_seed*")):
            for km in sorted(run_dir.glob("km_task*.csv")):
                problems += checks.check_km_csv(km)
            problems += checks.check_routing_csv(run_dir / "routing.csv",
                                                 self.k_top)
        for i, (ipcw, value, risks, times, censor) in enumerate(probe.concordance):
            problems += checks.check_concordance(
                f"c_index call {i}", value, risks, times, censor, ipcw)
        return problems

    def report(self, units: list[Unit]) -> dict:
        intervals = np.array([x for u in units
                              for x in u.stats["intervals"]]) * 1e3
        steps = sum(u.stats["steps"] for u in units)
        train_s = sum(u.stats["train_s"] for u in units)
        out = {"train_steps_per_s": (steps / train_s, "steps/s"),
               "step_samples": (intervals.size, "count"),
               "step_ms_p50": (float(np.percentile(intervals, 50)), "ms")}
        # a percentile is reported only with at least ten samples beyond it
        if intervals.size * 0.01 >= 10:
            out["step_ms_p99"] = (float(np.percentile(intervals, 99)), "ms")
        for method, r in zip(self.methods, units[0].data["probe"].results):
            summary = r.summary()["c_index"]
            suffix = f".{method}" if len(self.methods) > 1 else ""
            out[f"avg_c_index{suffix}"] = (summary["average"], "-")
            if "forgetting" in summary:
                out[f"forgetting{suffix}"] = (summary["forgetting"], "-")
        return out


# ---------------------------------------------------------------------------
# read path: km and routing verbs plus one performance-matrix row


@dataclass
class EvalCohort:
    """For every task: `survstream km`, `survstream routing`, one matrix row."""

    n_tasks: int = 3
    cases_per_task: int = 300

    def setup(self, seed: int, work: Path) -> None:
        stream = synthdata.generate_stream(synthdata.GeneratorConfig(
            n_tasks=self.n_tasks, cases_per_task=self.cases_per_task,
            seed=seed))
        bagio.save_stream(stream, work / "stream")
        cfg = harness.MethodConfig(seed=seed)
        checkpoint.save_model(harness.build_model(stream, cfg),
                              work / "model.npz")
        self.work, self.seed, self.k_top = work, seed, cfg.k_top

    def unit(self, tracer) -> Unit:
        ckpt, data = str(self.work / "model.npz"), str(self.work / "stream")
        tasks, marks, parts = [], [], []
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            for task in range(self.n_tasks):
                km_csv = self.work / f"km_{task}.csv"
                routing_csv = self.work / f"routing_{task}.csv"
                codes = [cli.main(["km", ckpt, data, str(task), str(km_csv)])]
                marks.append(perf_counter())
                codes.append(cli.main(["routing", ckpt, data, str(task),
                                       str(routing_csv)]))
                marks.append(perf_counter())
                row = tracer.call("bench.matrix_row", self._matrix_row, ckpt,
                                  data, task)
                marks.append(perf_counter())
                tasks.append({"codes": codes, "km_csv": km_csv,
                              "routing_csv": routing_csv, **row})
            t1 = marks.pop()
        for t in tasks:
            parts += [t["codes"], t["km_csv"].read_bytes(),
                      t["routing_csv"].read_bytes(), t["risks"].tobytes(),
                      t["c_index"], t["c_index_ipcw"]]
        return Unit(t1 - t0, _segments(t0, marks, t1), 3 * self.n_tasks,
                    _digest(*parts), {"tasks": tasks})

    @staticmethod
    def _matrix_row(ckpt: str, data: str, task: int) -> dict:
        model = checkpoint.load_model(ckpt)
        stream = bagio.ingest_stream(data, n_bins=model.cfg.n_bins)
        t = stream.tasks[task]
        risks = harness._evaluate_risks(model, t, np.arange(len(t)))
        times, censor = t.times, t.censor
        return {"risks": risks, "times": times, "censor": censor,
                "c_index": survival.c_index(risks, times, censor),
                "c_index_ipcw": survival.c_index_ipcw(risks, times, censor)}

    def check(self, unit: Unit) -> list[str]:
        problems = []
        for task, t in enumerate(unit.data["tasks"]):
            problems += [f"task {task}: verb exit code {c}"
                         for c in t["codes"] if c != 0]
            problems += checks.check_km_csv(t["km_csv"])
            problems += checks.check_routing_csv(t["routing_csv"], self.k_top)
            problems += checks.check_unit_interval(
                f"task {task} matrix row", [t["c_index"], t["c_index_ipcw"]])
            idx = checks.subsample(t["risks"].size, self.seed)
            sub = [t[k][idx] for k in ("risks", "times", "censor")]
            for ipcw in (False, True):
                fn = survival.c_index_ipcw if ipcw else survival.c_index
                problems += checks.check_concordance(
                    f"task {task} subsample", fn(*sub), *sub, ipcw)
        return problems

    def report(self, units: list[Unit]) -> dict:
        served = 3 * self.n_tasks * self.cases_per_task * len(units)
        return {"eval_cases_per_s": (served / sum(u.seconds for u in units),
                                     "cases/s")}


# ---------------------------------------------------------------------------
# survival metrics on precomputed risk vectors


SIZES = (100, 1000, 10000)
ROUTINES = ("c_index", "c_index_ipcw", "km_estimator", "log_rank_test")


def make_cohort(seed: int, n: int, tied: bool) -> dict:
    """About 30% censored exponential times with a risk that predicts them.

    The tied variant puts times on a grid of 1/8 time units and rounds risks
    to one decimal, so many pairs share a time or a risk.
    """
    rng = np.random.default_rng([seed, n, int(tied)])
    log_risk = rng.standard_normal(n)
    event = rng.exponential(np.exp(-log_risk))
    cens = rng.exponential(2.4, n)
    times = np.minimum(event, cens)
    censor = (cens < event).astype(np.int64)
    risks = log_risk + 0.7 * rng.standard_normal(n)
    if tied:
        times = np.ceil(times * 8.0) / 8.0
        risks = np.round(risks, 1)
    return {"label": f"n{n}-{'tied' if tied else 'untied'}", "n": n,
            "risks": risks, "times": times, "censor": censor}


def _routine_args(name: str, c: dict) -> tuple:
    risks, times, censor = c["risks"], c["times"], c["censor"]
    if name in ("c_index", "c_index_ipcw"):
        return risks, times, censor
    events = 1 - censor
    if name == "km_estimator":
        return times, events
    high = risks > risks.mean()
    return times[~high], events[~high], times[high], events[high]


@dataclass
class SurvivalMetrics:
    """The four metric routines on tied and untied cohorts of each size."""

    sizes: tuple[int, ...] = SIZES

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.cohorts = [make_cohort(seed, n, tied)
                        for n in self.sizes for tied in (False, True)]
        self.calls = [(name, c["label"], _routine_args(name, c))
                      for c in self.cohorts for name in ROUTINES]
        for name, _, args in self.calls[:2 * len(ROUTINES)]:
            getattr(survival, name)(*args)   # first calls, smallest size

    def unit(self, tracer) -> Unit:
        results, times, marks = {}, {}, []
        with tracer:
            t0 = perf_counter()
            for name, label, args in self.calls:
                fn = getattr(survival, name)
                s = perf_counter()
                results[(name, label)] = tracer.call(
                    f"bench.survival.{name}.{label}", fn, *args)
                marks.append(perf_counter())
                times[(name, label)] = marks[-1] - s
            t1 = marks.pop()
        big = max(self.sizes)
        metric_set = sum(v for (name, label), v in times.items()
                         if label.startswith(f"n{big}-"))
        fp = _digest(*[(k, [np.asarray(x).tobytes() for x in v]
                        if isinstance(v, tuple) else v)
                       for k, v in sorted(results.items())])
        return Unit(t1 - t0, _segments(t0, marks, t1), len(results), fp,
                    {"results": results},
                    {"metric_set_s": metric_set})

    def check(self, unit: Unit) -> list[str]:
        res = unit.data["results"]
        problems = []
        for c in self.cohorts:
            label = c["label"]
            problems += checks.check_unit_interval(
                f"{label} concordance",
                [res[("c_index", label)], res[("c_index_ipcw", label)]])
            problems += checks.check_km_curve(f"{label} KM",
                                              res[("km_estimator", label)][1])
            chi2, p = res[("log_rank_test", label)]
            problems += checks.check_unit_interval(f"{label} log-rank p", [p])
            if not chi2 >= 0.0:
                problems.append(f"{label}: log-rank chi2 {chi2!r} < 0")
            idx = checks.subsample(c["n"], self.seed)
            sub = [c[k][idx] for k in ("risks", "times", "censor")]
            for ipcw in (False, True):
                fn = survival.c_index_ipcw if ipcw else survival.c_index
                problems += checks.check_concordance(
                    f"{label} subsample", fn(*sub), *sub, ipcw)
        return problems

    def report(self, units: list[Unit]) -> dict:
        return {"metric_set_s": (statistics.median(
            u.stats["metric_set_s"] for u in units), "s")}

    def peak_mb(self) -> float:
        """Peak traced allocation of c_index on the largest untied cohort."""
        import tracemalloc
        c = next(c for c in self.cohorts
                 if c["label"] == f"n{max(self.sizes)}-untied")
        tracemalloc.start()
        try:
            survival.c_index(c["risks"], c["times"], c["censor"])
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------------------


@dataclass
class Chain:
    """Several workloads' units run back to back as one unit."""

    parts: tuple

    def setup(self, seed: int, work: Path) -> None:
        for p in self.parts:
            p.setup(seed, work)

    def unit(self, tracer) -> Unit:
        units = [p.unit(tracer) for p in self.parts]
        return Unit(sum(u.seconds for u in units),
                    [x for u in units for x in u.segments],
                    sum(u.ops for u in units),
                    _digest(*[u.fingerprint for u in units]),
                    {"parts": units},
                    {"parts": [replace(u, data={}) for u in units]})

    def check(self, unit: Unit) -> list[str]:
        return [problem for p, u in zip(self.parts, unit.data["parts"])
                for problem in p.check(u)]

    def report(self, units: list[Unit]) -> dict:
        out = {}
        for i, p in enumerate(self.parts):
            out.update(p.report([u.stats["parts"][i] for u in units]))
        return out

    def peak_mb(self) -> float:
        return max(p.peak_mb() for p in self.parts if hasattr(p, "peak_mb"))


def make(name: str):
    return {"cl-fcr": lambda: ContinualTraining(("fcr",)),
            "cl-baselines": lambda: ContinualTraining(BASELINES,
                                                      cases_per_task=30),
            "eval-cohort": lambda: Chain((EvalCohort(), SurvivalMetrics()))
            }[name]()

