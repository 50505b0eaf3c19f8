"""survstream benchmark: one workload per invocation, one client, closed loop.

    python3 bench/run.py --workload cl-fcr --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports survstream from its
`src/`; it exits with code 2, printing no result, when that is missing.
With `--trace 0` it sets the workload up 15 times (median: `setup_s`),
then repeats the workload's unit of work back to back for about `--seconds`
(it starts no unit that would more likely end after that than before) and
reports the end-to-end metrics. `run_s` is one unit's time with each of its
segments (an optimisation step, a request, a metric call) at its median over
the repeats, so a burst of load on the shared host that slows a few seconds
of one repeat does not move it. With `--trace 1` it runs one
untraced unit and then the same unit, set up again, with every public
survstream function and method wrapped by `tracer.Tracer`; it reports the
per-layer metrics of `layers.py` and writes the spans out. Either way it
checks the outputs and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. Human-readable
lines, the machine description and the workload-specific metrics come
before it; the same record goes to `.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
WORKLOADS = ("cl-fcr", "cl-baselines", "eval-cohort")
# name -> unit; the metrics BENCHMARK.json lists, reported by every workload
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# The model's matrices are tiny, so one BLAS thread is fastest and steadiest
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def pin_environment() -> dict:
    """Pin BLAS threads (before numpy is first imported) and drop the output
    root `survstream run` would otherwise prefix, which may lie outside the
    checkout. Returns the inherited thread settings."""
    inherited = {k: os.environ.get(k) for k in THREAD_ENV}
    for k in THREAD_ENV:
        os.environ[k] = BLAS_THREADS
    os.environ.pop("SURVSTREAM_OUTPUT_ROOT", None)
    return inherited


def import_program() -> None:
    """Import survstream from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    import survstream
    where = Path(survstream.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"survstream imported from {where}, not {SRC}")


def machine(inherited_thread_env: dict) -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "inherited_thread_env": inherited_thread_env,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def mismatches(units) -> list[str]:
    """Every repeat must produce the first unit's outputs, in as many
    segments."""
    return [f"unit {i} differs from unit 0 in its outputs or segments"
            for i, u in enumerate(units)
            if u.fingerprint != units[0].fingerprint
            or len(u.segments) != len(units[0].segments)]


def segment_median_s(units) -> float:
    """Sum over a unit's segments of each segment's median over the units
    (those segmented like the first; `mismatches` reports the others)."""
    import numpy as np
    n = len(units[0].segments)
    return float(np.median([u.segments for u in units
                            if len(u.segments) == n], axis=0).sum())


def run_timed(wl, seed: int, seconds: float, work: Path) -> dict:
    from tracer import NullTracer
    setups = []
    for _ in range(SETUP_REPEATS):
        fresh(work)
        t0 = perf_counter()
        wl.setup(seed, work)
        setups.append(perf_counter() - t0)
    units, failures = [], []
    start = perf_counter()
    typical = 0.0   # median unit time so far: the run ends nearest `seconds`
    while not units or perf_counter() - start + typical / 2 < seconds:
        try:
            unit = wl.unit(NullTracer())
        except Exception:
            failures.append(traceback.format_exc())
            break
        if units:
            unit.data = {}   # repeats are compared by fingerprint only
        units.append(unit)
        typical = statistics.median(u.seconds for u in units)
    if not units:
        raise RuntimeError("the first unit failed:\n" + failures[0])
    problems = mismatches(units) + failures + wl.check(units[0])
    ops = units[0].ops
    metrics = {"setup_s": statistics.median(setups),
               "run_s": segment_median_s(units),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {"problems": problems, "attempted": ops * (len(units) + len(failures)),
            "failed": ops * len(failures), "units": len(units),
            "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "workload_metrics": {
                "unit_s_p50": (statistics.median(u.seconds for u in units),
                               "s"),
                "units": (len(units), "count"), **wl.report(units)}}


def run_traced(wl, seed: int, work: Path, name: str) -> dict:
    import layers
    from tracer import NullTracer, Tracer
    wl.setup(seed, fresh(work))
    ref = wl.unit(NullTracer())
    tracer = Tracer()
    with tracer:
        wl.setup(seed, fresh(work))
    traced = wl.unit(tracer)
    problems = wl.check(ref)
    if traced.fingerprint != ref.fingerprint:
        problems.append("traced unit outputs differ from the untraced unit")
    peak = wl.peak_mb() if hasattr(wl, "peak_mb") else 0.0
    values = layers.layer_metrics(tracer.table(), peak,
                                  traced.seconds - ref.seconds, ref.seconds)
    units = layers.metric_units()
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{name}-seed{seed}-{os.getpid()}.npz"
    tracer.save(spans)
    return {"problems": problems, "attempted": ref.ops + traced.ops,
            "failed": 0, "units": 2, "spans_file": str(spans.relative_to(ROOT)),
            "metrics": {k: (values[k], units[k]) for k in units},
            "workload_metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inherited = pin_environment()
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import survstream from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import workloads
    wl = workloads.make(args.workload)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            res = run_traced(wl, args.seed, work, args.workload)
        else:
            res = run_timed(wl, args.seed, args.seconds, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(inherited), **res}
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['units']} units, attempted {res['attempted']}, "
          f"failed {res['failed']}")
    for name, (value, unit) in {**res["metrics"],
                                **res["workload_metrics"]}.items():
        print(f"  {name} {value:.6g} {unit}")
    for p in res["problems"]:
        print(f"CHECK FAILED: {p}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
     f"{os.getpid()}.json").write_text(json.dumps(record, indent=1,
                                                   default=str))
    print(json.dumps({
        "correct": not res["problems"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
