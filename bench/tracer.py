"""Wrap survstream's public functions and methods from outside and record spans.

Nothing under `src/` knows about this module. `Patcher` replaces a callable
everywhere survstream holds a reference to it: in the defining module, and in
every module that imported it by value (`from .survival import c_index` binds
`harness.c_index` to the function object, so patching `survival.c_index`
alone would miss the harness's calls). `Tracer` uses it to put a span
recorder around every public function and method of every survstream module,
plus the few private stage functions named in `PRIVATE`.

A span is (name, sequence number, parent sequence number, group, method,
start, end, self time). Self time is the span's duration minus the time its
child spans cover. Groups tie the spans of one optimisation step or one
request (a CLI verb, a matrix row, one metric call) together: a step group
opens when the harness enters `_step_loss`, a request group when a verb or a
benchmark request span starts, and the first phase call after a step
(validation, state copy, matrix row) closes the step. Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# private callables that carry a stage a per-layer metric names; absent
# names are skipped, so a refactor that removes one only zeroes its metric
PRIVATE = (
    "model.SurvivalModel._encode_patches",
    "model.SurvivalModel._encode_genomics",
    "harness._evaluate_risks",
    "harness._step_loss",
    "harness._store_case",
    "harness._fill_row",
    "harness._train_joint",
)

STEP_OPENER = "harness._step_loss"
REQUEST_OPENERS = frozenset({"cli.cmd_km", "cli.cmd_routing"})
# phase calls that end a step group when they follow one
STEP_CLOSERS = frozenset({
    "harness._evaluate_risks", "harness._fill_row", "harness.collect_routing",
    "harness.train_task", "harness._train_joint", "harness.run_sequence",
    "model.SurvivalModel.get_state", "model.SurvivalModel.set_state",
    "reports.write_run_reports", "checkpoint.save_model",
})

MOE_SITES = (("moe_patch", "patch"), ("moe_gen", "genomic"),
             ("moe_fuse", "fusion"))


def survstream_modules() -> list:
    """Import every survstream submodule and return them with the package."""
    import survstream
    for info in pkgutil.iter_modules(survstream.__path__):
        importlib.import_module(f"survstream.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "survstream" or name.startswith("survstream.")]


class Patcher:
    """Reversible replacement of survstream callables by wrappers."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.modules = survstream_modules()

    def function(self, module, name: str, wrap) -> None:
        """Replace `module.name` and every by-value import of it."""
        orig = getattr(module, name)
        new = wrap(orig)
        for m in self.modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._set(m, attr, new)

    def method(self, cls, name: str, wrap) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(wrap(raw.__func__))
        else:
            new = wrap(raw)
        self._set(cls, name, new)

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def public_callables(modules) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every public function and method.

    Methods include `__call__` (how `Linear` and `MLP2` are used) and the
    private stage functions in `PRIVATE`. Only callables defined in a module
    are listed there; re-exports are reached through `Patcher.function`.
    """
    out = []
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        if mod.__name__ == "survstream":
            continue
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                if not attr.startswith("_") or name in PRIVATE:
                    out.append((name, mod, attr))
            elif inspect.isclass(obj):
                for mattr, raw in vars(obj).items():
                    func = getattr(raw, "__func__", raw)
                    if not inspect.isfunction(func):
                        continue
                    name = f"{short}.{attr}.{mattr}"
                    if (not mattr.startswith("_") or mattr == "__call__"
                            or name in PRIVATE):
                        out.append((name, obj, mattr))
    return out


class Tracer:
    """Span recorder installed over survstream through a `Patcher`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counts: dict[str, list[tuple[int, int, float]]] = defaultdict(list)
        self.group_kind: list[str] = ["other"]
        self.group_method: list[int] = [0]
        self.methods: list[str] = [""]
        self._method = 0
        self._group = 0
        self._seq = 0
        self._stack: list[list] = []
        self._sites: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patcher: Patcher | None = None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        patcher = Patcher()
        for name, owner, attr in public_callables(patcher.modules):
            hooks = self._hooks(name)
            wrap = functools.partial(self._wrap, name=name, **hooks)
            if inspect.ismodule(owner):
                patcher.function(owner, attr, wrap)
            else:
                patcher.method(owner, attr, wrap)
        from survstream import model
        patcher.method(model.SurvivalModel, "__init__", self._register_sites)
        self._patcher = patcher

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _hooks(self, name: str) -> dict:
        """Counts recorded at the same boundaries as the spans."""
        if name == "harness.run_sequence":
            return {"on_enter": lambda a, k: self._set_method(
                (a[0] if a else k["cfg"]).method)}
        if name == "harness.AdamW.step":
            return {"count": lambda a, k, out: sum(
                1 for n in (a[1] if len(a) > 1 else k["grads"])
                if n in a[0].params)}
        if name == "fcr.ReplayBuffer.sample_replay":
            return {"count": lambda a, k, out: len(out)}
        if name == "bagio.ingest_stream":
            return {"count": lambda a, k, out: _dir_bytes(
                a[0] if a else k["directory"])}
        if name == "moe.MoEModule.forward":
            return {"namer": lambda a: "moe.MoEModule.forward["
                    + self._sites.get(a[0], "unknown") + "]"}
        return {}

    def _register_sites(self, init):
        sites = self._sites

        @functools.wraps(init)
        def registered(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for attr, site in MOE_SITES:
                sites[getattr(model, attr)] = site
        return registered

    def _set_method(self, method: str) -> None:
        if method not in self.methods:
            self.methods.append(method)
        self._method = self.methods.index(method)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, kind: str) -> None:
        self._group += 1
        self.group_kind.append(kind)
        self.group_method.append(self._method)

    def _enter_group(self, name: str) -> None:
        if name == STEP_OPENER:
            self._open("step")
        elif name in REQUEST_OPENERS or name.startswith("bench."):
            self._open("request")
        elif name in STEP_CLOSERS and self.group_kind[self._group] == "step":
            self._open("other")

    def _wrap(self, fn, name: str, on_enter=None, count=None, namer=None):
        tr = self
        fixed = None if namer else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            span_name = namer(args) if namer else name
            nid = fixed if fixed is not None else tr._name_id(span_name)
            tr._enter_group(name)
            parent = tr._stack[-1] if tr._stack else None
            frame = [tr._seq, 0.0]
            tr._seq += 1
            tr._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                tr.spans.append((nid, frame[0],
                                 parent[0] if parent is not None else -1,
                                 tr._group, tr._method, t0, t1, dur - frame[1]))
            if count is not None:
                tr.counts[span_name].append(
                    (tr._group, tr._method, count(args, kwargs, out)))
            return out

        traced.__bench_traced__ = True
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` under a span the benchmark itself opens (`bench.*`)."""
        return self._wrap(fn, name)(*args, **kwargs)

    # ------------------------------------------------------------ results

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def save(self, path) -> None:
        t = self.table()
        np.savez_compressed(
            path, names=np.array(self.names), methods=np.array(self.methods),
            group_kind=np.array(self.group_kind),
            group_method=np.array(self.group_method), name=t.name,
            seq=t.seq, parent=t.parent, group=t.group, method=t.method,
            start=t.start, end=t.end, self_s=t.self_s)


class NullTracer:
    """Stand-in for untraced runs: benchmark spans cost one call."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class SpanTable:
    """Column view of a tracer's spans with per-name and per-step queries."""

    def __init__(self, tracer: Tracer):
        cols = (np.array(tracer.spans, dtype=np.float64) if tracer.spans
                else np.zeros((0, 8)))
        self.name = cols[:, 0].astype(np.int64)
        self.seq = cols[:, 1].astype(np.int64)
        self.parent = cols[:, 2].astype(np.int64)
        self.group = cols[:, 3].astype(np.int64)
        self.method = cols[:, 4].astype(np.int64)
        self.start, self.end, self.self_s = cols[:, 5], cols[:, 6], cols[:, 7]
        self.names = tracer.names
        self.methods = tracer.methods
        self.counts = tracer.counts
        kinds = np.array(tracer.group_kind)
        self.step_groups = np.flatnonzero(kinds == "step")
        self.group_method = np.array(tracer.group_method)

    def _mask(self, name: str, method: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        mask = self.name == self.names.index(name)
        if method is not None:
            mask &= self.method == self._method_id(method)
        return mask

    def _method_id(self, method: str) -> int:
        return self.methods.index(method) if method in self.methods else -1

    def calls(self, name: str, method: str | None = None) -> int:
        return int(self._mask(name, method).sum())

    def total_s(self, name: str, method: str | None = None) -> float:
        m = self._mask(name, method)
        return float((self.end[m] - self.start[m]).sum())

    def self_total(self, name: str, method: str | None = None) -> float:
        return float(self.self_s[self._mask(name, method)].sum())

    def steps(self, method: str | None = None) -> np.ndarray:
        """Group ids of the optimisation steps, optionally of one method."""
        if method is None:
            return self.step_groups
        keep = self.group_method[self.step_groups] == self._method_id(method)
        return self.step_groups[keep]

    def per_step(self, names, method: str | None = None) -> np.ndarray:
        """Calls of any of `names` inside each step group."""
        mask = np.zeros(self.name.size, dtype=bool)
        for n in names:
            mask |= self._mask(n)
        per_group = np.bincount(self.group[mask],
                                minlength=len(self.group_method))
        return per_group[self.steps(method)]

    def count_values(self, name: str, steps_only: bool = False) -> np.ndarray:
        rows = self.counts.get(name, [])
        if steps_only:
            step_set = set(self.step_groups.tolist())
            rows = [r for r in rows if r[0] in step_set]
        return np.array([r[2] for r in rows], dtype=np.float64)


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir()
               if p.is_file())
