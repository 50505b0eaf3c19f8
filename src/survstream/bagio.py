"""Binary feature-bag files and task-stream (de)serialization.

A stream directory holds one `.svb` file per task plus a `manifest.json`
listing the task order. File layout (all little-endian):

    magic "SVBG" | version u8 | n_cases u32 | d_patch u32 |
    n_groups u32 | group widths u32 x n_groups |
    per case: id_len u16, id utf-8, time f64, censor u8,
              n_patches u32, patch matrix f32, group vectors f32

Features are stored as 32-bit floats and upcast to 64-bit on ingest; bin
grids and labels are recomputed from the ingested times, so serialising and
re-ingesting a stream is lossless.
"""

from __future__ import annotations

import json
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .data import CaseRecord, TaskStream, build_task

_MAGIC = b"SVBG"
_VERSION = 1


class CorruptFileError(ValueError):
    """Bad magic, truncated payload, or malformed manifest or archive."""


# What reading a damaged .npz archive raises. RuntimeError covers zipfile's
# NotImplementedError (unknown compression method) and its error for members
# flagged as encrypted; LookupError, TypeError and ValueError cover intact
# archives with missing members, arrays of the wrong shape or garbled text.
UNREADABLE = (zipfile.BadZipFile, zlib.error, EOFError, OSError, LookupError,
              TypeError, ValueError, RuntimeError)


def read_npz(path, what: str, read):
    """`read(archive)` on the .npz file at `path`; any damage raises
    `CorruptFileError`. A missing file stays `FileNotFoundError`: the file is
    opened before reading starts."""
    with open(path, "rb") as fh:
        try:
            # the CRC pass covers bytes numpy would skip when a damaged array
            # header declares a smaller shape
            with zipfile.ZipFile(fh) as zf:
                bad = zf.testzip()
            if bad is not None:
                raise zipfile.BadZipFile(f"bad CRC in member {bad}")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                return read(archive)
        except UNREADABLE as exc:
            raise CorruptFileError(
                f"{path}: unreadable {what} ({type(exc).__name__}: {exc})") from exc


class DimensionMismatchError(ValueError):
    """Declared dimensions disagree with the payload."""


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CorruptFileError(f"{path}: truncated (wanted {n} bytes, got {len(data)})")
    return data


def write_task_file(path, cases: list[CaseRecord]) -> None:
    group_dims = tuple(g.size for g in cases[0].groups)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BII", _VERSION, len(cases), cases[0].patches.shape[1]))
        fh.write(struct.pack("<I", len(group_dims)))
        fh.write(struct.pack(f"<{len(group_dims)}I", *group_dims))
        for c in cases:
            if tuple(g.size for g in c.groups) != group_dims:
                raise DimensionMismatchError(
                    f"{path}: case {c.case_id} group widths differ")
            cid = c.case_id.encode()
            fh.write(struct.pack("<H", len(cid)))
            fh.write(cid)
            fh.write(struct.pack("<dBI", c.time, c.censored, c.patches.shape[0]))
            fh.write(np.ascontiguousarray(c.patches, dtype="<f4").tobytes())
            for g in c.groups:
                fh.write(np.ascontiguousarray(g, dtype="<f4").tobytes())


def read_task_file(path) -> list[CaseRecord]:
    path = Path(path)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != _MAGIC:
            raise CorruptFileError(f"{path}: bad magic header")
        version, n_cases, d_patch = struct.unpack("<BII", _read_exact(fh, 9, path))
        if version != _VERSION:
            raise CorruptFileError(f"{path}: unsupported version {version}")
        (n_groups,) = struct.unpack("<I", _read_exact(fh, 4, path))
        group_dims = struct.unpack(f"<{n_groups}I",
                                   _read_exact(fh, 4 * n_groups, path))
        cases = []
        for _ in range(n_cases):
            (idlen,) = struct.unpack("<H", _read_exact(fh, 2, path))
            cid = _read_exact(fh, idlen, path).decode()
            time, censored, n_p = struct.unpack("<dBI", _read_exact(fh, 13, path))
            patches = np.frombuffer(
                _read_exact(fh, 4 * n_p * d_patch, path),
                dtype="<f4").astype(np.float64).reshape(n_p, d_patch)
            groups = tuple(
                np.frombuffer(_read_exact(fh, 4 * w, path),
                              dtype="<f4").astype(np.float64)
                for w in group_dims)
            cases.append(CaseRecord(cid, patches, groups, time, int(censored)))
        if fh.read(1):
            raise CorruptFileError(f"{path}: trailing bytes after payload")
    return cases


def save_stream(stream: TaskStream, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"version": _VERSION, "tasks": []}
    for task in stream.tasks:
        fname = f"task_{task.task_id}.svb"
        write_task_file(directory / fname, task.cases)
        manifest["tasks"].append({"task_id": task.task_id, "file": fname})
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def ingest_stream(directory, n_bins: int = 4) -> TaskStream:
    """Load a stream directory; recompute bin grids from ingested times.

    Genomic groups are zero-padded to the maximum width across all tasks.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CorruptFileError(f"{directory}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        entries = manifest["tasks"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise CorruptFileError(f"{manifest_path}: malformed manifest: {exc}")
    tasks = []
    d_patch = None
    for entry in entries:
        fpath = directory / entry["file"]
        if not fpath.exists():
            raise CorruptFileError(f"{fpath}: listed in manifest but missing")
        cases = read_task_file(fpath)
        if not cases:
            raise CorruptFileError(f"{fpath}: no cases")
        dp = cases[0].patches.shape[1]
        if d_patch is None:
            d_patch = dp
        elif d_patch != dp:
            raise DimensionMismatchError(
                f"{fpath}: patch width {dp} differs from {d_patch}")
        tasks.append(build_task(int(entry["task_id"]), cases, n_bins))
    width = max(g.size for t in tasks for g in t.cases[0].groups)
    return TaskStream(tasks, d_patch, width)


def streams_equal(a: TaskStream, b: TaskStream) -> bool:
    """Bit-level equality of features, outcomes, labels and bin grids."""
    if a.n_tasks != b.n_tasks or a.d_patch != b.d_patch:
        return False
    for ta, tb in zip(a.tasks, b.tasks):
        if ta.task_id != tb.task_id or ta.bins != tb.bins or len(ta) != len(tb):
            return False
        for ca, cb in zip(ta.cases, tb.cases):
            if (ca.case_id != cb.case_id or ca.time != cb.time
                    or ca.censored != cb.censored or ca.label != cb.label):
                return False
            if not np.array_equal(ca.patches, cb.patches):
                return False
            if len(ca.groups) != len(cb.groups):
                return False
            if any(not np.array_equal(ga, gb)
                   for ga, gb in zip(ca.groups, cb.groups)):
                return False
    return True
