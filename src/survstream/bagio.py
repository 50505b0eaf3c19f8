"""Task files, task streams and the one `.npz` writer.

A stream directory holds `manifest.json` (version 3, the task order) and one
uncompressed `.npz` task file per task. Task files and replay buffers share
one case layout, `case_columns`: `case_id`, `time`, `censored`, `n_patches`,
the stacked patch bags in `patches`, every genomic group back to back in the
1-D `groups` and each case's six group widths in the (n, 6) `group_widths`
(f32 in a task file, f64 in a buffer). Every archive is written by
`write_npz` and read through `read_npz`, so any damage, a bad outcome or a
non-finite feature value raises `CorruptFileError`.

Features are upcast to 64-bit on ingest; bin grids and labels are recomputed
from the ingested times, so serialising and re-ingesting a stream is lossless.
"""

from __future__ import annotations

import functools
import io
import json
import math
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .data import (CaseRecord, N_BINS, N_GENOMIC_GROUPS, TaskData,
                   TaskStream, build_task)

_VERSION = 3  # the manifest's "version"; other versions are refused


class CorruptFileError(ValueError):
    """A damaged task file, buffer or checkpoint, or a malformed manifest."""


# What reading a damaged .npz archive raises. RuntimeError covers zipfile's
# NotImplementedError (unknown compression method) and its error for members
# flagged as encrypted; LookupError, TypeError and ValueError cover intact
# archives with missing members, arrays of the wrong shape or garbled text.
UNREADABLE = (zipfile.BadZipFile, zlib.error, EOFError, OSError, LookupError,
              TypeError, ValueError, RuntimeError)


def write_npz(path, arrays: dict[str, np.ndarray]) -> None:
    """Write `arrays` as an uncompressed `.npz` archive at exactly `path`."""
    with open(path, "wb") as fh:  # a handle: numpy appends no suffix
        np.savez(fh, **arrays)


def read_npz(path, what: str, read):
    """`read(arrays)` on the .npz file at `path`, where `arrays` maps each
    member's name (without `.npy`) to its array; any damage raises
    `CorruptFileError`. A missing file stays `FileNotFoundError`: the file is
    opened before reading starts."""
    with open(path, "rb") as fh:
        try:
            # write_npz writes no zip comment: an intact archive ends with its
            # end-of-central-directory record (a shorter file fails the seek)
            fh.seek(-22, 2)
            if fh.read(4) != b"PK\x05\x06":
                raise zipfile.BadZipFile("archive does not end with its "
                                         "end-of-central-directory record")
            arrays = {}
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    try:  # read whole: zipfile checks the CRC at the end
                        data = zf.read(info)
                    except zipfile.BadZipFile as exc:
                        raise zipfile.BadZipFile(
                            f"member {info.filename}: {exc}") from exc
                    arrays[info.filename.removesuffix(".npy")] = _parse_npy(data)
            return read(arrays)
        except UNREADABLE as exc:
            raise CorruptFileError(
                f"{path}: unreadable {what} ({type(exc).__name__}: {exc})") from exc


# the length field of a `.npy` header: format version -> its size in bytes
_HEADER_LEN_SIZE = {1: 2, 2: 4}


@functools.lru_cache(maxsize=64)
def _npy_header(head: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """(shape, fortran_order, dtype) of one `.npy` header, given its bytes
    from the magic string to the end of the header dict. Archives repeat
    few headers (a checkpoint's 163 members share 19), so each distinct one
    is parsed once."""
    buf = io.BytesIO(head)
    version = np.lib.format.read_magic(buf)
    read = {(1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0}.get(version)
    if read is None:
        raise ValueError(f"unsupported .npy version {version}")
    shape, fortran_order, dtype = read(buf)
    if dtype.hasobject:
        raise ValueError("object arrays are refused")
    return shape, fortran_order, dtype


def _parse_npy(data: bytes) -> np.ndarray:
    """The array in one `.npy` member's bytes. The payload must be exactly
    the bytes the header declares: a damaged header that declares a smaller
    shape would otherwise go unnoticed."""
    size = _HEADER_LEN_SIZE.get(data[6] if len(data) > 6 else None)
    if size is None:
        raise ValueError("not a .npy version 1 or 2 member")
    end = 8 + size + int.from_bytes(data[8:8 + size], "little")
    shape, fortran_order, dtype = _npy_header(data[:end])
    count = math.prod(shape)
    extra = len(data) - end - count * dtype.itemsize
    if extra:
        raise ValueError(f"{extra} bytes after the array" if extra > 0
                         else f"array data {-extra} bytes short")
    arr = np.frombuffer(data, dtype, count, offset=end).copy()
    if fortran_order:
        return arr.reshape(shape[::-1]).transpose()
    return arr.reshape(shape)


class DimensionMismatchError(ValueError):
    """Declared dimensions disagree with the payload."""


def case_columns(cases: list[CaseRecord], dtype) -> dict[str, np.ndarray]:
    """The members that lay out `cases` in a task file or a replay buffer,
    patch bags and genomic groups as `dtype`."""
    return {
        "case_id": np.array([c.case_id for c in cases], dtype=str),
        "time": np.array([c.time for c in cases], dtype=np.float64),
        "censored": np.array([c.censored for c in cases], dtype=np.uint8),
        "n_patches": np.array([c.patches.shape[0] for c in cases], dtype=np.int64),
        "patches": np.concatenate([c.patches for c in cases] or [np.empty((0, 0))],
                                  dtype=dtype),
        "groups": np.concatenate([np.empty(0)] + [g for c in cases for g in c.groups],
                                 dtype=dtype),
        "group_widths": np.array([[g.size for g in c.groups] for c in cases],
                                 dtype=np.int64).reshape(-1, N_GENOMIC_GROUPS),
    }


def column_cases(z) -> list[CaseRecord]:
    """The cases of `case_columns` members in `z`, in float64; case i's groups
    are the next `group_widths[i]` values of `groups`. A time that is not
    finite and positive, a censor flag other than 0/1 or a patch or genomic
    value that is not finite raises `ValueError` naming the case."""
    ids, times = z["case_id"].tolist(), z["time"].tolist()
    censored, counts = z["censored"].tolist(), z["n_patches"].tolist()
    patches = z["patches"].astype(np.float64, copy=False)
    groups, widths = z["groups"].astype(np.float64, copy=False), z["group_widths"]
    if not len(ids) == len(times) == len(censored) == len(counts) == len(widths):
        raise ValueError("per-case members differ in length")
    bad = np.flatnonzero(~np.isfinite(z["time"]) | (z["time"] <= 0)
                         | ~np.isin(z["censored"], (0, 1)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"case {ids[i]!r}: time {times[i]!r}, censored "
                         f"{censored[i]!r} (a time is finite and positive, "
                         f"censored is 0 or 1)")
    if min(counts, default=1) < 1 or sum(counts) != patches.shape[0]:
        raise ValueError("n_patches do not cover the patch rows")
    if groups.ndim != 1 or (widths < 0).any() or widths.sum() != groups.size:
        raise ValueError("group widths do not cover the groups")
    for what, finite, sizes in (("patch", np.isfinite(patches).all(axis=1), counts),
                                ("genomic", np.isfinite(groups), widths.sum(axis=1))):
        if not finite.all():  # the case whose rows or values hold the first
            i = int(np.searchsorted(np.cumsum(sizes), np.argmin(finite), "right"))
            raise ValueError(f"case {ids[i]!r}: a {what} value is not finite")
    rows, ends = np.cumsum([0] + counts).tolist(), np.cumsum(widths).tolist()
    cuts, k = [groups[a:b] for a, b in zip([0] + ends, ends)], widths.shape[1]
    return [CaseRecord(cid, patches[rows[i]:rows[i + 1]],
                       tuple(cuts[i * k:i * k + k]), times[i], censored[i])
            for i, cid in enumerate(ids)]


def write_task_file(path, cases: list[CaseRecord]) -> None:
    """Write `cases` as an uncompressed `.npz` task file at exactly `path`."""
    write_npz(path, case_columns(cases, "<f4"))


def read_task_file(path) -> list[CaseRecord]:
    """Read a `write_task_file` file; any damage raises `CorruptFileError`."""
    return read_npz(path, "task file", column_cases)


def save_stream(stream: TaskStream, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"version": _VERSION, "tasks": []}
    for task in stream.tasks:
        fname = f"task_{task.task_id}.npz"
        write_task_file(directory / fname, task.cases)
        manifest["tasks"].append({"task_id": task.task_id, "file": fname})
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _manifest_entries(directory: Path) -> list[tuple[int, Path]]:
    """The (task_id, task file) pairs `manifest.json` lists, in task order;
    a missing or malformed manifest raises `CorruptFileError`."""
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CorruptFileError(f"{directory}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_bytes())
        version = manifest["version"]
        entries = [(e["task_id"], directory / e["file"]) for e in manifest["tasks"]]
    except (ValueError, LookupError, TypeError) as exc:
        raise CorruptFileError(f"{manifest_path}: malformed manifest "
                               f"({type(exc).__name__}: {exc})") from exc
    if version != _VERSION:
        raise CorruptFileError(
            f"{manifest_path}: manifest version {version!r}, expected "
            f"{_VERSION} (task files with per-case group widths)")
    if not entries:
        raise CorruptFileError(f"{manifest_path}: lists no tasks")
    seen = set()
    for task_id, _ in entries:
        if type(task_id) is not int:
            raise CorruptFileError(
                f"{manifest_path}: task_id {task_id!r} is not an integer")
        if task_id in seen:
            raise CorruptFileError(
                f"{manifest_path}: task_id {task_id} is listed more than once")
        seen.add(task_id)
    return entries


def _read_listed(fpath: Path) -> list[CaseRecord]:
    """The cases of a task file the manifest lists."""
    if not fpath.is_file():
        raise CorruptFileError(f"{fpath}: listed in manifest but missing")
    cases = read_task_file(fpath)
    if not cases:
        raise CorruptFileError(f"{fpath}: no cases")
    return cases


def ingest_stream(directory, n_bins: int = N_BINS) -> TaskStream:
    """Load a stream directory; recompute bin grids from ingested times.

    Genomic groups are zero-padded to the widest group of any case.
    """
    tasks = []
    d_patch = None
    for task_id, fpath in _manifest_entries(Path(directory)):
        cases = _read_listed(fpath)
        dp = cases[0].patches.shape[1]
        if d_patch is None:
            d_patch = dp
        elif d_patch != dp:
            raise DimensionMismatchError(
                f"{fpath}: patch width {dp} differs from {d_patch}")
        tasks.append(build_task(task_id, cases, n_bins))
    width = max(g.size for t in tasks for c in t.cases for g in c.groups)
    return TaskStream(tasks, d_patch, width)


def ingest_task(directory, task_id: int, n_bins: int = N_BINS) -> TaskData:
    """Load one task of a stream directory: the manifest is checked as
    `ingest_stream` checks it, then only `task_id`'s file is read, so damage
    to another task's file goes unnoticed. The task equals its entry in
    `ingest_stream(directory, n_bins).tasks`."""
    directory = Path(directory)
    for listed_id, fpath in _manifest_entries(directory):
        if listed_id == task_id:
            return build_task(task_id, _read_listed(fpath), n_bins)
    raise CorruptFileError(
        f"{directory / 'manifest.json'}: task {task_id} is not listed")

