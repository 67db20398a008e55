"""The writers of every output file, and WMT1 tensor serialization.

`atomic_open` writes a file whole or not at all, and every writer goes
through it; `write_json` is the one JSON writer, `write_csv` the one table
writer, `save_tensors` the one tensor writer. WMT1 record layout
(little-endian): magic b"WMT1", rank as u64, dims as u64 each, then the
float64 entries in row-major order. A file is its records back to back, to
its end; `load_tensors` reads them all, and the caller checks how many.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

MAGIC = b"WMT1"


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Write to a temp file in `path`'s directory and move it onto `path`
    on a clean exit; on an exception, remove it and leave `path` as it was."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # not moved: the write failed
            os.remove(tmp)


def write_json(path, obj, **dump_options) -> None:
    """Write `obj` to `path` atomically as JSON with sorted keys and a final
    newline; `dump_options` (`indent`, `separators`) go to `json.dump`.
    Every non-finite float is written as `null`, since JSON has no NaN or
    Infinity token."""
    with atomic_open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, sort_keys=True, allow_nan=False,
                  **dump_options)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write the `header` row and then each of `rows` to `path` atomically
    as CSV; each cell is written as `str` makes it."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _finite_or_null(obj):
    """`obj` with each non-finite float in its dicts and lists made None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def read_json(path, keys=()) -> dict:
    """The JSON object in `path`, which must hold each of `keys`; a missing
    file or key, a directory, or a file that is not JSON or holds another
    JSON value than an object, is a ValueError naming it."""
    name = _readable(path)
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{name} is not JSON: {err}") from err
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{name} lacks {', '.join(missing)}")
    return obj


def _readable(path) -> str:
    """The name of `path`, which must be a file: a directory or a missing
    path is a ValueError naming it."""
    name = os.path.basename(path)
    if os.path.isdir(path):
        raise ValueError(f"{name} is a directory")
    if not os.path.isfile(path):
        raise ValueError(f"{name} is missing")
    return name


def write_tensor(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)  # note: tobytes() is row-major
    fh.write(MAGIC)
    fh.write(struct.pack("<Q", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.astype("<f8", copy=False).tobytes())


def read_tensor(fh: BinaryIO) -> np.ndarray:
    magic = fh.read(4)
    if magic != MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}, expected {MAGIC!r}")
    try:
        (rank,) = struct.unpack("<Q", fh.read(8))
        shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(rank))
    except struct.error as err:
        raise ValueError("truncated tensor record") from err
    # checked before reading: a damaged dim must not size the read
    size, here = 8 * math.prod(shape), fh.tell()
    if size > fh.seek(0, os.SEEK_END) - here:
        raise ValueError("truncated tensor record")
    fh.seek(here)
    raw = fh.read(size)
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return data.reshape(shape)


def save_tensors(path, arrays: list[np.ndarray]) -> None:
    with atomic_open(path, "wb") as fh:
        for arr in arrays:
            write_tensor(fh, arr)


def load_tensors(path) -> list[np.ndarray]:
    """Every record of `path`, to the end of the file, for the caller to
    count; a missing file or a directory is a ValueError naming it, and
    bytes that make no whole record (a cut record, trailing junk) are one."""
    _readable(path)
    out = []
    with open(path, "rb") as fh:
        while head := fh.read(4):
            fh.seek(-len(head), 1)  # a cut magic is read again, and rejected
            out.append(read_tensor(fh))
    return out


def tensor_bytes(arr: np.ndarray) -> bytes:
    """Serialized WMT1 bytes of one tensor (used for hashing)."""
    import io

    buf = io.BytesIO()
    write_tensor(buf, arr)
    return buf.getvalue()
