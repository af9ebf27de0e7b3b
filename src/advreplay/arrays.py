"""The engine's value type: samples, attack output, model parameters and
tape nodes all hold read-only float64 arrays built by ``readonly``.  The
replay attack alone computes in float32, on copies it makes per call, and
its output is the exact float64 upcast of its float32 rows.

The ``record_*`` checks decode stored JSON records (``store.json``,
``model.json``) into those arrays; each failure is a ``DecodeError`` that
names the file and the key.  ``write_atomic`` writes every file the
engine and the CLI make; ``csv_text`` formats every CSV table among them.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .errors import ContractError, DecodeError, NumericError


def readonly(data, what: str) -> np.ndarray:
    """A fresh read-only float64 copy of ``data``; a NaN or Inf entry raises
    ``NumericError`` naming ``what``."""
    arr = np.array(data, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")
    arr.flags.writeable = False
    return arr


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) to ``path`` through a
    temporary file in the same directory and ``os.replace``: a reader, or a
    run killed mid-write, sees the old file or the new one, never a partial
    write.  The bytes land as given, with no newline translation.  A failed
    write leaves the old file as it was and removes the temporary file; an
    ``OSError`` becomes a ``ContractError`` naming ``path``."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as err:
        tmp.unlink(missing_ok=True)
        raise ContractError(f"{path}: cannot write ({err.strerror or err})") from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text with ``\\r\\n`` line ends, as
    ``csv.writer`` writes them.  A float, numpy's included, is written as
    ``repr(float(v))``, which reads back bit for bit; ints and strings are
    written as they are."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                     for row in rows)
    return text.getvalue()


def read_json(path) -> dict:
    """The JSON object stored in ``path``.  A key repeated within one object
    raises ``DecodeError`` naming the file and the key: ``json.loads``
    would keep the last copy and drop the others unseen."""

    def unique(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DecodeError(f"{path}: repeated key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except OSError as err:
        raise DecodeError(f"{path}: cannot read ({err.strerror})") from None
    except ValueError as err:  # invalid JSON or invalid UTF-8
        raise DecodeError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise DecodeError(f"{path}: expected a JSON object")
    return payload


def record_field(rec, key: str, where: str):
    if not isinstance(rec, dict) or key not in rec:
        raise DecodeError(f"{where}: missing key {key!r}")
    return rec[key]


def record_array(rec, key: str, shape: tuple, where: str) -> np.ndarray:
    """``rec[key]`` as a finite read-only float64 array of ``shape``
    (``None`` matches any length)."""
    try:
        arr = np.array(record_field(rec, key, where), dtype=np.float64)
    except (TypeError, ValueError):
        raise DecodeError(f"{where}: {key!r} is not a numeric array") from None
    if arr.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        want = tuple("n" if n is None else n for n in shape)
        raise DecodeError(f"{where}: {key!r} has shape {arr.shape}, expected {want}")
    if not np.isfinite(arr).all():
        raise DecodeError(f"{where}: {key!r} has non-finite values")
    arr.flags.writeable = False
    return arr


def record_int(rec, key: str, where: str) -> int:
    value = record_field(rec, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DecodeError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value
