"""Shared plumbing: seed derivation, stable hashing, atomic writes, the one
reader and writer of JSON and .npy artifacts, and `from_json` for settings."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import types
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class ScaleError(RuntimeError):
    """Raised when a computation would exceed its size or operation budget
    (all-pairs alignment cells, dense-matrix points)."""


def derive_seed(root_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named consumer of a root seed."""
    payload = struct.pack("<Q", root_seed & _MASK64) + label.encode("utf-8")
    return struct.unpack("<Q", hashlib.sha256(payload).digest()[:8])[0]


def rng_from(seed: int) -> np.random.Generator:
    """Counter-based generator; reproducible independent of thread schedule."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool}


def _is_json_type(value, tp) -> bool:
    """Whether JSON `value` holds `tp`; only scalars, None, tuples and unions are checked."""
    if tp in _JSON_TYPES:
        return isinstance(value, _JSON_TYPES[tp]) and (tp is bool or not isinstance(value, bool))
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_is_json_type, value, args)))
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return any(_is_json_type(value, arm) for arm in args)
    return tp is not type(None) or value is None


def from_json(cls, data, where: str):
    """`cls(**data)` for a dataclass `cls` and a JSON object `data`. A list
    becomes a tuple for a `tuple[...]` field; a dataclass field that is not
    already an instance is built from its own object, with `where` + " section
    '<field>'". A scalar must hold its JSON type (an int passes for a float, a
    bool never for an int) and is not converted, so a stage hash sees it as
    written. A non-object, an unknown or missing key or a wrong-typed value
    raises a ValueError that starts with `where`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        tp = hints.get(name)
        if dataclasses.is_dataclass(tp) and not isinstance(value, tp):
            value = from_json(tp, value, f"{where} section {name!r}")
        elif tp is not None and not _is_json_type(value, tp):
            raise ValueError(f"{where}: {name} must be "
                             f"{tp.__name__ if isinstance(tp, type) else tp}, "
                             f"got {type(value).__name__} {value!r}")
        kwargs[name] = tuple(value) if typing.get_origin(tp) is tuple else value
    try:
        return cls(**kwargs)
    except TypeError as exc:   # from the dataclass __init__: an unknown or missing key
        raise ValueError(f"{where}: {exc}") from None


def stable_json(obj) -> str:
    """Canonical JSON encoding used for hashing and byte-stable artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary sibling of `path` for writing and rename it over
    `path` when the block completes, so a reader finds the old file or the
    whole new one, never a torn one. On an exception the temporary is removed
    and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write `obj` to `path` atomically as sorted, 2-space indented JSON with
    a final newline: the byte format of every JSON artifact. The text is
    streamed to the file, not built whole first."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path, decode):
    """`decode` applied to the JSON value of the file at `path`. A file that is
    not JSON, and a KeyError, TypeError, AttributeError or ValueError that
    `decode` raises, raise a ValueError that starts with the path; a
    ValueError subclass that `decode` raises keeps its class."""
    try:
        return decode(json.loads(Path(path).read_bytes()))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def write_npy(path, array) -> None:
    """Write `array` to `path` atomically as a C-ordered little-endian float32
    .npy: the byte format of every array artifact."""
    with atomic_write(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(array, dtype="<f4"))


def read_npy(path, ndim: int) -> np.ndarray:
    """The `ndim`-D array of a file that `write_npy` wrote. An empty, cut or
    zipped file, another dtype or rank, or bytes after the array raise a
    ValueError that starts with the path."""
    try:
        with open(path, "rb") as fh:
            # not np.load, which raises EOFError on an empty file and opens a zip
            array = np.lib.format.read_array(fh, allow_pickle=False)
            trailing = fh.read(1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if array.ndim != ndim or array.dtype != np.dtype("<f4"):
        raise ValueError(f"{path}: expected a {ndim}-D little-endian float32 array, "
                         f"got {array.ndim}-D {array.dtype}")
    if trailing:
        raise ValueError(f"{path}: bytes after the array")
    return array
