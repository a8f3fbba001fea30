"""Shared plumbing: seed derivation, stable hashing, atomic writes, the one
reader and writer of .npy artifacts, and `write_json` / `from_json`, the one
writer and reader of every JSON artifact and setting, each a dataclass."""

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


_JSON_TYPES = {int: {int}, float: {int, float}, str: {str}, bool: {bool}}


def _is_json_type(value, tp) -> bool:
    """Whether JSON `value` holds `tp`; only scalars, None, tuples and unions are checked."""
    if tp in _JSON_TYPES:
        return type(value) in _JSON_TYPES[tp]
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_is_json_type, value, args)))
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return any(_is_json_type(value, arm) for arm in args)
    return tp is not type(None) or value is None


def _reader(tp, built: dict, complete: bool):
    """`read(value, where)`: the value of type `tp` that JSON `value` holds,
    else a ValueError that starts with `where`. `built` holds each type's
    reader, so a dataclass's type hints are resolved once per `from_json`."""
    if tp in built:
        return built[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        # each field's reader and where: a dataclass is a section, any other a name
        fields = {f.name: (_reader(hints[f.name], built, complete),
                           f" section {f.name!r}" if dataclasses.is_dataclass(hints[f.name])
                           else f": {f.name}")
                  for f in dataclasses.fields(tp) if f.init}

        def read(data, where):
            if not isinstance(data, dict):
                raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
            if complete and not data.keys() >= fields.keys():
                raise ValueError(f"{where}: missing key(s) {[k for k in fields if k not in data]}")
            kwargs = {name: field[0](value, where + field[1]) if (field := fields.get(name))
                      else value for name, value in data.items()}
            try:
                return tp(**kwargs)
            except TypeError as exc:   # from the dataclass __init__: an unknown or missing key
                raise ValueError(f"{where}: {exc}") from None
    elif origin in (list, dict) or args[-1:] == (Ellipsis,):   # item by item, scalars at once
        item_tp = args[origin is dict]
        item, exact = _reader(item_tp, built, complete), _JSON_TYPES.get(item_tp, set())

        def read(value, where):
            if not isinstance(value, dict if origin is dict else (list, tuple)):
                raise ValueError(f"{where} must be a JSON {'object' if origin is dict else 'array'}"
                                 f", got {type(value).__name__}")
            if set(map(type, value.values() if origin is dict else value)) <= exact:
                return origin(value)
            if origin is dict:
                return {key: item(v, f"{where}[{key!r}]") for key, v in value.items()}
            return origin(item(v, f"{where}[{k}]") for k, v in enumerate(value))
    else:
        def read(value, where):   # checked whole
            if not _is_json_type(value, tp):
                raise ValueError(f"{where} must be {tp.__name__ if isinstance(tp, type) else tp}"
                                 f", got {type(value).__name__} {value!r}")
            return tuple(value) if origin is tuple else value
    built[tp] = read
    return read


def from_json(cls, data, where: str, complete: bool = False):
    """`cls(**data)` for a dataclass `cls` and a JSON object `data`, as
    `write_json` wrote it: a dataclass field from its own object, a list,
    `tuple[T, ...]` or dict item by item, a list as a tuple for a tuple. A
    scalar must hold its JSON type (an int passes for a float, a bool never
    for an int) and is not converted, so a stage hash sees it as written. A
    non-object, an unknown key, a wrong-typed value or, when `complete` (an
    artifact), a missing key raises a ValueError that starts with `where`
    and names the field; for settings an absent key keeps its default."""
    return _reader(cls, {}, complete)(data, where)


def _encode(obj) -> dict:
    """`json`'s default: a dataclass instance as the object of its init fields."""
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def stable_json(obj) -> str:
    """Canonical JSON encoding used for hashing and byte-stable artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)


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
    a final newline: the byte format of every JSON artifact, a dataclass as
    the object of its init fields. The text is streamed, not built whole."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_encode)
        fh.write("\n")


def read_json(path, decode):
    """`decode` applied to the JSON value of the file at `path`, typically a
    `from_json` call. A file that is not JSON, or a ValueError that `decode`
    raises, raises a ValueError that starts with the path; a ValueError
    subclass that `decode` raises keeps its class."""
    try:
        return decode(json.loads(Path(path).read_bytes()))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
