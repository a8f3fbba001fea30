"""Shared plumbing: seed derivation, stable hashing, worker counts, atomic writes."""

from __future__ import annotations

import hashlib
import json
import os
import struct
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


def worker_count(requested: int | None = None) -> int:
    """Effective worker count; the TERMFORGE_THREADS env var caps any request."""
    cap = os.environ.get("TERMFORGE_THREADS")
    if cap is not None:
        try:
            cap_value = max(1, int(cap))
        except ValueError as exc:
            raise ValueError(f"TERMFORGE_THREADS must be an integer, got {cap!r}") from exc
        return cap_value if requested is None else min(requested, cap_value)
    return 1 if requested is None else max(1, requested)


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
