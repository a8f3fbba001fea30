"""Convolutional segment embedder with contrastive and triplet objectives.

A single parameter set serves every branch evaluation (the two or three
"towers" share weights by construction). The stack is:

    input (l_max x feature_dim)
    -> conv(k=5, 32 ch) -> ReLU -> maxpool(2)
    -> conv(k=5, 64 ch) -> ReLU -> maxpool(2)
    -> conv(k=3, 64 ch) -> ReLU
    -> flatten -> fc 256 -> ReLU -> fc 128 -> ReLU -> linear embed_dim

Convolutions are 1-D over time with features as channels, "valid" padding.
All math is float64; gradients are analytic (chain rule, subgradient 0 at
ReLU/hinge/maxpool kinks) and are checked against central finite differences
in the test suite. Training is plain mini-batch gradient descent.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Corpus, Segment, slice_features
from .mining import PairManifest
from .util import atomic_write, rng_from

CHECKPOINT_MAGIC = b"TERMFNET"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Epoch-mean loss became non-finite. This is the only divergence it
    reports: a run whose loss stays finite while the weights blow up is
    not caught."""


@dataclass(frozen=True)
class NetArch:
    l_max: int = 100
    feature_dim: int = 40
    conv_channels: tuple[int, int, int] = (32, 64, 64)
    conv_kernels: tuple[int, int, int] = (5, 5, 3)
    pool_width: int = 2
    fc_sizes: tuple[int, int] = (256, 128)
    embed_dim: int = 40

    def time_lengths(self) -> list[int]:
        """Per-stage time lengths: conv1, pool1, conv2, pool2, conv3."""
        lengths = []
        t = self.l_max
        for stage, kernel in enumerate(self.conv_kernels):
            t = t - kernel + 1
            if t < 1:
                raise ValueError(f"l_max={self.l_max} too short for conv stack")
            lengths.append(t)
            if stage < 2:   # blocks 1-2 pool, block 3 does not
                t = t // self.pool_width
                if t < 1:
                    raise ValueError(f"l_max={self.l_max} too short for conv stack")
                lengths.append(t)
        return lengths

    def flat_dim(self) -> int:
        return self.time_lengths()[-1] * self.conv_channels[2]

    @classmethod
    def from_dict(cls, blob: dict) -> "NetArch":
        return cls(
            l_max=blob["l_max"],
            feature_dim=blob["feature_dim"],
            conv_channels=tuple(blob["conv_channels"]),
            conv_kernels=tuple(blob["conv_kernels"]),
            pool_width=blob["pool_width"],
            fc_sizes=tuple(blob["fc_sizes"]),
            embed_dim=blob["embed_dim"],
        )


PARAM_ORDER = ("W1", "b1", "W2", "b2", "W3", "b3",
               "Wf1", "bf1", "Wf2", "bf2", "Wo", "bo")


@dataclass
class NetworkParams:
    arch: NetArch
    arrays: dict[str, np.ndarray]
    init_seed: int

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.arch, {k: v.copy() for k, v in self.arrays.items()},
                             self.init_seed)


@dataclass
class TrainConfig:
    margin: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 20
    seed: int = 0
    l_max: int = 100

    def validate(self) -> None:
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.max_epochs > 20:
            raise ValueError("max_epochs is capped at 20")


def init_params(arch: NetArch, seed: int) -> NetworkParams:
    """Fan-in-scaled uniform weights, zero biases."""
    rng = rng_from(seed)
    c1, c2, c3 = arch.conv_channels
    k1, k2, k3 = arch.conv_kernels
    f1, f2 = arch.fc_sizes
    shapes = {
        "W1": (c1, arch.feature_dim, k1), "b1": (c1,),
        "W2": (c2, c1, k2), "b2": (c2,),
        "W3": (c3, c2, k3), "b3": (c3,),
        "Wf1": (arch.flat_dim(), f1), "bf1": (f1,),
        "Wf2": (f1, f2), "bf2": (f2,),
        "Wo": (f2, arch.embed_dim), "bo": (arch.embed_dim,),
    }
    fan_in = {
        "W1": arch.feature_dim * k1,
        "W2": c1 * k2,
        "W3": c2 * k3,
        "Wf1": arch.flat_dim(),
        "Wf2": f1,
        "Wo": f2,
    }
    arrays = {}
    for name in PARAM_ORDER:
        shape = shapes[name]
        if name.startswith("b"):
            arrays[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(fan_in[name])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return NetworkParams(arch, arrays, seed)


def pad_or_truncate(features: np.ndarray, l_max: int) -> np.ndarray:
    """Zero-pad on the right, or keep only the first l_max frames."""
    if features.shape[0] == 0:
        raise ValueError("cannot pad an empty feature matrix")
    frames, dim = features.shape
    out = np.zeros((l_max, dim))
    keep = min(frames, l_max)
    out[:keep] = features[:keep]
    return out


# ---------------------------------------------------------------------------
# forward / backward


def _conv_forward(x, W, b):
    kernel = W.shape[2]
    windows = sliding_window_view(x, kernel, axis=1)      # (B, T, C_in, k)
    return np.einsum("btik,oik->bto", windows, W, optimize=True) + b


def _conv_backward(d_out, x, W):
    kernel = W.shape[2]
    windows = sliding_window_view(x, kernel, axis=1)
    dW = np.einsum("bto,btik->oik", d_out, windows, optimize=True)
    db = d_out.sum(axis=(0, 1))
    batch, t_out, _ = d_out.shape
    padded = np.zeros((batch, t_out + 2 * (kernel - 1), W.shape[0]))
    padded[:, kernel - 1:kernel - 1 + t_out] = d_out
    pwin = sliding_window_view(padded, kernel, axis=1)    # (B, T_in, C_out, k)
    dx = np.einsum("bsok,oik->bsi", pwin, W[:, :, ::-1], optimize=True)
    return dW, db, dx


def _pool_forward(x, width):
    batch, t, channels = x.shape
    t_out = t // width
    blocks = x[:, :t_out * width].reshape(batch, t_out, width, channels)
    idx = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, idx[:, :, None, :], axis=2).squeeze(2)
    return out, idx, t


def _pool_backward(d_out, idx, t_in, width):
    batch, t_out, channels = d_out.shape
    blocks = np.zeros((batch, t_out, width, channels))
    np.put_along_axis(blocks, idx[:, :, None, :], d_out[:, :, None, :], axis=2)
    dx = np.zeros((batch, t_in, channels))
    dx[:, :t_out * width] = blocks.reshape(batch, t_out * width, channels)
    return dx


def _forward_cached(params: NetworkParams, x: np.ndarray):
    """Forward pass keeping the intermediates needed for backprop."""
    p = params.arrays
    cache = {"x": x}
    z1 = _conv_forward(x, p["W1"], p["b1"])
    a1 = np.maximum(z1, 0.0)
    p1, idx1, t1 = _pool_forward(a1, params.arch.pool_width)
    z2 = _conv_forward(p1, p["W2"], p["b2"])
    a2 = np.maximum(z2, 0.0)
    p2, idx2, t2 = _pool_forward(a2, params.arch.pool_width)
    z3 = _conv_forward(p2, p["W3"], p["b3"])
    a3 = np.maximum(z3, 0.0)
    flat = a3.reshape(x.shape[0], -1)
    zf1 = flat @ p["Wf1"] + p["bf1"]
    af1 = np.maximum(zf1, 0.0)
    zf2 = af1 @ p["Wf2"] + p["bf2"]
    af2 = np.maximum(zf2, 0.0)
    out = af2 @ p["Wo"] + p["bo"]
    cache.update(z1=z1, idx1=idx1, t1=t1, p1=p1, z2=z2, idx2=idx2, t2=t2, p2=p2,
                 z3=z3, a3=a3, flat=flat, zf1=zf1, af1=af1, zf2=zf2, af2=af2)
    return out, cache


def forward(params: NetworkParams, padded: np.ndarray) -> np.ndarray:
    """Embed one (l_max x feature_dim) matrix or a batch of them."""
    single = padded.ndim == 2
    x = padded[None] if single else padded
    if x.shape[1] != params.arch.l_max or x.shape[2] != params.arch.feature_dim:
        raise ValueError(
            f"input shape {x.shape[1:]} does not match arch "
            f"({params.arch.l_max}, {params.arch.feature_dim})"
        )
    out, _ = _forward_cached(params, np.asarray(x, dtype=np.float64))
    return out[0] if single else out


def _branch_backward(params: NetworkParams, cache, d_out, grads):
    p = params.arrays
    grads["Wo"] += cache["af2"].T @ d_out
    grads["bo"] += d_out.sum(axis=0)
    d = (d_out @ p["Wo"].T) * (cache["zf2"] > 0.0)
    grads["Wf2"] += cache["af1"].T @ d
    grads["bf2"] += d.sum(axis=0)
    d = (d @ p["Wf2"].T) * (cache["zf1"] > 0.0)
    grads["Wf1"] += cache["flat"].T @ d
    grads["bf1"] += d.sum(axis=0)
    d = (d @ p["Wf1"].T).reshape(cache["a3"].shape) * (cache["z3"] > 0.0)
    dW, db, d = _conv_backward(d, cache["p2"], p["W3"])
    grads["W3"] += dW
    grads["b3"] += db
    d = _pool_backward(d, cache["idx2"], cache["t2"], params.arch.pool_width)
    d *= cache["z2"] > 0.0
    dW, db, d = _conv_backward(d, cache["p1"], p["W2"])
    grads["W2"] += dW
    grads["b2"] += db
    d = _pool_backward(d, cache["idx1"], cache["t1"], params.arch.pool_width)
    d *= cache["z1"] > 0.0
    dW, db, _ = _conv_backward(d, cache["x"], p["W1"])
    grads["W1"] += dW
    grads["b1"] += db


# ---------------------------------------------------------------------------
# losses


def contrastive_loss(e0: np.ndarray, e1: np.ndarray, y: int, margin: float) -> float:
    """0.5*y*||e0-e1||^2 + 0.5*(1-y)*max(0, m - ||e0-e1||)^2."""
    diff = np.asarray(e0, dtype=np.float64) - np.asarray(e1, dtype=np.float64)
    dist_sq = float(diff @ diff)
    if y == 1:
        return 0.5 * dist_sq
    hinge = max(0.0, margin - np.sqrt(dist_sq))
    return 0.5 * hinge * hinge


def triplet_loss(ea: np.ndarray, ep: np.ndarray, en: np.ndarray, margin: float) -> float:
    """max(0, m + ||ea-ep||^2 - ||ea-en||^2)."""
    ea = np.asarray(ea, dtype=np.float64)
    dap = ea - np.asarray(ep, dtype=np.float64)
    dan = ea - np.asarray(en, dtype=np.float64)
    return max(0.0, margin + float(dap @ dap) - float(dan @ dan))


def _contrastive_batch(e0, e1, y, margin):
    """Per-example losses and gradients wrt e0 (grad wrt e1 is the negation)."""
    diff = e0 - e1
    dist_sq = np.einsum("be,be->b", diff, diff)
    dist = np.sqrt(dist_sq)
    pos = y == 1
    hinge = np.maximum(0.0, margin - dist)
    losses = np.where(pos, 0.5 * dist_sq, 0.5 * hinge * hinge)
    # mismatched pairs pull apart only while inside the margin; the kink at
    # dist == 0 takes subgradient 0 (diff is the zero vector there anyway)
    scale = np.zeros_like(dist)
    np.divide(hinge, dist, out=scale, where=dist > 0.0)
    g = np.where(pos[:, None], diff, -scale[:, None] * diff)
    return losses, g


def _triplet_batch(ea, ep, en, margin):
    dap = ea - ep
    dan = ea - en
    raw = margin + np.einsum("be,be->b", dap, dap) - np.einsum("be,be->b", dan, dan)
    active = (raw > 0.0).astype(np.float64)[:, None]
    losses = np.maximum(0.0, raw)
    ga = 2.0 * active * (dap - dan)
    gp = -2.0 * active * dap
    gn = 2.0 * active * dan
    return losses, ga, gp, gn


# Each mode's towers, in forward order: the batch key of a tower's inputs and
# the manifest-entry field holding its segment id.
_TOWERS = {
    "siamese": (("x0", "a"), ("x1", "b")),
    "triplet": (("xa", "anchor"), ("xp", "positive"), ("xn", "negative")),
}


def _losses_and_grads(params: NetworkParams, batch: dict, kind: str, margin: float):
    """Per-example losses, each tower's forward cache and the gradient of the
    per-example losses wrt each tower's embeddings, in tower order."""
    if kind not in _TOWERS:
        raise ValueError(f"unknown loss kind {kind!r}")
    embeddings, caches = zip(*(_forward_cached(params, batch[key])
                               for key, _ in _TOWERS[kind]))
    if kind == "siamese":
        losses, g = _contrastive_batch(*embeddings, batch["y"], margin)
        return losses, caches, (g, -g)
    losses, *grads = _triplet_batch(*embeddings, margin)
    return losses, caches, grads


def batch_loss(params: NetworkParams, batch: dict, kind: str, margin: float) -> float:
    """Mean loss of a batch without gradients (finite-difference probes)."""
    losses, _, _ = _losses_and_grads(params, batch, kind, margin)
    return float(losses.mean())


def backward(params: NetworkParams, batch: dict, kind: str, margin: float):
    """Mean batch loss plus analytic gradients for every parameter."""
    losses, caches, tower_grads = _losses_and_grads(params, batch, kind, margin)
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    n = len(losses)
    for cache, g in zip(caches, tower_grads):
        _branch_backward(params, cache, g / n, grads)
    return float(losses.mean()), grads


# ---------------------------------------------------------------------------
# training


def _stack(corpus: Corpus, segments: list[Segment], l_max: int) -> np.ndarray:
    """Padded float64 features of each segment, stacked into one batch."""
    return np.stack([
        pad_or_truncate(np.asarray(slice_features(corpus, seg), dtype=np.float64), l_max)
        for seg in segments
    ])


def train(params: NetworkParams, manifest: PairManifest, corpus: Corpus,
          segments: list[Segment], config: TrainConfig, mode: str):
    """Mini-batch gradient descent; stops early once the epoch-mean loss
    plateaus (improvement < 1e-4 absolute). Deterministic for a fixed seed.

    Raises TrainingDiverged only when an epoch-mean loss is non-finite. A
    run whose loss stays finite while the weights grow without bound (for
    instance, a loss driven to exactly 0) ends normally and is not caught."""
    config.validate()
    if mode not in _TOWERS:
        raise ValueError(f"unknown training mode {mode!r}")
    entries = manifest.siamese_pairs if mode == "siamese" else manifest.triplets
    if not entries:
        raise ValueError(f"manifest has no {mode} entries")

    segments_by_id = {s.id: s for s in segments}
    params = params.copy()
    rng = rng_from(config.seed)
    curve: list[float] = []
    for _epoch in range(config.max_epochs):
        order = rng.permutation(len(entries))
        total = 0.0
        for lo in range(0, len(entries), config.batch_size):
            chunk = [entries[k] for k in order[lo:lo + config.batch_size]]
            batch = {key: _stack(corpus, [segments_by_id[getattr(e, attr)] for e in chunk],
                                 config.l_max)
                     for key, attr in _TOWERS[mode]}
            if mode == "siamese":
                batch["y"] = np.array([p.y for p in chunk])
            loss, grads = backward(params, batch, mode, config.margin)
            total += loss * len(chunk)
            if config.learning_rate != 0.0:
                for name, grad in grads.items():
                    params.arrays[name] -= config.learning_rate * grad
        epoch_mean = total / len(entries)
        if not np.isfinite(epoch_mean):
            raise TrainingDiverged(f"epoch-mean loss is {epoch_mean}")
        curve.append(epoch_mean)
        if len(curve) >= 2 and curve[-2] - curve[-1] < 1e-4:
            break
    return params, curve


def embed_all(params: NetworkParams, segments: list[Segment], corpus: Corpus,
              l_max: int, chunk_size: int = 256) -> np.ndarray:
    """Embedding table: row i is the embedding of segments[i]."""
    rows = []
    for lo in range(0, len(segments), chunk_size):
        out, _ = _forward_cached(params, _stack(corpus, segments[lo:lo + chunk_size], l_max))
        rows.append(out)
    if not rows:
        return np.zeros((0, params.arch.embed_dim))
    return np.concatenate(rows, axis=0)


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, arch JSON, shapes header, f64 payload


def save_params(path, params: NetworkParams) -> None:
    arch_blob = json.dumps({"arch": asdict(params.arch),
                            "init_seed": params.init_seed},
                           sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(arch_blob)))
        fh.write(arch_blob)
        fh.write(struct.pack("<I", len(PARAM_ORDER)))
        for name in PARAM_ORDER:
            arr = params.arrays[name]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(params.arrays[name], dtype="<f8").tobytes())


def load_params(path) -> NetworkParams:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a network checkpoint")
    offset = 8
    version, = struct.unpack_from("<I", raw, offset)
    offset += 4
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    blob_len, = struct.unpack_from("<I", raw, offset)
    offset += 4
    meta = json.loads(raw[offset:offset + blob_len].decode("utf-8"))
    offset += blob_len
    count, = struct.unpack_from("<I", raw, offset)
    offset += 4
    shapes = []
    for _ in range(count):
        name_len, = struct.unpack_from("<H", raw, offset)
        offset += 2
        name = raw[offset:offset + name_len].decode("utf-8")
        offset += name_len
        ndim, = struct.unpack_from("<B", raw, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}Q", raw, offset)
        offset += 8 * ndim
        shapes.append((name, tuple(int(d) for d in shape)))
    arrays = {}
    for name, shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=size, offset=offset)
        offset += 8 * size
        arrays[name] = arr.reshape(shape).copy()
    return NetworkParams(NetArch.from_dict(meta["arch"]), arrays, meta["init_seed"])


def write_loss_curve(path, curve: list[float]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(curve, 1):
            writer.writerow([epoch, repr(value)])
