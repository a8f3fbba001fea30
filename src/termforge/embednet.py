"""Convolutional segment embedder with contrastive and triplet objectives.

A single parameter set serves every branch evaluation (the two or three
"towers" share weights by construction). The stack is:

    input (l_max x feature_dim)
    -> conv(k=5, 32 ch) -> ReLU -> maxpool(2)
    -> conv(k=5, 64 ch) -> ReLU -> maxpool(2)
    -> conv(k=3, 64 ch) -> ReLU
    -> flatten -> fc 256 -> ReLU -> fc 128 -> ReLU -> linear embed_dim

Convolutions are 1-D over time with features as channels, "valid" padding.
Gradients are analytic (chain rule, subgradient 0 at ReLU/hinge/maxpool
kinks) and are checked against central finite differences in the test
suite. Training is plain mini-batch gradient descent.

Every kernel computes in the dtype of the parameters: inputs are cast to it
and every buffer is allocated in it. `init_params` and `load_params` give
float32, the dtype of the stored features, so the pipeline trains, stores
and embeds in float32. The tests cast a `NetworkParams` to float64 and run
the same kernels, for the finite-difference checks and the reference
below; float32 results match that reference within a stated tolerance.

A checkpoint is two files that the caller names, as a corpus is: a JSON
header of the arch and init_seed, and a .npy of one float32 vector that holds
every parameter, flattened in `param_shapes` order.

Activations are kept channel-major, (C, B, T). The forward pass of a
convolution is one matrix product over an explicit window matrix ("im2col",
Chellapilla, Puri & Simard 2006): `_cols` fills the (C*k, B*T) matrix one
kernel tap at a time from contiguous rows, and the output is
W.reshape(C_out, C*k) @ cols. These are the operands, shapes and orders of
the reference kernels of tests/net_oracle.py, so in float64 every embedding
is bit-identical to theirs. The backward pass forms no window matrix, as
MEC (Cho & Brand 2017) convolves over unexpanded data. It lays d into rows
as long as the input's, zero after each row's outputs, and takes one
product per kernel tap j over the flat (C, B*T_in) views of d and x, cut to
n = B*T_in - k + 1 columns: dW[:, :, j] = d @ x[:, j:j + n].T and
dx[:, j:j + n] += W[:, :, j].T @ d. A column that straddles two rows is
zero in d, so this is exact in real arithmetic for the packed and the
padded layout alike; in float64 the gradients match the reference's to
TAP_RTOL of tests/test_embednet.py (1e-12 of the gradient scale; under
1e-14 measured). The first layer's input gradient is never formed. Max-pool
compares strided slices and keeps the first maximum, a NaN counting as the
maximum, as argmax does.

The conv stack runs over a packed layout, not over each input zero-padded to
l_max. An input's data ends at its last nonzero frame (a segment longer than
l_max is first cut to l_max); the frames after it are padding. Conv3 output
t reads input frames [t*s, t*s + span), s = pool_width**2 and span =
`_receptive_field` (24 for the default arch), so it reads data only when
t*s is below the data length, and every other conv3 output reads zeros
alone and equals the same output of an all-zero input. A packed batch is
one channel-major sequence (feature_dim, 1, frames): one slot per input
with its frames up to the last one its data outputs read, zero-filled to a
multiple of s, so that every slot starts on a boundary of both pools, then
a template slot of zeros one conv3 output wide. For the default arch a slot
holds 4*ceil(L/4) + 20 frames for data length L, at most about l_max, and
an all-zero input gets none. `_cols` and the conv and pool kernels run once
over the whole sequence. fc1's flat input takes each data output from its
slot and every padding output from the template's. In the backward pass,
the padding outputs' gradients are summed into the template's one conv3
position. This is exact in real arithmetic: each padding output's backward
cone sees the template's activations, ReLU signs and pool choices. In
float64 the results differ from the padded stack's only by rounding, about
1e-15 relative, because the GEMMs have other shapes and the padding
gradients are summed before the weight gradients.

Packing is not free: at each conv layer, the k - 1 outputs that straddle
two slots are computed and read by nothing. A batch therefore runs packed
only when that takes fewer conv multiply-adds (`_conv_macs`) than the
padded stack, one (feature_dim, B, l_max) row per input, which then runs
as before, float for float. At l_max 100 a batch of 9-64-frame segments
packs into about 40% of the padded frames; at l_max 40 most segments fill
their slot and batches run padded.

A training step embeds each distinct segment of its batch once. The batch
holds the U distinct inputs `x` and a (B, towers) table `rows`, so that tower
t of example i embeds x[rows[i, t]]. The losses read the embeddings gathered
by `rows`; each tower's embedding gradient is scatter-added onto the U rows,
tower by tower and slot by slot, and one branch backward runs over x. In
float64 a step's loss is bit-identical to the same gather, scatter, packed
layout and branch backward around the reference kernels, and its gradients
match theirs to rounding. It equals the per-tower reference over padded
inputs, which forwards and back-propagates each tower's B inputs on their
own, only to rounding. The step's forward cache keeps each ReLU's input as
its bool mask z > 0.0, all that backprop reads of it.

A step's working set is its forward cache and one gradient set: the branch
backward pops each cached array after its last read, and `train` drops a
step's gradients once it has applied them.

Inference frees the packed or padded input once conv1's window matrix is
built from it, so only that matrix and its product are live at a chunk's
largest GEMM.

A BLAS product's last bits can depend on its shape: OpenBLAS picks kernels
and blockings by size. The packed sequence of a chunk of `embed_all` is as
long as the sum of its segments' slots, so each row's floats depend on the
chunk it lands in: embedding in chunks of another size changes them by
rounding. `embed_all` embeds CHUNK_SEGMENTS = 64 segments per chunk: at
l_max 40 a chunk's conv1 window matrix is then 1.84 MB, where 256 segments
made it 7.37 MB. 64 is the knee of its time per corpus: on a 2-core x86
host with one BLAS thread, 64-segment chunks take 0.94x (l_max 40) and
1.03x (l_max 100) the time of 256-segment ones, and 32-segment chunks 1.01x
and 1.12x. On the learned bench runs the 64-segment tables differ from the
256-segment ones by at most 3.2e-7 of a table's largest |entry|, and every
cluster membership is the same.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Segment, slice_features
from .mining import PairManifest
from .util import atomic_write, from_json, read_json, read_npy, rng_from, write_json, write_npy

# the dtype of the parameters init_params and load_params give; a checkpoint
# stores them as one little-endian vector of it (see save_params)
PARAM_DTYPE = np.dtype(np.float32)
# segments that embed_all packs into one forward pass (see the module docstring)
CHUNK_SEGMENTS = 64


class TrainingDiverged(RuntimeError):
    """Epoch-mean loss became non-finite. In float32 a learning rate that
    blows the weights up overflows the embeddings within an epoch, for the
    triplet loss as for the contrastive one, and the loss turns inf or NaN.
    A run whose weights grow large but stay finite, with a finite loss, is
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
        lengths = [self.l_max]
        for stage, kernel in enumerate(self.conv_kernels):
            lengths.append(lengths[-1] - kernel + 1)
            if stage < 2:   # blocks 1-2 pool, block 3 does not
                lengths.append(lengths[-1] // self.pool_width)
        if min(lengths) < 1:
            raise ValueError(f"l_max={self.l_max} too short for conv stack")
        return lengths[1:]

    def flat_dim(self) -> int:
        return self.time_lengths()[-1] * self.conv_channels[2]


@dataclass
class NetworkParams:
    arch: NetArch
    arrays: dict[str, np.ndarray]
    init_seed: int

    @property
    def dtype(self) -> np.dtype:
        """The dtype every kernel computes in."""
        return self.arrays["W1"].dtype

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.arch, {k: v.copy() for k, v in self.arrays.items()},
                             self.init_seed)


@dataclass
class TrainConfig:
    """Training settings. `l_max` is the input width the pipeline builds
    `NetArch` with; `train` and `embed_all` read `params.arch.l_max`."""
    margin: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 20
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
        NetArch(l_max=self.l_max).time_lengths()   # l_max is long enough for the conv stack


def param_shapes(arch: NetArch) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in checkpoint order: (C_out, C_in, kernel) for a
    conv weight, (inputs, outputs) for a dense one. Raises a ValueError when
    a width is not positive or l_max is too short for the conv stack."""
    widths = (arch.feature_dim, *arch.conv_channels, *arch.conv_kernels, arch.pool_width,
              *arch.fc_sizes, arch.embed_dim)
    if min(widths) < 1:
        raise ValueError(f"every width of {arch} must be positive")
    c1, c2, c3 = arch.conv_channels
    k1, k2, k3 = arch.conv_kernels
    f1, f2 = arch.fc_sizes
    return {
        "W1": (c1, arch.feature_dim, k1), "b1": (c1,),
        "W2": (c2, c1, k2), "b2": (c2,),
        "W3": (c3, c2, k3), "b3": (c3,),
        "Wf1": (arch.flat_dim(), f1), "bf1": (f1,),
        "Wf2": (f1, f2), "bf2": (f2,),
        "Wo": (f2, arch.embed_dim), "bo": (arch.embed_dim,),
    }


def init_params(arch: NetArch, seed: int) -> NetworkParams:
    """Fan-in-scaled uniform weights, zero biases, in PARAM_DTYPE (drawn in
    float64 and rounded)."""
    rng = rng_from(seed)
    arrays = {}
    for name, shape in param_shapes(arch).items():
        if name.startswith("b"):
            arrays[name] = np.zeros(shape, dtype=PARAM_DTYPE)
        else:
            fan_in = math.prod(shape[1:]) if len(shape) == 3 else shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            arrays[name] = rng.uniform(-bound, bound, size=shape).astype(PARAM_DTYPE)
    return NetworkParams(arch, arrays, seed)


# ---------------------------------------------------------------------------
# forward / backward


def _cols(x, kernel):
    """Window matrix of a valid convolution over channel-major x (C, B, T_in):
    row c*kernel + j, column b*T + t holds x[c, b, t + j]."""
    channels, batch, t_in = x.shape
    t_out = t_in - kernel + 1
    cols = np.empty((channels, kernel, batch, t_out), dtype=x.dtype)
    for j in range(kernel):
        cols[:, j] = x[:, :, j:j + t_out]
    return cols.reshape(channels * kernel, batch * t_out)


def _conv_forward(cols, batch, W, b):
    """Valid convolution from the window matrix `_cols` built of a
    channel-major input (C_in, batch, T_in); the result is channel-major
    (C_out, batch, T)."""
    out_ch = len(W)
    z = W.reshape(out_ch, -1) @ cols
    z = z.reshape(out_ch, batch, -1)
    z += b[:, None, None]
    return z


def _conv_backward(d_out, x, W, input_grad=True):
    """Weight, bias and (unless input_grad is false) input gradients of a
    conv layer from channel-major d_out (C_out, B, T) and input x (C_in, B,
    T_in), one product per kernel tap over flat views, with no window
    matrix. d_out is laid into rows of T_in columns, zero after its T, so
    that column b*T_in + t of the flat view is output t of row b and every
    column that straddles two rows is zero."""
    out_ch, in_ch, kernel = W.shape
    _, batch, t_in = x.shape
    buffer = np.zeros((out_ch, batch, t_in), dtype=d_out.dtype)
    buffer[:, :, :d_out.shape[2]] = d_out
    n = batch * t_in - kernel + 1
    full = buffer.reshape(out_ch, -1)[:, :n]
    flat = x.reshape(in_ch, -1)
    dW = np.empty(W.shape, dtype=d_out.dtype)
    for j in range(kernel):
        dW[:, :, j] = full @ flat[:, j:j + n].T
    db = d_out.sum(axis=(1, 2))
    if not input_grad:
        return dW, db, None
    dx = np.zeros((in_ch, batch * t_in), dtype=d_out.dtype)
    for j in range(kernel):
        dx[:, j:j + n] += W[:, :, j].T @ full
    return dW, db, dx.reshape(in_ch, batch, t_in)


def _pool_forward(x, width):
    """Max over non-overlapping windows of `width` frames of channel-major x;
    idx is the first position of each maximum, a NaN counting as the
    maximum."""
    span = x.shape[2] // width * width
    out = x[:, :, 0:span:width]
    idx = np.zeros(out.shape, dtype=np.int8)
    for j in range(1, width):
        cand = x[:, :, j:span:width]
        take = ~(cand <= out) & ~np.isnan(out)
        out = np.where(take, cand, out)
        idx += take * (j - idx)       # idx[take] = j, without a masked store
    return out, idx


def _pool_backward(d_out, idx, t_in, width):
    """Each pooled gradient goes to the frame its maximum came from."""
    channels, batch, t_out = d_out.shape
    dx = np.zeros((channels, batch, t_in), dtype=d_out.dtype)
    for j in range(width):
        dx[:, :, j:t_out * width:width] = np.where(idx == j, d_out, 0.0)
    return dx


def _receptive_field(arch: NetArch) -> int:
    """Input frames one conv3 output reads: the shortest input for which
    the conv stack has one output."""
    k1, k2, k3 = arch.conv_kernels
    width = arch.pool_width
    return (k3 * width + k2 - 1) * width + k1 - 1


def _conv_macs(arch: NetArch, frames: int) -> int:
    """Multiply-adds of the three convolutions over one input row of
    `frames` frames."""
    channels_in = (arch.feature_dim, *arch.conv_channels[:2])
    outputs = replace(arch, l_max=frames).time_lengths()[0::2]
    return sum(c_in * kernel * c_out * t for c_in, kernel, c_out, t
               in zip(channels_in, arch.conv_kernels, arch.conv_channels, outputs))


def _pack(arch: NetArch, inputs, dtype: np.dtype):
    """The layout the conv stack runs over for a batch of frame matrices
    (see the module docstring): the packed one or the padded one, whichever
    needs fewer conv multiply-adds, the padded one on a tie. Returns the
    channel-major (feature_dim, rows, frames) array and the (B, T3) index
    of each input's conv3 outputs in the conv3 output flattened to (rows *
    T3', channels); -1, the template's, for a padding output. Each input is
    cut to l_max frames, and frames after its last nonzero one count as
    padding."""
    stride = arch.pool_width ** 2
    span = _receptive_field(arch)
    t3 = arch.time_lengths()[-1]
    lengths = []
    for frames in inputs:
        length = min(len(frames), arch.l_max)
        if length and not frames[length - 1].any():
            nonzero = np.flatnonzero(frames[:length].any(axis=1))
            length = int(nonzero[-1]) + 1 if len(nonzero) else 0
        lengths.append(length)
    lengths = np.array(lengths, dtype=np.int64)
    data_outputs = np.minimum(-(-lengths // stride), t3)
    widths = np.where(data_outputs > 0,
                      -(-((data_outputs - 1) * stride + span) // stride) * stride, 0)
    starts = np.concatenate(([0], np.cumsum(widths)))
    total = starts[-1] + -(-span // stride) * stride     # the template slot last
    positions = np.arange(t3)
    if _conv_macs(arch, total) >= len(lengths) * _conv_macs(arch, arch.l_max):
        seq = np.zeros((arch.feature_dim, len(lengths), arch.l_max), dtype=dtype)
        for row, (frames, length) in enumerate(zip(inputs, lengths.tolist())):
            seq[:, row, :length] = frames[:length].T
        return seq, np.arange(len(lengths))[:, None] * t3 + positions
    seq = np.zeros((arch.feature_dim, 1, total), dtype=dtype)
    # a slot may end before the input's last data frame, which no
    # conv3 output of the padded stack reads
    for frames, start, length in zip(inputs, starts.tolist(),
                                     np.minimum(lengths, widths).tolist()):
        seq[:, 0, start:start + length] = frames[:length].T
    gather = np.where(positions < data_outputs[:, None],
                      starts[:-1, None] // stride + positions, -1)
    return seq, gather


def _forward(params: NetworkParams, inputs, cache: dict | None = None):
    """Embeddings of a batch of frame matrices, each (frames, feature_dim),
    computed in the dtype of the parameters over the layout `_pack` picks. A
    `cache` dict receives the intermediates backprop needs, each ReLU's
    input as its bool mask `z > 0.0`; without one, no mask is formed, each
    intermediate is dropped once the next layer has read it, and the packed
    or padded input once conv1's window matrix is built from it."""
    p = params.arrays
    k1, k2, k3 = params.arch.conv_kernels
    width = params.arch.pool_width
    keep = cache.update if cache is not None else lambda **_: None
    mask = (lambda z: z > 0.0) if cache is not None else (lambda z: None)
    h, gather = _pack(params.arch, inputs, params.dtype)
    keep(x=h, gather=gather)
    cols, batch = _cols(h, k1), h.shape[1]
    del h
    z = _conv_forward(cols, batch, p["W1"], p["b1"])
    del cols
    h, idx = _pool_forward(np.maximum(z, 0.0), width)
    keep(m1=mask(z), idx1=idx, p1=h)
    z = _conv_forward(_cols(h, k2), batch, p["W2"], p["b2"])
    h, idx = _pool_forward(np.maximum(z, 0.0), width)
    keep(m2=mask(z), idx2=idx, p2=h)
    z = _conv_forward(_cols(h, k3), batch, p["W3"], p["b3"])
    h = np.ascontiguousarray(z.reshape(len(z), -1).T)
    h = np.maximum(h, 0.0, out=h)[gather].reshape(len(gather), -1)
    keep(m3=mask(z), flat=h)
    z = h @ p["Wf1"] + p["bf1"]
    h = np.maximum(z, 0.0)
    keep(mf1=mask(z), af1=h)
    z = h @ p["Wf2"] + p["bf2"]
    h = np.maximum(z, 0.0)
    keep(mf2=mask(z), af2=h)
    return h @ p["Wo"] + p["bo"]


def forward(params: NetworkParams, padded: np.ndarray) -> np.ndarray:
    """Embed one (l_max x feature_dim) matrix or a batch of them; trailing
    zero frames are padding."""
    single = padded.ndim == 2
    x = padded[None] if single else padded
    if x.shape[1] != params.arch.l_max or x.shape[2] != params.arch.feature_dim:
        raise ValueError(
            f"input shape {x.shape[1:]} does not match arch "
            f"({params.arch.l_max}, {params.arch.feature_dim})"
        )
    out = _forward(params, x)
    return out[0] if single else out


def _branch_backward(params: NetworkParams, cache, d_out) -> dict[str, np.ndarray]:
    """The gradient of every parameter that d_out, the gradient wrt the
    embeddings of one forward pass, back-propagates through that pass's
    `cache`. Each gradient is the product that forms it, with no zeroed
    array to add it into, and each cached array is popped after its last
    read, so the cache ends empty."""
    p = params.arrays
    width = params.arch.pool_width
    grads = {"Wo": cache.pop("af2").T @ d_out, "bo": d_out.sum(axis=0)}
    d = (d_out @ p["Wo"].T) * cache.pop("mf2")
    grads["Wf2"] = cache.pop("af1").T @ d
    grads["bf2"] = d.sum(axis=0)
    d = (d @ p["Wf2"].T) * cache.pop("mf1")
    grads["Wf1"] = cache.pop("flat").T @ d
    grads["bf1"] = d.sum(axis=0)
    # each data position of fc1's input takes its gradient from one row;
    # the template's one position takes the sum over every padding row
    gather = cache.pop("gather").reshape(-1)
    d = (d @ p["Wf1"].T).reshape(len(gather), -1)
    m3 = cache.pop("m3")
    d3 = np.zeros((m3[0].size, d.shape[1]), dtype=d.dtype)
    padding = gather < 0
    d3[gather[~padding]] = d[~padding]
    if padding.any():
        d3[-1] = d[padding].sum(axis=0)
    d3 *= m3.reshape(len(m3), -1).T
    d = d3.T.reshape(m3.shape)
    del m3
    grads["W3"], grads["b3"], d = _conv_backward(d, cache.pop("p2"), p["W3"])
    d = _pool_backward(d, cache.pop("idx2"), cache["m2"].shape[2], width)
    d *= cache.pop("m2")
    grads["W2"], grads["b2"], d = _conv_backward(d, cache.pop("p1"), p["W2"])
    d = _pool_backward(d, cache.pop("idx1"), cache["m1"].shape[2], width)
    d *= cache.pop("m1")
    grads["W1"], grads["b1"], _ = _conv_backward(d, cache.pop("x"), p["W1"], input_grad=False)
    return grads


# ---------------------------------------------------------------------------
# losses


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
    active = (raw > 0.0).astype(raw.dtype)[:, None]
    losses = np.maximum(0.0, raw)
    ga = 2.0 * active * (dap - dan)
    gp = -2.0 * active * dap
    gn = 2.0 * active * dan
    return losses, ga, gp, gn


# Each mode's towers, in forward order: the manifest-entry field holding a
# tower's segment id.
_TOWERS = {
    "siamese": ("a", "b"),
    "triplet": ("anchor", "positive", "negative"),
}


def _losses_and_grads(params: NetworkParams, batch: dict, kind: str, margin: float):
    """Per-example losses, the forward cache of the distinct inputs
    batch["x"] and the gradient of the per-example losses wrt each tower's
    embeddings, in tower order. Tower t of example i embeds
    x[rows[i, t]]."""
    if kind not in _TOWERS:
        raise ValueError(f"unknown loss kind {kind!r}")
    cache = {}
    embeddings = _forward(params, batch["x"], cache)
    towers = embeddings[batch["rows"].T]      # (towers, B, embed_dim)
    if kind == "siamese":
        losses, g = _contrastive_batch(*towers, batch["y"], margin)
        return losses, cache, (g, -g)
    losses, *grads = _triplet_batch(*towers, margin)
    return losses, cache, grads


def backward(params: NetworkParams, batch: dict, kind: str, margin: float):
    """Mean batch loss plus analytic gradients for every parameter. The
    batch is {"x": U distinct inputs, "rows": (B, towers) indices into x,
    "y": (B,) labels, siamese only}. An input is a (frames, feature_dim)
    matrix read as its first l_max frames, zero-padded; a (U, l_max,
    feature_dim) array holds U of them. Each tower's embedding gradient is
    added onto the rows of x it read, tower by tower and slot by slot, and
    one branch backward runs over x."""
    losses, cache, tower_grads = _losses_and_grads(params, batch, kind, margin)
    n = len(losses)
    d_out = np.zeros((len(batch["x"]), params.arch.embed_dim), dtype=params.dtype)
    for t, g in enumerate(tower_grads):
        np.add.at(d_out, batch["rows"][:, t], g / n)
    return float(losses.mean()), _branch_backward(params, cache, d_out)


# ---------------------------------------------------------------------------
# training


def tower_segment_ids(manifest: PairManifest, mode: str) -> np.ndarray:
    """(entries, towers) array of the segment id each tower of each `mode`
    entry of the manifest reads, towers in forward order."""
    if mode not in _TOWERS:
        raise ValueError(f"unknown training mode {mode!r}")
    entries = manifest.siamese if mode == "siamese" else manifest.triplets
    if not entries:
        raise ValueError(f"manifest has no {mode} entries")
    return np.array([[getattr(entry, field) for field in _TOWERS[mode]]
                     for entry in entries])


def train(params: NetworkParams, manifest: PairManifest, corpus: Corpus,
          segments: list[Segment], config: TrainConfig, mode: str, seed: int):
    """Mini-batch gradient descent in the dtype of `params`; stops early once
    the epoch-mean loss plateaus (improvement < 1e-4 absolute). `seed`
    seeds the batch order, so equal arguments train an identical network.

    Each step makes one `backward` call over the feature views of the
    distinct segments of its batch; no padded copy of them is kept. A
    manifest entry naming a segment id that `segments` lacks raises a
    ValueError before the first step.

    Raises TrainingDiverged when an epoch-mean loss is non-finite, which
    in float32 an absurd learning rate brings about in either mode. A run
    whose weights grow large but stay finite with a finite loss (for
    instance, a loss driven to exactly 0) ends normally and is not caught;
    in float64 that is where a blown-up triplet net ends."""
    config.validate()
    tower_ids = tower_segment_ids(manifest, mode)
    position = {s.id: i for i, s in enumerate(segments)}
    distinct, entry_rows = np.unique(tower_ids, return_inverse=True)
    for seg_id in distinct:
        if seg_id not in position:
            entry, tower = np.argwhere(tower_ids == seg_id)[0]
            raise ValueError(f"{mode} manifest entry {entry}: {_TOWERS[mode][tower]} "
                             f"is segment {seg_id}, which is not among the segments")
    # the distinct segment that tower t of entry k reads
    entry_rows = entry_rows.reshape(tower_ids.shape)
    frames = [slice_features(corpus, segments[position[seg_id]]) for seg_id in distinct]
    labels = np.array([p.y for p in manifest.siamese]) if mode == "siamese" else None

    params = params.copy()
    rng = rng_from(seed)
    curve: list[float] = []
    for _epoch in range(config.max_epochs):
        order = rng.permutation(len(entry_rows))
        total = 0.0
        for lo in range(0, len(entry_rows), config.batch_size):
            chunk = order[lo:lo + config.batch_size]
            used, rows = np.unique(entry_rows[chunk], return_inverse=True)
            batch = {"x": [frames[u] for u in used], "rows": rows.reshape(len(chunk), -1)}
            if labels is not None:
                batch["y"] = labels[chunk]
            loss, grads = backward(params, batch, mode, config.margin)
            total += loss * len(chunk)
            if config.learning_rate != 0.0:
                for name in params.arrays:
                    params.arrays[name] -= config.learning_rate * grads[name]
            del grads       # before the next step's backward allocates its own
        epoch_mean = total / len(entry_rows)
        if not np.isfinite(epoch_mean):
            raise TrainingDiverged(f"epoch-mean loss is {epoch_mean}")
        curve.append(epoch_mean)
        if len(curve) >= 2 and curve[-2] - curve[-1] < 1e-4:
            break
    return params, curve


def embed_all(params: NetworkParams, segments: list[Segment], corpus: Corpus) -> np.ndarray:
    """Embedding table in the dtype of `params`: row i is the embedding of
    segments[i], its features padded or cut to the network's input width.
    Each chunk of CHUNK_SEGMENTS segments is packed into one sequence whose
    length, and so the GEMM shapes and the last bits of every row, depend on
    the chunk's segments (see the module docstring)."""
    rows = []
    for lo in range(0, len(segments), CHUNK_SEGMENTS):
        rows.append(_forward(params, [slice_features(corpus, seg)
                                      for seg in segments[lo:lo + CHUNK_SEGMENTS]]))
    if not rows:
        return np.zeros((0, params.arch.embed_dim), dtype=params.dtype)
    return np.concatenate(rows, axis=0)


# ---------------------------------------------------------------------------
# checkpoint: a header {"arch": ..., "init_seed": ...} and one vector, which
# param_shapes of the header's arch cuts into the parameters


@dataclass
class _Header:
    arch: NetArch
    init_seed: int


def save_params(header_path, vector_path, params: NetworkParams) -> None:
    write_npy(vector_path, np.concatenate([params.arrays[name].ravel()
                                           for name in param_shapes(params.arch)]))
    write_json(header_path, _Header(params.arch, params.init_seed))


def _decode_header(blob) -> tuple[NetArch, int, dict[str, tuple[int, ...]]]:
    header = from_json(_Header, blob, "network header", complete=True)
    return header.arch, header.init_seed, param_shapes(header.arch)


def load_params(header_path, vector_path) -> NetworkParams:
    """The network that save_params stored, in PARAM_DTYPE, each array a view
    of the one vector read. A header that is not an arch and an integer
    init_seed, or a vector that is not a float32 .npy of the arch's parameter
    count, raises a ValueError that starts with the path of the file at
    fault."""
    arch, init_seed, shapes = read_json(header_path, _decode_header)
    vector = read_npy(vector_path, 1)
    sizes = [math.prod(shape) for shape in shapes.values()]
    if len(vector) != sum(sizes):
        raise ValueError(f"{vector_path}: {len(vector)} parameters, but the arch of "
                         f"{header_path} has {sum(sizes)}")
    chunks = np.split(vector, np.cumsum(sizes)[:-1])
    return NetworkParams(arch, {name: chunk.reshape(shape).astype(PARAM_DTYPE, copy=False)
                                for (name, shape), chunk in zip(shapes.items(), chunks)},
                         init_seed)


def write_loss_curve(path, curve: list[float]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(curve, 1):
            writer.writerow([epoch, repr(value)])
