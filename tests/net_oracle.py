"""Reference network code that the package must reproduce, floats included
unless stated:

- the einsum/tensordot/argmax conv and pool kernels, forward pass and
  branch backward that the explicit window-matrix kernels in
  termforge.embednet replaced;
- the padded semantics: `forward`, `embed_all`, `batch_loss` and `backward`
  run the stack over each input zero-padded or cut to l_max frames, and the
  separate siamese and triplet branches forward and back-propagate each
  tower's inputs on their own. They read the package's batch form, {"x":
  distinct inputs, "rows": (B, towers) indices into x, "y": labels}, by
  gathering each tower's inputs from x. termforge.embednet runs the conv
  stack over its packed layout and each distinct input once, so it matches
  these within a float64 tolerance;
- the packed layout, built here by its definition: `pack` lays out the
  template slot and one slot per input, and `packed_forward`,
  `packed_embed_all`, `packed_batch_loss` and `packed_backward` run the
  reference kernels once over it, with one forward over x and the same
  gather and scatter order as termforge.embednet. They take the choice
  between the packed and the padded layout from the caller, so that the
  package's rule for it is stated once. The package reproduces their
  embeddings and losses bit for bit, and their gradients to float64
  rounding, because it forms each conv gradient by kernel taps;
- the window-matrix conv backward ("im2col") that termforge.embednet ran
  before it formed each conv gradient by kernel taps, over the package's
  channel-major layout: `window_conv_backward`, which agrees with the tap
  kernels to float64 rounding;
- the scalar contrastive and triplet losses, kept for closed-form tests.
"""

from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from termforge.corpus import slice_features
from termforge.embednet import _contrastive_batch, _triplet_batch


def pad_or_truncate(features: np.ndarray, l_max: int) -> np.ndarray:
    """Zero-pad on the right, or keep only the first l_max frames."""
    if features.shape[0] == 0:
        raise ValueError("cannot pad an empty feature matrix")
    frames, dim = features.shape
    out = np.zeros((l_max, dim))
    keep = min(frames, l_max)
    out[:keep] = features[:keep]
    return out


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


def _conv_forward(x, W, b):
    kernel = W.shape[2]
    windows = sliding_window_view(x, kernel, axis=1)      # (B, T, C_in, k)
    return np.einsum("btik,oik->bto", windows, W, optimize=True) + b


def _conv_backward(d_out, x, W):
    kernel = W.shape[2]
    windows = sliding_window_view(x, kernel, axis=1)
    # the window matrix C-ordered, as einsum lays it out for kernel > 1; for
    # kernel 1 einsum hands matmul an F-ordered view, which rounds
    # differently once the product sums 16 or more terms
    rows = np.ascontiguousarray(windows.transpose(2, 3, 0, 1))
    dW = np.tensordot(rows, d_out, axes=([2, 3], [0, 1])).transpose(2, 0, 1)
    db = d_out.sum(axis=(0, 1))
    batch, t_out, _ = d_out.shape
    padded = np.zeros((batch, t_out + 2 * (kernel - 1), W.shape[0]))
    padded[:, kernel - 1:kernel - 1 + t_out] = d_out
    pwin = sliding_window_view(padded, kernel, axis=1)    # (B, T_in, C_out, k)
    dx = np.einsum("bsok,oik->bsi", pwin, W[:, :, ::-1], optimize=True)
    return dW, db, dx


def _window_matrix(x, kernel):
    """Window matrix of a valid convolution over channel-major x (C, B, T_in):
    row c*kernel + j, column b*T + t holds x[c, b, t + j]."""
    channels, batch, t_in = x.shape
    t_out = t_in - kernel + 1
    cols = np.empty((channels, kernel, batch, t_out), dtype=x.dtype)
    for j in range(kernel):
        cols[:, j] = x[:, :, j:j + t_out]
    return cols.reshape(channels * kernel, batch * t_out)


def window_conv_backward(d_out, x, W, input_grad=True):
    """Weight, bias and (unless input_grad is false) input gradients of a
    conv layer from channel-major d_out (C_out, B, T) and input x: the
    weight gradient is the window matrix of x times d, the input gradient
    the flipped kernel times the window matrix of the zero-padded d. These
    are the operands and orders of `_conv_backward` above, in the
    channel-major layout."""
    out_ch, in_ch, kernel = W.shape
    _, batch, t_out = d_out.shape
    rows = np.ascontiguousarray(d_out.transpose(1, 2, 0)).reshape(batch * t_out, out_ch)
    dW = (_window_matrix(x, kernel) @ rows).reshape(in_ch, kernel, out_ch).transpose(2, 0, 1)
    db = rows.sum(axis=0)
    if not input_grad:
        return dW, db, None
    padded = np.zeros((out_ch, batch, t_out + 2 * (kernel - 1)), dtype=d_out.dtype)
    padded[:, :, kernel - 1:kernel - 1 + t_out] = d_out
    flipped = W[:, :, ::-1].transpose(1, 0, 2).reshape(in_ch, out_ch * kernel)
    dx = flipped @ _window_matrix(padded, kernel)
    return dW, db, dx.reshape(in_ch, batch, -1)


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


def _conv_stack(params, x, cache):
    """The three conv blocks over x (B, T, feature_dim); returns the conv3
    activations (B, T3, C3)."""
    p = params.arrays
    cache["x"] = x
    z1 = _conv_forward(x, p["W1"], p["b1"])
    a1 = np.maximum(z1, 0.0)
    p1, idx1, t1 = _pool_forward(a1, params.arch.pool_width)
    z2 = _conv_forward(p1, p["W2"], p["b2"])
    a2 = np.maximum(z2, 0.0)
    p2, idx2, t2 = _pool_forward(a2, params.arch.pool_width)
    z3 = _conv_forward(p2, p["W3"], p["b3"])
    a3 = np.maximum(z3, 0.0)
    cache.update(z1=z1, idx1=idx1, t1=t1, p1=p1, z2=z2, idx2=idx2, t2=t2, p2=p2,
                 z3=z3, a3=a3)
    return a3


def _fc_head(params, flat, cache):
    p = params.arrays
    zf1 = flat @ p["Wf1"] + p["bf1"]
    af1 = np.maximum(zf1, 0.0)
    zf2 = af1 @ p["Wf2"] + p["bf2"]
    af2 = np.maximum(zf2, 0.0)
    cache.update(flat=flat, zf1=zf1, af1=af1, zf2=zf2, af2=af2)
    return af2 @ p["Wo"] + p["bo"]


def _forward_cached(params, x):
    """Forward pass over padded x (B, l_max, feature_dim), keeping the
    intermediates needed for backprop."""
    cache = {}
    a3 = _conv_stack(params, x, cache)
    return _fc_head(params, a3.reshape(x.shape[0], -1), cache), cache


def _fc_backward(params, cache, d_out, grads):
    """Gradients of the fc layers; returns the gradient wrt fc1's input."""
    p = params.arrays
    grads["Wo"] += cache["af2"].T @ d_out
    grads["bo"] += d_out.sum(axis=0)
    d = (d_out @ p["Wo"].T) * (cache["zf2"] > 0.0)
    grads["Wf2"] += cache["af1"].T @ d
    grads["bf2"] += d.sum(axis=0)
    d = (d @ p["Wf2"].T) * (cache["zf1"] > 0.0)
    grads["Wf1"] += cache["flat"].T @ d
    grads["bf1"] += d.sum(axis=0)
    return d @ p["Wf1"].T


def _conv_stack_backward(params, cache, d, grads):
    """Gradients of the conv blocks from d, the gradient wrt the conv3
    activations."""
    p = params.arrays
    d = d * (cache["z3"] > 0.0)
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


def _branch_backward(params, cache, d_out, grads):
    d = _fc_backward(params, cache, d_out, grads)
    _conv_stack_backward(params, cache, d.reshape(cache["a3"].shape), grads)


def forward(params, x):
    """Embeddings of a batch (B, l_max, feature_dim)."""
    out, _ = _forward_cached(params, np.asarray(x, dtype=np.float64))
    return out


def embed_all(params, segments, corpus, l_max, chunk_size=256):
    rows = []
    for lo in range(0, len(segments), chunk_size):
        batch = np.stack([
            pad_or_truncate(np.asarray(slice_features(corpus, seg), dtype=np.float64), l_max)
            for seg in segments[lo:lo + chunk_size]
        ])
        rows.append(forward(params, batch))
    if not rows:
        return np.zeros((0, params.arch.embed_dim))
    return np.concatenate(rows, axis=0)


def _towers(batch, count):
    """Each tower's (B, l_max, feature_dim) inputs, gathered from batch["x"]."""
    return [batch["x"][batch["rows"][:, t]] for t in range(count)]


def batch_loss(params, batch, kind, margin):
    if kind == "siamese":
        x0, x1 = _towers(batch, 2)
        e0, _ = _forward_cached(params, x0)
        e1, _ = _forward_cached(params, x1)
        losses, _ = _contrastive_batch(e0, e1, batch["y"], margin)
    elif kind == "triplet":
        xa, xp, xn = _towers(batch, 3)
        ea, _ = _forward_cached(params, xa)
        ep, _ = _forward_cached(params, xp)
        en, _ = _forward_cached(params, xn)
        losses, _, _, _ = _triplet_batch(ea, ep, en, margin)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return float(losses.mean())


def backward(params, batch, kind, margin):
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    if kind == "siamese":
        x0, x1 = _towers(batch, 2)
        e0, c0 = _forward_cached(params, x0)
        e1, c1 = _forward_cached(params, x1)
        losses, g0 = _contrastive_batch(e0, e1, batch["y"], margin)
        n = len(losses)
        _branch_backward(params, c0, g0 / n, grads)
        _branch_backward(params, c1, -g0 / n, grads)
    elif kind == "triplet":
        xa, xp, xn = _towers(batch, 3)
        ea, ca = _forward_cached(params, xa)
        ep, cp = _forward_cached(params, xp)
        en, cn = _forward_cached(params, xn)
        losses, ga, gp, gn = _triplet_batch(ea, ep, en, margin)
        n = len(losses)
        _branch_backward(params, ca, ga / n, grads)
        _branch_backward(params, cp, gp / n, grads)
        _branch_backward(params, cn, gn / n, grads)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return float(losses.mean()), grads


def _shortest_input(arch):
    """The fewest input frames for which the conv stack has an output: the
    frames one conv3 output reads."""
    frames = 1
    while True:
        try:
            replace(arch, l_max=frames).time_lengths()
            return frames
        except ValueError:
            frames += 1


def pack(arch, inputs, packed):
    """The layout of `inputs`, frame matrices of at most l_max frames
    (longer ones are cut) whose frames after the last nonzero one are
    padding. Conv3 output t of an input reads its frames [t*s, t*s + span),
    s = pool_width**2; it reads data when t*s is below the data length, and
    otherwise only padding.

    The packed layout is one sequence: a slot per input holding its frames
    from 0 to the last frame its data outputs read, zero-filled to a
    multiple of s so that every slot starts on a pooling boundary of both
    pools, then a template slot of zeros with one conv3 output. The padded
    layout is one row of l_max frames per input. `packed` picks the layout:
    which one runs is the package's choice, which this reference does not
    make again. Returns the (rows, frames, feature_dim) input and the (B,
    T3) position in the conv3 output flattened over its rows that each
    input's conv3 output t is read from: its own for a data output, the
    template's (-1, the last) for a padding one."""
    stride = arch.pool_width ** 2
    span = _shortest_input(arch)
    t3 = arch.time_lengths()[-1]

    def slot(outputs):
        frames = (outputs - 1) * stride + span
        return frames + (-frames) % stride

    rows, pieces, gather = [], [], []
    for frames in inputs:
        frames = np.asarray(frames, dtype=np.float64)[:arch.l_max]
        data = 0
        for t in range(len(frames)):
            if frames[t].any():
                data = t + 1
        row = np.zeros((arch.l_max, arch.feature_dim))
        row[:data] = frames[:data]
        rows.append(row)
        outputs = sum(1 for t in range(t3) if t * stride < data)
        start = sum(len(piece) for piece in pieces) // stride
        gather.append([start + t if t < outputs else -1 for t in range(t3)])
        if outputs:
            piece = np.zeros((slot(outputs), arch.feature_dim))
            keep = min(data, len(piece))
            piece[:keep] = frames[:keep]
            pieces.append(piece)
    if not packed:
        return np.stack(rows), np.arange(len(rows) * t3).reshape(-1, t3)
    sequence = np.concatenate(pieces + [np.zeros((slot(1), arch.feature_dim))])
    return sequence[None], np.array(gather, dtype=int).reshape(-1, t3)


def _packed_forward_cached(params, inputs, packs):
    x, gather = pack(params.arch, inputs, packs(inputs))
    cache = {"gather": gather}
    a3 = _conv_stack(params, x, cache)
    flat = a3.reshape(-1, a3.shape[2])[gather].reshape(len(gather), -1)
    return _fc_head(params, flat, cache), cache


def _packed_branch_backward(params, cache, d_out, grads):
    """Each data position of fc1's input passes its gradient to its one
    conv3 position; the padding positions' gradients are summed, in row
    order, into the template's."""
    gather = cache["gather"].reshape(-1)
    d = _fc_backward(params, cache, d_out, grads).reshape(len(gather), -1)
    padding = gather < 0
    d3 = np.zeros((cache["a3"][:, :, 0].size, d.shape[1]))
    d3[gather[~padding]] = d[~padding]
    if padding.any():
        d3[-1] = d[padding].sum(axis=0)
    _conv_stack_backward(params, cache, d3.reshape(cache["a3"].shape), grads)


def packed_forward(params, inputs, packs):
    """Embeddings of `inputs` over the layout that `packs(inputs)`, a
    predicate over a batch's frame matrices, picks: packed where true."""
    out, _ = _packed_forward_cached(params, inputs, packs)
    return out


def packed_embed_all(params, segments, corpus, packs, chunk_size=256):
    rows = [packed_forward(params, [slice_features(corpus, seg)
                                    for seg in segments[lo:lo + chunk_size]], packs)
            for lo in range(0, len(segments), chunk_size)]
    if not rows:
        return np.zeros((0, params.arch.embed_dim))
    return np.concatenate(rows, axis=0)


def _packed_one_pass(params, batch, kind, margin, packs):
    """Per-example losses, the cache of one packed forward over batch["x"]
    and the gradient wrt each tower's gathered embeddings."""
    e, cache = _packed_forward_cached(params, batch["x"], packs)
    rows = batch["rows"]
    if kind == "siamese":
        losses, g0 = _contrastive_batch(e[rows[:, 0]], e[rows[:, 1]], batch["y"], margin)
        return losses, cache, [g0, -g0]
    if kind == "triplet":
        losses, ga, gp, gn = _triplet_batch(e[rows[:, 0]], e[rows[:, 1]], e[rows[:, 2]],
                                            margin)
        return losses, cache, [ga, gp, gn]
    raise ValueError(f"unknown loss kind {kind!r}")


def packed_batch_loss(params, batch, kind, margin, packs):
    losses, _, _ = _packed_one_pass(params, batch, kind, margin, packs)
    return float(losses.mean())


def packed_backward(params, batch, kind, margin, packs):
    losses, cache, tower_grads = _packed_one_pass(params, batch, kind, margin, packs)
    n = len(losses)
    d_out = np.zeros((len(batch["x"]), params.arch.embed_dim))
    for t, g in enumerate(tower_grads):          # tower by tower, slot by slot
        for slot, row in enumerate(batch["rows"][:, t]):
            d_out[row] += g[slot] / n
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    _packed_branch_backward(params, cache, d_out, grads)
    return float(losses.mean()), grads
