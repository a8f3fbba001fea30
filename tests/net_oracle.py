"""Reference network code that the package must reproduce, floats included
unless stated:

- the einsum/argmax conv and pool kernels, forward pass and branch backward
  that the explicit window-matrix kernels in termforge.embednet replaced;
- `batch_loss` / `backward`: the separate siamese and triplet branches that
  forward and back-propagate each tower's inputs on their own. They read
  the package's batch form, {"x": distinct inputs, "rows": (B, towers)
  indices into x, "y": labels}, by gathering each tower's inputs from x.
  termforge.embednet forwards each distinct input once and sums the towers'
  terms in another order, so it matches these within a float64 tolerance;
- `one_pass_batch_loss` / `one_pass_backward`: one forward over x, the same
  gather and scatter order as termforge.embednet and one branch backward,
  which the package reproduces bit for bit;
- the per-segment float64 padding of the reference embed_all, which
  termforge.embednet's `_stack` replaced by writing frames straight into
  the batch;
- the scalar contrastive and triplet losses, kept for closed-form tests.
"""

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


def _forward_cached(params, x):
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


def _branch_backward(params, cache, d_out, grads):
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


def _one_pass(params, batch, kind, margin):
    """Per-example losses, the cache of one forward over batch["x"] and the
    gradient wrt each tower's gathered embeddings."""
    e, cache = _forward_cached(params, batch["x"])
    rows = batch["rows"]
    if kind == "siamese":
        losses, g0 = _contrastive_batch(e[rows[:, 0]], e[rows[:, 1]], batch["y"], margin)
        return losses, cache, [g0, -g0]
    if kind == "triplet":
        losses, ga, gp, gn = _triplet_batch(e[rows[:, 0]], e[rows[:, 1]], e[rows[:, 2]],
                                            margin)
        return losses, cache, [ga, gp, gn]
    raise ValueError(f"unknown loss kind {kind!r}")


def one_pass_batch_loss(params, batch, kind, margin):
    losses, _, _ = _one_pass(params, batch, kind, margin)
    return float(losses.mean())


def one_pass_backward(params, batch, kind, margin):
    losses, cache, tower_grads = _one_pass(params, batch, kind, margin)
    n = len(losses)
    d_out = np.zeros((len(batch["x"]), params.arch.embed_dim))
    for t, g in enumerate(tower_grads):          # tower by tower, slot by slot
        for slot, row in enumerate(batch["rows"][:, t]):
            d_out[row] += g[slot] / n
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    _branch_backward(params, cache, d_out, grads)
    return float(losses.mean()), grads
