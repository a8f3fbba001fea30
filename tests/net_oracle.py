"""Reference loss and gradient code: the separate siamese and triplet
branches of batch_loss and backward that the tower table in
termforge.embednet replaced. Tests require the package to reproduce them
exactly, floats included."""

import numpy as np

from termforge.embednet import (_branch_backward, _contrastive_batch,
                                _forward_cached, _triplet_batch)


def batch_loss(params, batch, kind, margin):
    if kind == "siamese":
        e0, _ = _forward_cached(params, batch["x0"])
        e1, _ = _forward_cached(params, batch["x1"])
        losses, _ = _contrastive_batch(e0, e1, batch["y"], margin)
    elif kind == "triplet":
        ea, _ = _forward_cached(params, batch["xa"])
        ep, _ = _forward_cached(params, batch["xp"])
        en, _ = _forward_cached(params, batch["xn"])
        losses, _, _, _ = _triplet_batch(ea, ep, en, margin)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return float(losses.mean())


def backward(params, batch, kind, margin):
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    if kind == "siamese":
        e0, c0 = _forward_cached(params, batch["x0"])
        e1, c1 = _forward_cached(params, batch["x1"])
        losses, g0 = _contrastive_batch(e0, e1, batch["y"], margin)
        n = len(losses)
        _branch_backward(params, c0, g0 / n, grads)
        _branch_backward(params, c1, -g0 / n, grads)
    elif kind == "triplet":
        ea, ca = _forward_cached(params, batch["xa"])
        ep, cp = _forward_cached(params, batch["xp"])
        en, cn = _forward_cached(params, batch["xn"])
        losses, ga, gp, gn = _triplet_batch(ea, ep, en, margin)
        n = len(losses)
        _branch_backward(params, ca, ga / n, grads)
        _branch_backward(params, cp, gp / n, grads)
        _branch_backward(params, cn, gn / n, grads)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return float(losses.mean()), grads
