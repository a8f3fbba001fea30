import io
import json
import math
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import net_oracle
from net_oracle import contrastive_loss, pad_or_truncate, triplet_loss
from termforge import embednet
from termforge.corpus import Corpus, Segment, Utterance, slice_features
from termforge.embednet import (NetArch, NetworkParams, TrainConfig,
                                TrainingDiverged, backward,
                                embed_all, forward, init_params, load_params,
                                param_shapes, save_params, train)
from termforge.mining import PairManifest, SiamesePair, Triplet
from termforge.seqmatch import AlignScoring, discover_segments
from termforge.synthgen import SynthConfig, generate
from termforge.util import rng_from

SMALL = NetArch(l_max=24, feature_dim=8)
SMALL_SIZE = sum(math.prod(shape) for shape in param_shapes(SMALL).values())

# Float32 results against the float64 reference, as a fraction of the
# largest magnitude compared. Float32 rounds at 6e-8. Over the stack's sums
# of up to ~1,500 terms, the embedding and loss errors measured on 1,600
# random kernel cases stayed below 1e-5 of the largest embedding or the
# loss. Gradients are scaled by the largest gradient entry of the whole
# network, because a bias gradient can cancel to ~0 between the towers;
# that cancellation also leaves them larger errors, up to 1e-4 measured.
# Where an input's embedding gradient is zero in exact arithmetic, as for
# a triplet's positive and negative that read one input
# (`_cancelling_inputs`), both dtypes keep only rounding residue of its
# terms, which the rest of the batch may not outweigh. So the scale is at
# least TERM_SHARE of those inputs' `_term_scale`, their gradient with
# nothing cancelling; every other input's terms are judged by the largest
# gradient entry alone. Over 10,000 random kernel cases the floor decided
# in 3.9%; there the float32 error measured at most 3.1e-7 of that
# `_term_scale`, and elsewhere at most 1.5e-4 of the largest gradient
# entry.
TERM_SHARE = 1e-2
FLOAT32_RTOL = 1e-4
FLOAT32_GRAD_RTOL = 1e-3


def float64(params):
    """The same network cast to float64, in which the kernels reproduce the
    reference code, the forward pass bit for bit and the gradients to
    TAP_RTOL, and finite differences are meaningful."""
    return NetworkParams(params.arch, {name: arr.astype(np.float64)
                                       for name, arr in params.arrays.items()},
                         params.init_seed)


def _close32(actual, expected, rtol=FLOAT32_RTOL, scale=None):
    """float32 `actual` within rtol * scale of the float64 `expected`; the
    scale defaults to the largest |expected|."""
    if scale is None:
        scale = np.abs(expected).max(initial=0.0)
    return (actual.dtype == np.float32 and expected.dtype == np.float64
            and actual.shape == expected.shape
            and bool((np.abs(actual - expected) <= rtol * scale).all()))


def test_pad_identity():
    x = np.arange(12.0).reshape(4, 3)
    assert (pad_or_truncate(x, 4) == x).all()


def test_pad_appends_zero_rows():
    x = np.ones((3, 2))
    padded = pad_or_truncate(x, 5)
    assert padded.shape == (5, 2)
    assert (padded[3:] == 0).all() and (padded[:3] == 1).all()


def test_truncate_keeps_head():
    x = np.arange(14.0).reshape(7, 2)
    assert (pad_or_truncate(x, 5) == x[:5]).all()


def test_forward_zero_params_zero_input():
    params = init_params(SMALL, 0)
    for name in params.arrays:
        params.arrays[name][:] = 0.0
    out = forward(params, np.zeros((SMALL.l_max, SMALL.feature_dim)))
    assert out.shape == (SMALL.embed_dim,)
    assert (out == 0.0).all()


def test_zero_input_zero_bias_gives_zero_embedding():
    params = init_params(SMALL, 3)   # weights random, biases zero
    out = forward(params, np.zeros((SMALL.l_max, SMALL.feature_dim)))
    assert (out == 0.0).all()


def test_final_layer_is_linear():
    params = init_params(SMALL, 4)
    rng = rng_from(1)
    x = rng.standard_normal((SMALL.l_max, SMALL.feature_dim))
    base = forward(params, x)
    doubled = params.copy()
    doubled.arrays["Wo"] *= 2.0
    doubled.arrays["bo"] *= 2.0
    assert np.allclose(forward(doubled, x), 2.0 * base, atol=1e-12)


def naive_forward(params, x):
    """Independent layer-by-layer re-evaluation with plain loops."""
    arch = params.arch
    p = params.arrays

    def conv(inp, W, b):
        t_out = inp.shape[0] - W.shape[2] + 1
        out = np.zeros((t_out, W.shape[0]))
        for t in range(t_out):
            for o in range(W.shape[0]):
                acc = b[o]
                for i in range(W.shape[1]):
                    for k in range(W.shape[2]):
                        acc += W[o, i, k] * inp[t + k, i]
                out[t, o] = acc
        return out

    def pool(inp, width):
        t_out = inp.shape[0] // width
        out = np.zeros((t_out, inp.shape[1]))
        for t in range(t_out):
            for c in range(inp.shape[1]):
                out[t, c] = max(inp[t * width + j, c] for j in range(width))
        return out

    relu = lambda v: np.maximum(v, 0.0)
    h = pool(relu(conv(x, p["W1"], p["b1"])), arch.pool_width)
    h = pool(relu(conv(h, p["W2"], p["b2"])), arch.pool_width)
    h = relu(conv(h, p["W3"], p["b3"]))
    h = h.reshape(-1)
    h = relu(h @ p["Wf1"] + p["bf1"])
    h = relu(h @ p["Wf2"] + p["bf2"])
    return h @ p["Wo"] + p["bo"]


def test_init_params_draws_float64_and_rounds_to_float32():
    params = init_params(SMALL, 7)
    assert {arr.dtype for arr in params.arrays.values()} == {np.dtype(np.float32)}
    assert params.dtype == np.float32
    bound = 1.0 / np.sqrt(SMALL.feature_dim * SMALL.conv_kernels[0])
    drawn = rng_from(7).uniform(-bound, bound, size=params.arrays["W1"].shape)
    assert (params.arrays["W1"] == drawn.astype(np.float32)).all()


def test_forward_matches_naive_oracle():
    params = float64(init_params(SMALL, 7))
    rng = rng_from(2)
    for _ in range(3):
        x = rng.standard_normal((SMALL.l_max, SMALL.feature_dim))
        assert np.allclose(forward(params, x), naive_forward(params, x), atol=1e-10)


def test_contrastive_closed_forms():
    e = np.array([0.3, -0.2, 1.0])
    assert contrastive_loss(e, e, 1, 1.0) == 0.0
    far = e + np.array([2.0, 0.0, 0.0])
    assert contrastive_loss(e, far, 0, 1.0) == 0.0          # hinge inactive
    assert abs(contrastive_loss(e, e, 0, 1.0) - 0.5) < 1e-12


def test_triplet_closed_forms():
    ea = np.zeros(4)
    ep = np.array([1.0, 0, 0, 0])
    assert abs(triplet_loss(ea, ep, ep, 1.0) - 1.0) < 1e-12  # distances cancel
    en_far = np.array([2.0, 0, 0, 0])
    assert triplet_loss(ea, ep, en_far, 1.0) == 0.0          # gap >= margin
    en = np.array([1.2, 0, 0, 0])
    assert abs(triplet_loss(ea, ep, en, 1.0) - 0.56) < 1e-12


def test_contrastive_matched_gradient_is_difference():
    rng = rng_from(8)
    e0 = rng.standard_normal((5, 7))
    e1 = rng.standard_normal((5, 7))
    _, grad = embednet._contrastive_batch(e0, e1, np.ones(5, dtype=int), 1.0)
    assert np.allclose(grad, e0 - e1, atol=1e-14)


def test_zero_loss_batch_zero_gradient():
    params = init_params(SMALL, 9)
    rng = rng_from(3)
    x = rng.standard_normal((3, SMALL.l_max, SMALL.feature_dim))
    batch = {"x": x, "rows": np.array([[0, 0], [1, 1], [2, 2]]), "y": np.ones(3, dtype=int)}
    loss, grads = backward(params, batch, "siamese", margin=1.0)
    assert loss == 0.0
    assert all((g == 0.0).all() for g in grads.values())


def batch_loss(params, batch, kind, margin):
    """Mean loss of a batch without gradients, for the finite-difference
    probes: the mean of the per-example losses that `backward` averages."""
    losses, _, _ = embednet._losses_and_grads(params, batch, kind, margin)
    return float(losses.mean())


def _read_by(used, kernel):
    """The positions of each row of a valid convolution's input that the
    `used` (rows, outputs) outputs read."""
    rows, outputs = used.shape
    read = np.zeros((rows, outputs + kernel - 1), dtype=bool)
    for j in range(kernel):
        read[:, j:j + outputs] |= used
    return read


def _state_signature(params, batch):
    """ReLU signs and pool choices of the forward pass over batch["x"] at
    the positions that reach the loss: the conv3 positions fc1 reads and
    the windows below them. Positions that straddle two slots of the packed
    sequence reach nothing, and their kinks do not bend the loss."""
    cache = {}
    embednet._forward(params, batch["x"], cache)
    _, k2, k3 = params.arch.conv_kernels
    width = params.arch.pool_width
    used = np.zeros(cache["m3"][0].shape, dtype=bool)
    used.reshape(-1)[cache["gather"]] = True
    parts = [cache["m3"][:, used]]
    for mask, idx, kernel in (("m2", "idx2", k3), ("m1", "idx1", k2)):
        pooled = _read_by(used, kernel)
        used = np.zeros(cache[mask][0].shape, dtype=bool)
        used[:, :pooled.shape[1] * width] = pooled.repeat(width, axis=1)
        parts += [cache[idx][:, pooled], cache[mask][:, used]]
    parts += [cache[mask] for mask in ("mf1", "mf2")]
    return b"".join(np.ascontiguousarray(part).tobytes() for part in parts)


def run_gradient_check(params, batch, kind, margin, n_probes, h, rng,
                       max_skipped=None):
    """Central-difference check; probes whose activation signature flips
    between theta-h and theta+h cross a kink, where the finite-difference
    oracle is invalid, and are re-drawn."""
    _, grads = backward(params, batch, kind, margin)
    names = list(param_shapes(params.arch))
    checked = 0
    skipped = 0
    worst = 0.0
    while checked < n_probes:
        name = names[int(rng.integers(0, len(names)))]
        flat = params.arrays[name].reshape(-1)
        k = int(rng.integers(0, flat.size))
        orig = flat[k]
        flat[k] = orig + h
        sig_plus = _state_signature(params, batch)
        loss_plus = batch_loss(params, batch, kind, margin)
        flat[k] = orig - h
        sig_minus = _state_signature(params, batch)
        loss_minus = batch_loss(params, batch, kind, margin)
        flat[k] = orig
        if sig_plus != sig_minus:
            skipped += 1
            if max_skipped is not None:
                assert skipped <= max_skipped, "too many kink crossings"
            continue
        numeric = (loss_plus - loss_minus) / (2 * h)
        analytic = grads[name].reshape(-1)[k]
        rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, rel)
        checked += 1
    return worst, skipped


@st.composite
def tower_rows(draw, kind, size):
    """(size, towers) indices into 1-6 distinct inputs, so that an input may
    repeat within a tower and across towers and may be the only one."""
    towers = len(embednet._TOWERS[kind])
    distinct = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, distinct - 1), min_size=towers, max_size=towers)
    return np.array(draw(st.lists(cells, min_size=size, max_size=size)))


def _compact(rows):
    """The number of distinct inputs rows uses, and rows renumbered onto
    them, as train batches them."""
    used, renumbered = np.unique(rows, return_inverse=True)
    return len(used), renumbered.reshape(rows.shape)


def _zero_frames(rng, x):
    """Zero the frames of each input of x (B, l_max, feature_dim) after a
    drawn data length, 0 (an all-zero input) included, as padding is: a
    quarter of the inputs keep every frame, a quarter keep at most the
    first third, as short segments at a long l_max do, and the rest any
    prefix. Half of them also get a run of zero frames that may fall inside
    their data."""
    l_max = x.shape[1]
    for row in x:
        share = int(rng.integers(0, 4))
        if share:
            row[int(rng.integers(0, l_max // 3 + 1 if share == 1 else l_max)):] = 0.0
        if rng.integers(0, 2):
            start = int(rng.integers(0, l_max))
            row[start:start + int(rng.integers(1, 6))] = 0.0
    return x


@st.composite
def tower_batches(draw):
    """A batch of 1-5 examples for either loss over distinct inputs that
    repeat within and across towers and end in zero frames. A siamese batch
    mixes y and may pair an input with itself (the dist == 0 kink); a
    triplet batch may hold an example whose hinge is inactive."""
    kind = draw(st.sampled_from(["siamese", "triplet"]))
    size = draw(st.integers(1, 5))
    rows = draw(tower_rows(kind, size))
    rng = rng_from(draw(st.integers(0, 2**16)))
    # at the paper's l_max of 100, most batches run packed
    arch = replace(SMALL, l_max=draw(st.sampled_from([SMALL.l_max, 100])))
    params = float64(init_params(arch, draw(st.integers(0, 2**16))))
    margin = draw(st.sampled_from([0.05, 1.0, 2.0]))
    special = draw(st.none() | st.integers(0, size - 1))
    if special is not None:     # a pair of equal inputs; anchor == positive
        rows[special, 1] = rows[special, 0]
    distinct, rows = _compact(rows)
    x = _zero_frames(rng, rng.standard_normal((distinct, arch.l_max, arch.feature_dim)))
    batch = {"x": x, "rows": rows}
    if kind == "siamese":
        batch["y"] = np.array(draw(st.lists(st.integers(0, 1), min_size=size,
                                            max_size=size)))
    elif special is not None:
        # a margin below half the anchor-negative distance, unless the two
        # embed alike: m + 0 - ||ea - en||^2 < 0
        ea = forward(params, x[rows[special, 0]])
        en = forward(params, x[rows[special, 2]])
        gap = 0.5 * float((ea - en) @ (ea - en))
        if gap > 0.0:
            margin = min(margin, gap)
    return params, batch, kind, margin


# The package against the per-tower reference in float64. The towers' terms
# are summed in another order, the conv GEMMs may run over the packed layout,
# not the padded one, and the padding positions' gradients are then summed
# before the conv backward, so the two agree to rounding only. The loss is
# compared as a fraction of the larger of itself and the margin, its terms'
# size. A gradient is compared as a fraction of the larger of the loss and
# the largest gradient entry: where the towers' terms cancel exactly, the
# reference keeps rounding noise and the package 0. Over 3,000 drawn batches,
# with zero frames and l_max 24 or 100, the largest differences measured
# 2.1e-15 of the loss and 1.1e-13 of the gradient scale (5.4e-14 and
# 2.6e-14 over 8,000 before packing).
PER_TOWER_RTOL = 1e-12


@given(tower_batches())
@settings(max_examples=80)
def test_loss_and_gradients_match_two_branch_reference(case):
    """The per-tower reference over padded inputs is the semantics; the
    one-pass packed step matches it to float64 rounding."""
    params, batch, kind, margin = case
    expected_loss = net_oracle.batch_loss(params, batch, kind, margin)
    loss_tolerance = PER_TOWER_RTOL * max(abs(expected_loss), margin)
    assert abs(batch_loss(params, batch, kind, margin) - expected_loss) <= loss_tolerance
    loss, grads = backward(params, batch, kind, margin)
    expected_loss, expected = net_oracle.backward(params, batch, kind, margin)
    assert abs(loss - expected_loss) <= loss_tolerance
    assert grads.keys() == expected.keys()
    scale = max(abs(expected_loss), *(np.abs(grad).max() for grad in expected.values()))
    for name, grad in grads.items():
        assert grad.dtype == expected[name].dtype
        assert grad.shape == expected[name].shape
        assert (np.abs(grad - expected[name]) <= PER_TOWER_RTOL * scale).all(), name


def _packs(params):
    """The package's layout choice as the packed reference takes it: a
    predicate over a batch's frame matrices, true where the conv stack runs
    them packed. The padded layout is (feature_dim, B, l_max); the packed
    one is (feature_dim, 1, frames) with fewer frames than B * l_max."""
    def packs(inputs):
        sequence, _ = embednet._pack(params.arch, inputs, params.dtype)
        return sequence.shape[1:] != (len(inputs), params.arch.l_max)
    return packs


# The package's conv gradients against the reference kernels' in float64.
# The package forms each by kernel taps, one product per tap over flat views
# of its layout, where the reference multiplies a window matrix, so the two
# sum the same terms in other orders and agree to rounding only. A gradient
# is compared as a fraction of the largest entry of the reference's gradient
# set (of dW, db and dx apart in the kernel test), because a bias gradient
# can cancel to ~0. Over 40,000 drawn kernel operands, B = 1 and B > 1, the
# largest difference measured 6.1e-15 of that scale; over 8,000 drawn
# network batches, packed and padded, 8.8e-16.
TAP_RTOL = 1e-12


def _close64(actual, expected, scale):
    """Float64 `actual` within TAP_RTOL * scale of `expected` where both are
    finite, and NaN wherever `expected` is. A tap's product also multiplies
    the input frames that straddle two rows of the padded layout by a zero
    gradient, so a NaN there, which pooling drops before it reaches the
    loss, turns NaN more entries of a gradient that the window matrix
    already makes NaN: `actual` may hold a NaN where `expected` does not
    only when `expected` holds one too."""
    nan, expected_nan = np.isnan(actual), np.isnan(expected)
    close = np.abs(actual - expected) <= TAP_RTOL * scale
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and bool((nan | ~expected_nan).all())
            and bool((close | nan & expected_nan.any()).all()))


def _gradient_scale(grads):
    """The largest finite |entry| of a gradient set."""
    return max(np.abs(grad[np.isfinite(grad)]).max(initial=0.0) for grad in grads)


@st.composite
def conv_operands(draw):
    """Float64 operands of one conv layer's backward in the channel-major
    layout: d_out (C_out, B, T), zero at a drawn share of its entries as
    ReLU masks make it, input x (C_in, B, T + k - 1) and W (C_out, C_in, k).
    B = 1 is the packed layout, B > 1 the padded one."""
    in_ch, out_ch = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kernel, t_out = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    batch = draw(st.just(1) | st.integers(2, 6))
    rng = rng_from(draw(st.integers(0, 2**16)))
    d_out = rng.standard_normal((out_ch, batch, t_out))
    d_out *= rng.random(d_out.shape) >= draw(st.sampled_from([0.0, 0.5, 0.9]))
    x = rng.standard_normal((in_ch, batch, t_out + kernel - 1))
    return d_out, x, rng.standard_normal((out_ch, in_ch, kernel))


@given(conv_operands(), st.booleans())
@settings(max_examples=200)
def test_conv_backward_by_taps_matches_window_matrix_kernel(operands, input_grad):
    d_out, x, W = operands
    actual = embednet._conv_backward(d_out, x, W, input_grad)
    expected = net_oracle.window_conv_backward(d_out, x, W, input_grad)
    assert (actual[2] is None) == (expected[2] is None) == (not input_grad)
    for name, got, want in zip(("dW", "db", "dx"), actual, expected):
        if want is not None:
            assert _close64(got, want, _gradient_scale([want])), name


@given(tower_batches())
@settings(max_examples=80)
def test_loss_and_gradients_match_one_pass_reference(case):
    """One packed forward over the distinct inputs, as the package runs it:
    the loss bit for bit, the gradients to TAP_RTOL."""
    params, batch, kind, margin = case
    assert batch_loss(params, batch, kind, margin) \
        == net_oracle.packed_batch_loss(params, batch, kind, margin, _packs(params))
    loss, grads = backward(params, batch, kind, margin)
    expected_loss, expected = net_oracle.packed_backward(params, batch, kind, margin,
                                                         _packs(params))
    assert loss == expected_loss
    assert grads.keys() == expected.keys()
    scale = _gradient_scale(expected.values())
    for name, grad in grads.items():
        assert _close64(grad, expected[name], scale), name


def _min_l_max(arch):
    """Smallest l_max for which the conv stack of `arch` fits."""
    l_max = 1
    while True:
        try:
            replace(arch, l_max=l_max).time_lengths()
            return l_max
        except ValueError:
            l_max += 1


def _kernel_inputs(rng, size, arch, integer, nan):
    """(size, l_max, feature_dim) inputs that end in zero frames and hold
    zero runs (`_zero_frames`). Integer-valued ones repeat each frame, so
    pool windows tie; `nan` puts one NaN somewhere."""
    shape = (size, arch.l_max, arch.feature_dim)
    if integer:
        x = np.repeat(rng.integers(-2, 3, size=shape).astype(float), 2, axis=1)
        x = np.ascontiguousarray(x[:, :arch.l_max])
    else:
        x = rng.standard_normal(shape)
    _zero_frames(rng, x)
    if nan:
        x[tuple(int(rng.integers(n)) for n in shape)] = np.nan
    return x


@st.composite
def kernel_cases(draw, nan_inputs=True):
    """Float32 params of an arch from its minimum l_max up, with pool width 2
    or 3 (so odd time lengths occur), and a float64 input generator."""
    channels, kernels = draw(st.sampled_from([((32, 64, 64), (5, 5, 3)),
                                              ((3, 5, 4), (2, 3, 1))]))
    arch = NetArch(l_max=1, feature_dim=draw(st.sampled_from([1, 3, 8])),
                   conv_channels=channels, conv_kernels=kernels,
                   pool_width=draw(st.sampled_from([2, 3])), fc_sizes=(16, 8),
                   embed_dim=6)
    # short inputs run packed once l_max is well above the minimum
    extra = draw(st.integers(0, 9) | st.integers(10, 90))
    arch = replace(arch, l_max=_min_l_max(arch) + extra)
    params = init_params(arch, draw(st.integers(0, 2**16)))
    rng = rng_from(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):     # nonzero biases: zero padding then ties at b
        for name in ("b1", "b2", "b3"):
            params.arrays[name][:] = rng.integers(-1, 2, params.arrays[name].shape) * 0.5
    integer = draw(st.booleans())
    nan = nan_inputs and draw(st.integers(0, 9)) == 0
    return params, lambda size: _kernel_inputs(rng, size, arch, integer, nan)


def _same_bytes(a, b):
    """Same dtype, shape and bytes once every NaN is one canonical NaN: a
    product of one term, which numpy may form without matmul, can pass on
    the other operand's NaN sign."""
    a, b = (np.where(np.isnan(v), np.nan, v) for v in (np.asarray(a), np.asarray(b)))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(kernel_cases(), st.integers(1, 6))
@settings(max_examples=60)
def test_forward_matches_reference_kernels(case, size):
    params, inputs = case
    params = float64(params)
    x = inputs(size)
    with np.errstate(invalid="ignore"):
        packs = _packs(params)
        assert _same_bytes(forward(params, x), net_oracle.packed_forward(params, x, packs))
        assert _same_bytes(forward(params, x[0]),
                           net_oracle.packed_forward(params, x[:1], packs)[0])


def _kernel_batch(inputs, kind, size, data):
    """A batch of `size` examples over distinct inputs from `inputs`, which
    repeat within and across towers."""
    distinct, rows = _compact(data.draw(tower_rows(kind, size)))
    return {"x": inputs(distinct), "rows": rows, "y": np.arange(size) % 2}


@given(kernel_cases(), st.integers(1, 6), st.sampled_from(["siamese", "triplet"]),
       st.data())
@settings(max_examples=60)
def test_backward_matches_reference_kernels(case, size, kind, data):
    params, inputs = case
    params = float64(params)
    batch = _kernel_batch(inputs, kind, size, data)
    with np.errstate(invalid="ignore"):
        loss, grads = backward(params, batch, kind, 1.0)
        expected_loss, expected = net_oracle.packed_backward(params, batch, kind, 1.0,
                                                             _packs(params))
    assert _same_bytes(loss, expected_loss)
    assert grads.keys() == expected.keys()
    scale = _gradient_scale(expected.values())
    for name, grad in grads.items():
        assert _close64(grad, expected[name], scale), name


def _segment_world(inputs, arch, n_segments, data):
    """A one-utterance corpus of float32 features and segments shorter and
    longer than l_max. The features hold zero runs, so a segment may end in
    zero frames, hold some inside or be all zero."""
    features = inputs(3).reshape(-1, arch.feature_dim).astype(np.float32)
    corpus = Corpus(arch.feature_dim, 1,
                    [Utterance("u0", features, (0,), ((0, len(features)),))])
    spans = data.draw(st.lists(st.tuples(st.integers(0, len(features) - 1),
                                         st.integers(1, 2 * arch.l_max)),
                               min_size=n_segments, max_size=n_segments))
    segments = [Segment(i, "u0", start, min(start + length, len(features)), (0,))
                for i, (start, length) in enumerate(spans)]
    return corpus, segments


def _embed_in_chunks(params, segments, corpus, chunk_size):
    """embed_all with CHUNK_SEGMENTS set to chunk_size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embednet, "CHUNK_SEGMENTS", chunk_size)
        return embed_all(params, segments, corpus)


@given(kernel_cases(), st.integers(1, 13), st.integers(1, 6), st.data())
@settings(max_examples=40)
def test_embed_all_matches_reference_kernels(case, n_segments, chunk_size, data):
    """Segments shorter and longer than l_max, chunked so that the last
    chunk may be short."""
    params, inputs = case
    params = float64(params)
    arch = params.arch
    corpus, segments = _segment_world(inputs, arch, n_segments, data)
    with np.errstate(invalid="ignore"):
        table = _embed_in_chunks(params, segments, corpus, chunk_size)
        expected = net_oracle.packed_embed_all(params, segments, corpus, _packs(params),
                                               chunk_size)
    assert _same_bytes(table, expected)


@given(kernel_cases(nan_inputs=False), st.integers(1, 13), st.integers(1, 6), st.data())
@settings(max_examples=40)
def test_embed_all_matches_padded_reference(case, n_segments, chunk_size, data):
    """The padded reference is the semantics, matched to float64 rounding."""
    params, inputs = case
    params = float64(params)
    arch = params.arch
    corpus, segments = _segment_world(inputs, arch, n_segments, data)
    table = _embed_in_chunks(params, segments, corpus, chunk_size)
    expected = net_oracle.embed_all(params, segments, corpus, arch.l_max, chunk_size)
    assert table.shape == expected.shape
    assert (np.abs(table - expected) <= PER_TOWER_RTOL * np.abs(expected).max()).all()


@pytest.mark.parametrize("l_max, lengths, conv1_share", [
    (100, (9, 12, 15, 17, 19, 22, 26, 30), 0.5),
    (100, (9, 12, 15, 17, 90, 95, 100, 100), 1.0),
    (100, (60, 70, 80, 90, 95, 100, 100, 100), None),
    (40, (9, 12, 15, 17, 19, 22, 26, 30), None),
], ids=["short", "half-long", "long", "l_max-40"])
def test_conv_stack_skips_the_padding(monkeypatch, l_max, lengths, conv1_share):
    """A batch of segments at the paper's l_max of 100, half of them short
    or more, needs fewer window columns in every conv layer than the padded
    B x T layout; with 9-30-frame segments, under half in conv1, the
    widest. Where packing would cost more multiply-adds, as for long
    segments or at l_max 40, where most segments fill it, the batch runs
    padded (conv1_share None). The embeddings match the padded reference."""
    arch = NetArch(l_max=l_max)
    params = init_params(arch, 3)
    rng = rng_from(6)
    x = np.zeros((len(lengths), arch.l_max, arch.feature_dim), dtype=np.float32)
    for row, length in zip(x, lengths):
        row[:length] = rng.standard_normal((length, arch.feature_dim))
    columns = []
    original = embednet._cols

    def spy(h, kernel):
        cols = original(h, kernel)
        columns.append(cols.shape[1])
        return cols

    monkeypatch.setattr(embednet, "_cols", spy)
    table = forward(params, x)
    padded = [len(x) * t for t in arch.time_lengths()[0::2]]   # conv1, conv2, conv3
    if conv1_share is None:
        assert columns == padded
    else:
        assert all(used < full for used, full in zip(columns, padded))
        assert columns[0] < conv1_share * padded[0]
    assert _close32(table, net_oracle.forward(float64(params), x))


def test_trailing_zero_frames_embed_like_the_prefix():
    """A segment whose last frames are exactly zero embeds bit for bit like
    its prefix up to its last nonzero frame, in either dtype: the zero
    frames are padding."""
    arch = NetArch(l_max=24, feature_dim=8)
    features = rng_from(4).standard_normal((20, arch.feature_dim)).astype(np.float32)
    features[14:] = 0.0
    features[5:8] = 0.0             # a zero run inside the data stays data
    corpus = Corpus(arch.feature_dim, 1, [Utterance("u0", features, (0,), ((0, 20),))])
    zero_tail, prefix, cut = (Segment(0, "u0", 0, 20, (0,)), Segment(1, "u0", 0, 14, (0,)),
                              Segment(2, "u0", 0, 13, (0,)))
    for params in (init_params(arch, 8), float64(init_params(arch, 8))):
        tail_row, prefix_row, cut_row = (embed_all(params, [seg], corpus)
                                         for seg in (zero_tail, prefix, cut))
        assert tail_row.tobytes() == prefix_row.tobytes()
        assert not np.array_equal(prefix_row, cut_row)


def _kink_sides(params, batch, kind, margin):
    """The side of every kink the batch sits on: ReLU signs, pool choices
    and active hinges. Where float32 and float64 rounding put one value on
    different sides, the gradients differ by a whole term, not by rounding."""
    losses, _, _ = embednet._losses_and_grads(params, batch, kind, margin)
    return _state_signature(params, batch) + (losses > 0).tobytes()


@given(kernel_cases(nan_inputs=False), st.integers(1, 6))
@settings(max_examples=60)
def test_float32_forward_is_close_to_float64_reference(case, size):
    params, inputs = case
    x = inputs(size).astype(np.float32)
    assert _close32(forward(params, x), net_oracle.forward(float64(params), x))


def _cancelling_inputs(params, batch, kind):
    """The distinct inputs of a triplet batch whose embedding gradient is
    zero in exact arithmetic though terms reach it. Inputs that embed alike
    act as one, and each active example adds 2(en - ep), 2(ep - ea) and
    2(ea - en) to its anchor's, positive's and negative's gradient; an input
    cancels when the integer coefficient of every embedding in its sum is 0,
    as for a positive and negative that read one input. A siamese pair that
    embeds alike has a gradient of exactly 0 in either dtype."""
    losses, _, _ = embednet._losses_and_grads(params, batch, kind, 1.0)
    _, group = np.unique(forward(params, batch["x"]), axis=0, return_inverse=True)
    group = group.reshape(-1)
    coefficients = np.zeros((len(group), len(group)), dtype=int)
    reached = np.zeros(len(group), dtype=bool)
    if kind == "triplet":
        for a, p, n in group[batch["rows"][losses > 0.0]]:
            for row, plus, minus in ((a, n, p), (p, p, a), (n, a, n)):
                coefficients[row, plus] += 2
                coefficients[row, minus] -= 2
                reached[row] = True
    return (reached & ~coefficients.any(axis=1))[group]


def _term_scale(params, batch, kind, margin, inputs):
    """The largest gradient entry of the batch with only the embedding
    gradients of `inputs` (a mask over batch["x"]), each term entering as
    its absolute value, so that none cancels another."""
    _, cache, tower_grads = embednet._losses_and_grads(params, batch, kind, margin)
    d_out = np.zeros((len(batch["x"]), params.arch.embed_dim))
    for t, g in enumerate(tower_grads):
        np.add.at(d_out, batch["rows"][:, t], np.abs(g) / len(g))
    d_out[~inputs] = 0.0
    grads = embednet._branch_backward(params, cache, d_out)
    return max(np.abs(grad).max() for grad in grads.values())


@given(kernel_cases(nan_inputs=False), st.integers(1, 6),
       st.sampled_from(["siamese", "triplet"]), st.data())
@settings(max_examples=60)
def test_float32_backward_is_close_to_float64_reference(case, size, kind, data):
    """Every intermediate stays float32, and the loss and gradients are
    close to the float64 reference's; a batch that sits on different sides
    of a kink in the two dtypes is drawn again."""
    params, inputs = case
    reference = float64(params)
    batch = _kernel_batch(inputs, kind, size, data)
    batch["x"] = batch["x"].astype(np.float32)
    assume(_kink_sides(params, batch, kind, 1.0) == _kink_sides(reference, batch, kind, 1.0))
    losses, cache, tower_grads = embednet._losses_and_grads(params, batch, kind, 1.0)
    floats = [losses, *tower_grads, *(value for key, value in cache.items()
                                      if not key.startswith(("idx", "m"))
                                      and key != "gather")]
    assert {value.dtype for value in floats} == {np.dtype(np.float32)}
    loss, grads = backward(params, batch, kind, 1.0)
    expected_loss, expected = net_oracle.packed_backward(reference, batch, kind, 1.0,
                                                         _packs(params))
    assert abs(loss - expected_loss) <= FLOAT32_RTOL * abs(expected_loss)
    scale = max(np.abs(grad).max() for grad in expected.values())
    cancelling = _cancelling_inputs(reference, batch, kind)
    if cancelling.any():
        scale = max(scale, TERM_SHARE * _term_scale(reference, batch, kind, 1.0,
                                                     cancelling))
    for name, grad in grads.items():
        assert _close32(grad, expected[name], FLOAT32_GRAD_RTOL, scale), name


@given(kernel_cases(nan_inputs=False), st.integers(1, 13), st.integers(1, 6), st.data())
@settings(max_examples=40)
def test_float32_embed_all_is_close_to_float64_reference(case, n_segments, chunk_size,
                                                        data):
    params, inputs = case
    arch = params.arch
    corpus, segments = _segment_world(inputs, arch, n_segments, data)
    table = _embed_in_chunks(params, segments, corpus, chunk_size)
    expected = net_oracle.embed_all(float64(params), segments, corpus, arch.l_max,
                                    chunk_size)
    assert _close32(table, expected)


def test_unknown_loss_kind_rejected():
    params = init_params(SMALL, 2)
    batch = {"x": np.zeros((1, SMALL.l_max, SMALL.feature_dim)),
             "rows": np.zeros((1, 3), dtype=int), "y": np.ones(1, dtype=int)}
    with pytest.raises(ValueError, match="unknown loss kind"):
        backward(params, batch, "quadruplet", 1.0)
    corpus, segments, manifest = _toy_training_setup()
    with pytest.raises(ValueError, match="unknown training mode"):
        train(init_params(NetArch(l_max=24, feature_dim=8), 5), manifest, corpus,
              segments, TrainConfig(l_max=24), "quadruplet", 1)


@pytest.mark.parametrize("kind", ["siamese", "triplet"])
def test_gradients_match_finite_differences(kind):
    """Five distinct inputs, each read by several towers of the batch; one
    siamese pair and one anchor-positive pair hold one input twice."""
    params = init_params(SMALL, 123)
    rng = rng_from(99)
    batch = {
        "x": rng.standard_normal((5, 24, 8)),
        "rows": (np.array([[0, 1], [0, 2], [3, 1], [4, 4]]) if kind == "siamese"
                 else np.array([[0, 1, 2], [0, 2, 3], [1, 1, 4], [4, 3, 0]])),
        "y": np.array([1, 0, 1, 0]),
    }
    worst, skipped = run_gradient_check(float64(params), batch, kind, margin=1.0,
                                        n_probes=60, h=1e-5, rng=rng_from(5))
    assert worst < 1e-4, f"worst relative error {worst}"
    assert skipped <= 10


@pytest.mark.parametrize("kind", ["siamese", "triplet"])
def test_packed_gradients_match_finite_differences(kind):
    """The same batches at l_max 100, with inputs of 0 (all zero), 9, 17,
    30 and 60 data frames, run packed: the template's one conv3 position
    carries the gradient of every padding output. The conv biases are
    nonzero, because with zero biases every padding output sits on its
    ReLU kink and a bias probe crosses it."""
    arch = replace(SMALL, l_max=100)
    params = float64(init_params(arch, 123))
    rng = rng_from(99)
    for name in ("b1", "b2", "b3"):
        params.arrays[name][:] = rng.uniform(-0.5, 0.5, params.arrays[name].shape)
    x = rng.standard_normal((5, arch.l_max, arch.feature_dim))
    for row, length in zip(x, (0, 9, 17, 30, 60)):
        row[length:] = 0.0
    assert embednet._pack(arch, x, np.float64)[0].shape[1] == 1
    batch = {
        "x": x,
        "rows": (np.array([[0, 1], [0, 2], [3, 1], [4, 4]]) if kind == "siamese"
                 else np.array([[0, 1, 2], [0, 2, 3], [1, 1, 4], [4, 3, 0]])),
        "y": np.array([1, 0, 1, 0]),
    }
    worst, skipped = run_gradient_check(params, batch, kind, margin=1.0,
                                        n_probes=60, h=1e-5, rng=rng_from(5))
    assert worst < 1e-4, f"worst relative error {worst}"
    assert skipped <= 10


def _toy_training_setup(seed=0, feature_noise_sigma=0.0):
    """Separable two-class data: constant features 1.0 vs -1.0. Without
    feature noise every occurrence of a word has bit-identical frames."""
    config = SynthConfig(vocabulary_size=2, word_length_range=(4, 4),
                         occurrences_per_word=6, alphabet_size=4, feature_dim=8,
                         frames_per_subword_range=(3, 3), words_per_utterance=1,
                         min_word_separation=0.9,
                         feature_noise_sigma=feature_noise_sigma)
    corpus, _ = generate(config, seed)
    segments = discover_segments(corpus, AlignScoring())
    # group segments by symbol string: two groups
    groups = {}
    for seg in segments:
        groups.setdefault(seg.symbols, []).append(seg.id)
    group_a, group_b = list(groups.values())[:2]
    pairs = []
    triplets = []
    for i in range(5):
        pairs.append(SiamesePair(group_a[i], group_a[i + 1], 1, (0, 0)))
        pairs.append(SiamesePair(group_a[i], group_b[i], 0, (0, 1)))
        triplets.append(Triplet(group_a[i], group_a[i + 1], group_b[i], (0, 1)))
        triplets.append(Triplet(group_b[i], group_b[i + 1], group_a[i], (1, 0)))
    manifest = PairManifest(siamese=pairs, triplets=triplets, sample_seed=0)
    return corpus, segments, manifest


@pytest.mark.parametrize("mode, field", [("siamese", "b"), ("triplet", "negative")])
def test_train_refuses_entry_naming_unknown_segment(monkeypatch, mode, field):
    corpus, segments, manifest = _toy_training_setup()
    entries = manifest.siamese if mode == "siamese" else manifest.triplets
    missing = max(seg.id for seg in segments) + 1
    entries[3] = replace(entries[3], **{field: missing})
    steps = []
    monkeypatch.setattr(embednet, "backward", lambda *args: steps.append(args))
    with pytest.raises(ValueError) as info:
        train(init_params(NetArch(l_max=24, feature_dim=8), 5), manifest, corpus,
              segments, TrainConfig(l_max=24), mode, 1)
    assert str(info.value) == (f"{mode} manifest entry 3: {field} is segment {missing}, "
                               "which is not among the segments")
    assert steps == []


@pytest.mark.parametrize("mode", ["siamese", "triplet"])
def test_train_calls_module_backward_once_per_step(monkeypatch, mode):
    """A benchmark tracer counts steps by wrapping the module-level
    `backward` and reads the curve from `train`'s (params, curve)."""
    corpus, segments, manifest = _toy_training_setup()
    batch_sizes = []
    original = embednet.backward

    def counting(params, batch, kind, margin):
        batch_sizes.append(len(batch["rows"]))
        return original(params, batch, kind, margin)

    monkeypatch.setattr(embednet, "backward", counting)
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=3, l_max=24)
    result = train(init_params(NetArch(l_max=24, feature_dim=8), 5), manifest, corpus,
                   segments, config, mode, 1)
    assert isinstance(result, tuple) and len(result) == 2
    trained, curve = result
    assert isinstance(trained, NetworkParams) and isinstance(curve, list)
    assert len(manifest.siamese) == len(manifest.triplets) == 10
    assert batch_sizes == [4, 4, 2] * len(curve)     # ceil(10 / 4) steps an epoch


@pytest.mark.parametrize("learning_rate", [0.05, 0.0])
@pytest.mark.parametrize("mode", ["siamese", "triplet"])
def test_train_frees_a_steps_gradients_before_the_next_step(monkeypatch, mode,
                                                             learning_rate):
    """One gradient set is live at a time: when `train` calls `backward`
    for step s + 1, every gradient array of step s is dead."""
    corpus, segments, manifest = _toy_training_setup()
    earlier = []        # weak references to the gradient arrays of past steps
    original = embednet.backward

    def step(params, batch, kind, margin):
        assert all(ref() is None for ref in earlier)
        loss, grads = original(params, batch, kind, margin)
        earlier.extend(weakref.ref(grad) for grad in grads.values())
        return loss, grads

    monkeypatch.setattr(embednet, "backward", step)
    arch = NetArch(l_max=24, feature_dim=8)
    config = TrainConfig(learning_rate=learning_rate, batch_size=4, max_epochs=3, l_max=24)
    _, curve = train(init_params(arch, 5), manifest, corpus, segments, config, mode, 1)
    assert len(earlier) == 3 * len(curve) * len(param_shapes(arch))


@pytest.mark.parametrize("l_max", [24, 100])
@pytest.mark.parametrize("kind", ["siamese", "triplet"])
def test_backward_leaves_the_forward_cache_empty(monkeypatch, kind, l_max):
    """The branch backward pops each cached array after its last read, over
    the padded layout (l_max 24) and the packed one (100)."""
    arch = replace(SMALL, l_max=l_max)
    x = rng_from(12).standard_normal((5, l_max, arch.feature_dim))
    for row, length in zip(x, (0, 9, 17, 24, 60)):
        row[length:] = 0.0
    caches = []
    original = embednet._forward

    def keeping(params, inputs, cache=None):
        caches.append(cache)
        return original(params, inputs, cache)

    monkeypatch.setattr(embednet, "_forward", keeping)
    rows = np.array([[0, 1, 2], [3, 4, 0], [1, 3, 2]])[:, :len(embednet._TOWERS[kind])]
    backward(init_params(arch, 4), {"x": x, "rows": rows, "y": np.array([1, 0, 1])},
             kind, 1.0)
    assert caches == [{}]


def test_backward_holds_no_window_matrix():
    """A triplet step of 64 examples over 88 distinct segments of 9-60
    frames at the paper's l_max of 100 runs packed. Its traced peak is the
    forward's own, its packed input, conv1's window matrix and conv1's
    output (5.13 MB), plus at most 64 KiB of small arrays: backward forms
    each gradient as the product that it is, so the cache, the gradients
    and a product never outgrow the forward. The window-matrix backward
    held conv1's 3.76 MB window matrix on top of the whole cache and peaked
    at 9.69 MB; adding each product into a zeroed gradient set peaked at
    5.38 MB."""
    arch = NetArch(l_max=100)
    params = init_params(arch, 3)
    rng = rng_from(5)
    x = [rng.standard_normal((int(length), arch.feature_dim)).astype(np.float32)
         for length in rng.integers(9, 61, 88)]
    rows = rng.permutation(np.concatenate([np.arange(88), rng.integers(0, 88, 3 * 64 - 88)]))
    batch = {"x": x, "rows": rows.reshape(64, 3)}
    assert embednet._pack(arch, x, params.dtype)[0].shape[1] == 1
    peaks = []
    for step in (lambda: embednet._forward(params, x, {}),
                 lambda: backward(params, batch, "triplet", 1.0)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    forward_peak, backward_peak = peaks
    assert backward_peak <= forward_peak + 2**16


def test_zero_learning_rate_is_identity():
    corpus, segments, manifest = _toy_training_setup()
    arch = NetArch(l_max=24, feature_dim=8)
    params = float64(init_params(arch, 5))
    config = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=3,
                         l_max=24)
    trained, curve = train(params, manifest, corpus, segments, config, "siamese", 1)
    for name in params.arrays:
        assert (trained.arrays[name] == params.arrays[name]).all()
    assert len(set(curve)) == 1   # flat loss curve


def test_zero_learning_rate_keeps_float32_params():
    """The epochs batch the same losses in another order, so in float32 the
    curve is flat only to rounding: its spread measured 1.2e-8 of the loss
    here, and 5.1e-8 at most over fixture seeds 0-4."""
    corpus, segments, manifest = _toy_training_setup()
    params = init_params(NetArch(l_max=24, feature_dim=8), 5)
    config = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=3,
                         l_max=24)
    trained, curve = train(params, manifest, corpus, segments, config, "siamese", 1)
    for name in params.arrays:
        assert trained.arrays[name].tobytes() == params.arrays[name].tobytes()
    assert max(curve) - min(curve) <= 1e-6 * curve[0]


@pytest.mark.parametrize("mode", ["siamese", "triplet"])
def test_training_reduces_loss(mode):
    corpus, segments, manifest = _toy_training_setup()
    arch = NetArch(l_max=24, feature_dim=8)
    params = init_params(arch, 5)
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=12,
                         l_max=24)
    _, curve = train(params, manifest, corpus, segments, config, mode, 1)
    assert curve[-1] < curve[0]


def test_training_deterministic():
    corpus, segments, manifest = _toy_training_setup()
    arch = NetArch(l_max=24, feature_dim=8)
    curves = []
    finals = []
    for _ in range(2):
        params = init_params(arch, 5)
        config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=5,
                             l_max=24)
        trained, curve = train(params, manifest, corpus, segments, config, "triplet", 1)
        curves.append(tuple(curve))
        finals.append(trained)
    assert curves[0] == curves[1]
    for name in finals[0].arrays:
        assert (finals[0].arrays[name] == finals[1].arrays[name]).all()


def test_train_reads_the_network_width():
    """The input width comes from params.arch alone: TrainConfig.l_max, which
    the pipeline builds NetArch with, leaves a direct train call unchanged."""
    corpus, segments, manifest = _toy_training_setup()
    params = init_params(NetArch(l_max=24, feature_dim=8), 5)
    runs = [train(params, manifest, corpus, segments,
                  TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=2,
                              l_max=l_max), "triplet", 1)
            for l_max in (24, 100)]
    (first, first_curve), (second, second_curve) = runs
    assert first_curve == second_curve
    for name in first.arrays:
        assert (first.arrays[name] == second.arrays[name]).all()


def test_divergence_guard():
    # An absurd learning rate blows the float32 weights up until the
    # embeddings, and with them the epoch mean, overflow. The matched
    # contrastive term needs matched pairs whose inputs differ: with
    # identical inputs it is 0 for any weights, the loss settles at a finite
    # 0 and training stops at its plateau check. In float64 the triplet
    # loss instead reaches exactly 0 with weights of ~1e10, stays finite and
    # is not caught.
    corpus, segments, manifest = _toy_training_setup(feature_noise_sigma=0.1)
    segments_by_id = {s.id: s for s in segments}
    assert any(
        not np.array_equal(slice_features(corpus, segments_by_id[p.a])[:24],
                           slice_features(corpus, segments_by_id[p.b])[:24])
        for p in manifest.siamese if p.y == 1
    ), "every matched pair has identical inputs; nothing can diverge"
    arch = NetArch(l_max=24, feature_dim=8)
    params = init_params(arch, 5)
    config = TrainConfig(learning_rate=1e12, batch_size=4, max_epochs=20,
                         l_max=24)
    with pytest.raises(TrainingDiverged):
        with np.errstate(over="ignore", invalid="ignore"):
            train(params, manifest, corpus, segments, config, "siamese", 1)
    for seed in range(5):
        corpus, segments, manifest = _toy_training_setup(seed, feature_noise_sigma=0.1)
        with pytest.raises(TrainingDiverged):
            with np.errstate(over="ignore", invalid="ignore"):
                train(params, manifest, corpus, segments, config, "triplet", 1)


def test_embed_all_rows_and_duplicates():
    corpus, segments, _ = _toy_training_setup()
    arch = NetArch(l_max=24, feature_dim=8)
    params = float64(init_params(arch, 6))
    table = embed_all(params, segments, corpus)
    assert table.shape == (len(segments), arch.embed_dim)
    by_symbols = {}
    for row, seg in zip(table, segments):
        key = seg.symbols
        if key in by_symbols:
            assert np.allclose(by_symbols[key], row, atol=1e-12)
        else:
            by_symbols[key] = row


def test_embed_all_duplicates_agree_in_float32():
    """Equal inputs in other GEMM columns agree to float32 rounding: the
    largest difference measured 4.5e-7 of the largest entry here, and
    5.9e-7 at most over fixture seeds 0-4."""
    corpus, segments, _ = _toy_training_setup()
    table = embed_all(init_params(NetArch(l_max=24, feature_dim=8), 6), segments, corpus)
    assert table.dtype == np.float32
    tolerance = 5e-6 * np.abs(table).max()
    by_symbols = {}
    for row, seg in zip(table, segments):
        assert np.abs(by_symbols.setdefault(seg.symbols, row) - row).max() <= tolerance


class _InputOnly(dict):
    """A forward cache that keeps the conv stack's input alone, alive to the
    end of the pass, as inference kept it through conv1's product."""

    def update(self, **arrays):
        if "x" in arrays:
            self["x"] = arrays["x"]


def test_embed_all_frees_its_input_before_conv1s_product():
    """A 256-segment chunk of full-width segments at l_max 40 runs padded.
    Its traced peak is the padded input and conv1's window matrix, which
    meet while the latter is built, plus at most 64 KiB of small arrays; a
    pass that holds the input also holds conv1's output with them."""
    arch = NetArch(l_max=40)
    rng = rng_from(8)
    features = rng.uniform(0.5, 1.5, (256 * 40, arch.feature_dim)).astype(np.float32)
    corpus = Corpus(arch.feature_dim, 1,
                    [Utterance("u0", features, (0,), ((0, len(features)),))])
    segments = [Segment(i, "u0", 40 * i, 40 * (i + 1), (0,)) for i in range(256)]
    params = init_params(arch, 3)
    inputs = [slice_features(corpus, seg) for seg in segments]
    t1 = arch.time_lengths()[0]
    padded_bytes = arch.feature_dim * 256 * arch.l_max * 4
    cols_bytes = arch.feature_dim * arch.conv_kernels[0] * 256 * t1 * 4
    conv1_bytes = arch.conv_channels[0] * 256 * t1 * 4

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    table, freed = peak(lambda: _embed_in_chunks(params, segments, corpus, 256))
    held = _InputOnly()
    expected, holding = peak(lambda: embednet._forward(params, inputs, held))
    assert held["x"].shape == (arch.feature_dim, 256, arch.l_max)   # padded layout
    assert _same_bytes(table, expected)
    assert freed <= padded_bytes + cols_bytes + 2**16
    assert holding >= padded_bytes + cols_bytes + conv1_bytes


def test_embed_all_peaks_at_one_64_segment_chunk():
    """256 full-width segments at l_max 40 run in four padded 64-segment
    chunks. The traced peak is one chunk's padded input and its conv1
    window matrix, plus at most 64 KiB of small arrays: 2.32 MB, where one
    256-segment chunk peaks at 9.06 MB."""
    arch = NetArch(l_max=40)
    features = rng_from(8).uniform(0.5, 1.5, (256 * 40, arch.feature_dim))
    corpus = Corpus(arch.feature_dim, 1, [Utterance("u0", features.astype(np.float32),
                                                    (0,), ((0, len(features)),))])
    segments = [Segment(i, "u0", 40 * i, 40 * (i + 1), (0,)) for i in range(256)]
    params = init_params(arch, 3)
    padded_bytes = arch.feature_dim * 64 * arch.l_max * 4
    cols_bytes = arch.feature_dim * arch.conv_kernels[0] * 64 * arch.time_lengths()[0] * 4
    tracemalloc.start()
    try:
        table = embed_all(params, segments, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (256, arch.embed_dim)
    assert peak <= padded_bytes + cols_bytes + 2**16


def test_embed_all_default_chunks_are_close_to_256_segment_chunks():
    """A chunk's GEMM shapes set the last bits of its rows, so the default
    64-segment chunks move a table of 300 segments of 9-60 frames, packed at
    l_max 100 and padded at 40, by rounding only; 64 segments make one chunk
    either way, and the same rows."""
    rng = rng_from(21)
    for l_max in (100, 40):
        arch = NetArch(l_max=l_max)
        features = rng.uniform(-1.0, 1.0, (4000, arch.feature_dim)).astype(np.float32)
        corpus = Corpus(arch.feature_dim, 1,
                        [Utterance("u0", features, (0,), ((0, len(features)),))])
        starts = rng.integers(0, len(features) - 60, 300).tolist()
        lengths = rng.integers(9, 61, 300).tolist()
        segments = [Segment(i, "u0", start, start + length, (0,))
                    for i, (start, length) in enumerate(zip(starts, lengths))]
        params = init_params(arch, 3)
        table = embed_all(params, segments, corpus)
        wide = _embed_in_chunks(params, segments, corpus, 256)
        assert table.shape == wide.shape == (300, arch.embed_dim)
        assert np.abs(table - wide).max() <= 1e-6 * np.abs(wide).max()
        assert _same_bytes(embed_all(params, segments[:64], corpus),
                           _embed_in_chunks(params, segments[:64], corpus, 256))


@pytest.mark.parametrize("l_max", [24, 100])
def test_cached_forward_keeps_relu_masks_not_pre_activations(l_max):
    """A training pass, padded at l_max 24 and packed at 100, caches each
    ReLU's input as its bool mask: z > 0.0 of the same pass, each z formed
    again here by the same kernels from the cached input of its layer. The
    cache's float arrays are the layer inputs backprop reads, and nothing
    else."""
    arch = replace(SMALL, l_max=l_max)
    params = init_params(arch, 4)
    rng = rng_from(12)
    x = rng.standard_normal((5, l_max, arch.feature_dim)).astype(np.float32)
    for row, length in zip(x, (0, 9, 17, 24, 60)):
        row[length:] = 0.0
    cache = {}
    embednet._forward(params, x, cache)
    assert (cache["x"].shape[1] == 1) == (l_max == 100)
    p = params.arrays
    k1, k2, k3 = arch.conv_kernels
    rows = cache["x"].shape[1]
    pre_activations = {
        "m1": embednet._conv_forward(embednet._cols(cache["x"], k1), rows, p["W1"], p["b1"]),
        "m2": embednet._conv_forward(embednet._cols(cache["p1"], k2), rows, p["W2"], p["b2"]),
        "m3": embednet._conv_forward(embednet._cols(cache["p2"], k3), rows, p["W3"], p["b3"]),
        "mf1": cache["flat"] @ p["Wf1"] + p["bf1"],
        "mf2": cache["af1"] @ p["Wf2"] + p["bf2"],
    }
    for name, z in pre_activations.items():
        assert cache[name].dtype == bool, name
        assert 0 < cache[name].sum() < cache[name].size, name
        assert np.array_equal(cache[name], z > 0.0), name
    assert {key for key, value in cache.items() if value.dtype.kind == "f"} == {
        "x", "p1", "p2", "flat", "af1", "af2"}


def test_trained_embeddings_separate_classes():
    corpus, segments, manifest = _toy_training_setup()
    arch = NetArch(l_max=24, feature_dim=8)
    params = init_params(arch, 5)
    config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=15,
                         l_max=24)
    trained, _ = train(params, manifest, corpus, segments, config, "triplet", 1)
    table = embed_all(trained, segments, corpus)
    groups = {}
    for row, seg in zip(table, segments):
        groups.setdefault(seg.symbols, []).append(row)
    (rows_a, rows_b) = [np.array(v) for v in groups.values()][:2]
    intra = max(
        np.linalg.norm(rows_a - rows_a.mean(0), axis=1).mean(),
        np.linalg.norm(rows_b - rows_b.mean(0), axis=1).mean(),
    )
    inter = np.linalg.norm(rows_a.mean(0) - rows_b.mean(0))
    assert inter > intra


def test_branches_share_parameters():
    params = init_params(SMALL, 11)
    rng = rng_from(4)
    x = rng.standard_normal((2, SMALL.l_max, SMALL.feature_dim))
    ea, ep, en = (embednet._forward(params, inputs, {}) for inputs in (x, x.copy(), x.copy()))
    assert (ea == ep).all() and (ea == en).all()


def _saved(tmp_path, params):
    """The header and vector paths of `params`, saved under tmp_path."""
    paths = tmp_path / "params.json", tmp_path / "params.npy"
    save_params(*paths, params)
    return paths


def _npy_bytes(array, save=np.save) -> bytes:
    buffer = io.BytesIO()
    save(buffer, array)
    return buffer.getvalue()


def test_checkpoint_round_trip(tmp_path):
    params = init_params(SMALL, 42)
    header, vector = _saved(tmp_path, params)
    restored = load_params(header, vector)
    assert restored.arch == params.arch
    assert restored.init_seed == params.init_seed
    assert restored.arrays.keys() == params.arrays.keys()
    for name, arr in params.arrays.items():
        assert restored.arrays[name].dtype == np.float32
        assert restored.arrays[name].shape == arr.shape
        assert restored.arrays[name].tobytes() == arr.tobytes()
    # the vector's data is every parameter, in param_shapes order
    assert vector.read_bytes().endswith(b"".join(
        params.arrays[name].astype("<f4").tobytes() for name in param_shapes(SMALL)))


def test_float64_checkpoint_is_refused(tmp_path):
    params = init_params(SMALL, 42)
    header, vector = _saved(tmp_path, params)
    vector.write_bytes(_npy_bytes(np.load(vector).astype("<f8")))
    with pytest.raises(ValueError) as info:
        load_params(header, vector)
    assert str(info.value) == (f"{vector}: expected a 1-D little-endian float32 array, "
                               "got 1-D float64")


@pytest.mark.parametrize("cut", ["empty", "magic", "header", "payload", "last-byte",
                                 "appended", "arch-json"])
def test_torn_or_overlong_checkpoint_is_refused(tmp_path, cut):
    """A vector cut anywhere or with bytes after its data, or a cut header,
    raises a ValueError that names the file."""
    header, vector = _saved(tmp_path, init_params(SMALL, 42))
    raw = vector.read_bytes()
    ends = {"empty": 0, "magic": 5, "header": 20, "payload": len(raw) // 2,
            "last-byte": len(raw) - 1}
    messages = {"empty": "EOF: reading magic string", "magic": "EOF: reading magic string",
                "header": "EOF: reading array header",
                "payload": "Failed to read all data", "last-byte": "Failed to read all data",
                "appended": "bytes after the array", "arch-json": "Unterminated string"}
    path = header if cut == "arch-json" else vector
    if cut == "appended":
        vector.write_bytes(raw + bytes(8))
    elif cut == "arch-json":
        header.write_text(header.read_text()[:30])
    else:
        vector.write_bytes(raw[:ends[cut]])
    with pytest.raises(ValueError) as info:
        load_params(header, vector)
    assert str(info.value).startswith(f"{path}: {messages[cut]}")


def test_file_that_is_not_a_checkpoint_is_refused(tmp_path):
    """A zipped archive of the vector is not the vector."""
    header, vector = _saved(tmp_path, init_params(SMALL, 42))
    vector.write_bytes(_npy_bytes(np.load(vector), np.savez))
    with pytest.raises(ValueError) as info:
        load_params(header, vector)
    assert str(info.value).startswith(f"{vector}: the magic string is not correct")


@pytest.mark.parametrize("reshape, message", [
    (lambda x: x.reshape(-1, 2), "expected a 1-D little-endian float32 array, got 2-D float32"),
    (lambda x: x[:-1], f"{SMALL_SIZE - 1} parameters, but the arch of {{header}} has "
     f"{SMALL_SIZE}"),
    (lambda x: np.append(x, x[:3]), f"{SMALL_SIZE + 3} parameters, but the arch of "
     f"{{header}} has {SMALL_SIZE}"),
], ids=["2-d", "one-short", "three-over"])
def test_vector_of_another_shape_is_refused(tmp_path, reshape, message):
    header, vector = _saved(tmp_path, init_params(SMALL, 42))
    vector.write_bytes(_npy_bytes(reshape(np.load(vector))))
    with pytest.raises(ValueError) as info:
        load_params(header, vector)
    assert str(info.value) == f"{vector}: " + message.format(header=header)


@pytest.mark.parametrize("meta, message", [
    ([1, 2], "network header must be a JSON object, got list"),
    ({"arch": asdict(SMALL)}, "network header: missing key(s) ['init_seed']"),
    ({"arch": {**asdict(SMALL), "l_max": 10}, "init_seed": 42},
     "l_max=10 too short for conv stack"),
    ({"arch": {**asdict(SMALL), "pool_width": 0}, "init_seed": 42},
     f"every width of {replace(SMALL, pool_width=0)} must be positive"),
    ({"arch": asdict(SMALL), "init_seed": "x"},
     "network header: init_seed must be int, got str 'x'"),
    ({"arch": asdict(SMALL), "init_seed": 1.5},
     "network header: init_seed must be int, got float 1.5"),
    ({"arch": asdict(SMALL), "init_seed": True},
     "network header: init_seed must be int, got bool True"),
    ({"arch": {"l_max": 24, "feature_dim": 8}, "init_seed": 42},
     "network header section 'arch': missing key(s) ['conv_channels', 'conv_kernels', "
     "'pool_width', 'fc_sizes', 'embed_dim']"),
], ids=["not-an-object", "no-init-seed", "l_max-too-short", "zero-pool-width",
        "string-seed", "float-seed", "bool-seed", "partial-arch"])
def test_checkpoint_with_bad_header_is_refused(tmp_path, meta, message):
    header, vector = _saved(tmp_path, init_params(SMALL, 42))
    header.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as info:
        load_params(header, vector)
    assert str(info.value) == f"{header}: {message}"


def test_checkpoint_arch_with_unknown_key_rejected(tmp_path):
    header, vector = _saved(tmp_path, init_params(SMALL, 42))
    header.write_text(json.dumps({"arch": {**asdict(SMALL), "dropout": 0.5}, "init_seed": 42}))
    with pytest.raises(ValueError) as info:
        load_params(header, vector)
    assert str(info.value) == (f"{header}: network header section 'arch': NetArch.__init__() "
                               "got an unexpected keyword argument 'dropout'")


def test_bad_input_shape_rejected():
    params = init_params(SMALL, 1)
    with pytest.raises(ValueError, match="does not match arch"):
        forward(params, np.zeros((10, 8)))


def test_arch_too_short_rejected():
    with pytest.raises(ValueError, match="too short"):
        NetArch(l_max=10, feature_dim=8).time_lengths()
