import ast
import pathlib
import weakref
from collections import Counter

import numpy as np
import pytest

import attnatr.layers
import attnatr.tensor
from attnatr.attention import ATTENTION_KINDS
from attnatr.backbone import build_resnet18, desk_config
from attnatr.checkpoint import (CheckpointError, dump_tensors, load_checkpoint,
                                parse_tensors, save_checkpoint)
from attnatr.explain import gradcam_map
from attnatr.layers import (BatchNorm2d, Conv1d, Conv2d, LayerError, Linear,
                            SgdOptimizer, _im2col, _patch_index, conv1d_same, conv2d,
                            linear, pool2d, softmax_cross_entropy)
from attnatr.rng import SplitMix64
from attnatr.tensor import Tensor, apply_op
from helpers import (batchnorm_naive, check_gradients, closure_values,
                     conv2d_input_grad_naive, conv2d_naive, graph_nodes, im2col_naive,
                     max_pool_backward_naive, max_pool_first_naive, pool2d_naive,
                     saved_arrays)


def randn(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_window_counts_with_padding():
    # all-ones 3x3 kernel on an all-ones map with padding 1 counts the window
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, None, stride=1, padding=1).data[0, 0]
    assert out[1, 1] == 9
    assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6
    assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4


def test_conv2d_zero_weights_give_zeros():
    x = Tensor(randn((2, 3, 5, 5), seed=1))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    b = Tensor(np.zeros(4))
    assert np.all(conv2d(x, w, b, padding=1).data == 0.0)


def test_conv2d_zero_input_zero_bias_gives_zeros():
    layer = Conv2d(3, 4, 3, padding=1, rng=SplitMix64(77))
    assert np.all(layer.forward(Tensor(np.zeros((2, 3, 5, 5)))).data == 0.0)


def test_conv2d_matches_naive_loops():
    x = randn((2, 3, 5, 5), seed=2)
    w = randn((4, 3, 3, 3), seed=3)
    b = randn((4,), seed=4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=0).data
    want = conv2d_naive(x, w, b, stride=(1, 1), padding=(0, 0))
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_conv2d_random_configs_vs_naive(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(1, 3))
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    sh, sw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    ph, pw = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    h = int(rng.integers(max(1, kh - 2 * ph), 8))
    w = int(rng.integers(max(1, kw - 2 * pw), 8))
    if h + 2 * ph < kh or w + 2 * pw < kw:
        return
    x = rng.normal(size=(n, cin, h, w))
    wt = rng.normal(size=(cout, cin, kh, kw))
    b = rng.normal(size=cout)
    got = conv2d(Tensor(x), Tensor(wt), Tensor(b), (sh, sw), (ph, pw)).data
    want = conv2d_naive(x, wt, b, (sh, sw), (ph, pw))
    assert np.abs(got - want).max() < 1e-12


IM2COL_CASES = [
    # (N, C, Hp, Wp, kh, kw, sh, sw): shapes of the padded input
    (1, 1, 134, 134, 7, 7, 2, 2),   # full-profile stem: 128x128, pad 3
    (2, 4, 9, 9, 1, 1, 2, 2),       # 1x1 stride-2 downsample
    (3, 2, 5, 6, 5, 6, 1, 1),       # kernel equal to the padded extent
    (2, 3, 9, 12, 3, 2, 2, 3),      # non-square kernel and strides
    (1, 2, 11, 7, 4, 3, 3, 1),
] + [  # random configs
    (int(n), int(c), int(hp), int(wp), int(kh), int(kw), int(sh), int(sw))
    for n, c, hp, wp, kh, kw, sh, sw in np.random.default_rng(60).integers(
        [1, 1, 4, 4, 1, 1, 1, 1], [4, 5, 10, 10, 5, 5, 4, 4], size=(10, 8))
]


@pytest.mark.parametrize("n, c, hp, wp, kh, kw, sh, sw", IM2COL_CASES)
def test_im2col_matches_naive_loops_bitwise(n, c, hp, wp, kh, kw, sh, sw):
    xp = randn((n, c, hp, wp), seed=hp * wp + c)
    xp.reshape(-1)[::7] = -0.0  # the gather must carry signed zeros and NaNs
    xp.reshape(-1)[3::11] = np.nan
    oh, ow = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    assert same_bits(_im2col(xp, kh, kw, sh, sw, oh, ow), im2col_naive(xp, kh, kw, sh, sw))


def test_im2col_index_cache_is_bounded_and_read_only():
    for k in range(1, 80):  # more distinct shapes than the cache holds
        _im2col(np.zeros((1, 1, k, 1)), 1, 1, 1, 1, k, 1)
    info = _patch_index.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64
    with pytest.raises(ValueError):
        _patch_index(1, 3, 3, 1, 1, 1, 1, 3, 3)[0, 0] = 1


def test_conv2d_channel_mismatch_error():
    with pytest.raises(LayerError, match="channel mismatch"):
        conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))), None)


def test_conv2d_degenerate_output_error():
    with pytest.raises(LayerError, match="degenerate"):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))), None)


def test_conv2d_gradients():
    x = Tensor(randn((2, 3, 5, 5), seed=5), requires_grad=True)
    layer = Conv2d(3, 2, 3, stride=2, padding=1, rng=SplitMix64(6))
    check_gradients(lambda: (layer.forward(x) * layer.forward(x)).sum(),
                    [x, layer.weight, layer.bias], tol=1e-5)


@pytest.mark.parametrize("x_shape, w_shape, stride, padding", [
    ((2, 1, 16, 16), (4, 1, 7, 7), (2, 2), (3, 3)),  # stem: 7x7 stride 2 pad 3
    ((2, 3, 8, 8), (4, 3, 3, 3), (1, 1), (1, 1)),
    ((2, 3, 9, 8), (5, 3, 3, 3), (2, 2), (1, 1)),
    ((2, 4, 8, 9), (6, 4, 1, 1), (2, 2), (0, 0)),    # 1x1 stride-2 downsample
    ((2, 2, 9, 7), (3, 2, 3, 2), (2, 1), (1, 0)),    # non-square kernel and stride
    ((3, 2, 8, 8), (1, 2, 7, 7), (1, 1), (3, 3)),    # CBAM spatial conv, 2 -> 1
])
def test_conv2d_input_grad_matches_naive_bitwise(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = rng.normal(size=w_shape)
    out = conv2d(x, Tensor(w, requires_grad=True), None, stride, padding)
    g = rng.normal(size=out.shape)
    g[rng.uniform(size=g.shape) < 0.3] = -0.0  # signed zeros; at Cout = 1, zero patch rows
    g[rng.uniform(size=g.shape) < 0.2] = 0.0
    gx = out.node.backward(g)[0]
    assert same_bits(gx, conv2d_input_grad_naive(g, w, x_shape, stride, padding))


@pytest.mark.parametrize("w_shape, padding", [((4, 3, 3, 3), 1), ((4, 3, 1, 1), 0),
                                              ((2, 1, 3, 3), 0)])
def test_conv2d_input_grad_is_fresh_contiguous_nchw(w_shape, padding):
    x = Tensor(randn((2, w_shape[1], 6, 7), seed=8), requires_grad=True)
    out = conv2d(x, Tensor(randn(w_shape, seed=9), requires_grad=True), None, 1, padding)
    g = randn(out.shape, seed=10)
    g_before, x_before = g.copy(), x.data.copy()
    gx = out.node.backward(g)[0]
    assert gx.shape == x.shape and gx.dtype == np.float64 and gx.flags.c_contiguous
    assert gx.flags.writeable
    assert not np.shares_memory(gx, g) and not np.shares_memory(gx, x.data)
    assert same_bits(g, g_before) and same_bits(x.data, x_before)


@pytest.mark.parametrize("bias", [False, True])
def test_conv2d_skips_the_gradient_of_an_input_that_needs_none(bias):
    x_data = randn((2, 1, 9, 9), seed=11)
    w = Tensor(randn((4, 1, 7, 7), seed=12), requires_grad=True)
    b = Tensor(randn((4,), seed=13), requires_grad=True) if bias else None
    frozen = conv2d(Tensor(x_data), w, b, 2, 3)
    live = conv2d(Tensor(x_data, requires_grad=True), w, b, 2, 3)
    g = randn(frozen.shape, seed=14)
    got, want = frozen.node.backward(g), live.node.backward(g)
    assert got[0] is None and want[0] is not None
    for a, e in zip(got[1:], want[1:]):
        assert same_bits(a, e)


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_k1_identity():
    z = Tensor(randn((2, 6), seed=7))
    out = conv1d_same(z, Tensor(np.array([[[1.0]]])))
    assert np.array_equal(out.data, z.data)


def test_conv1d_centered_tap_identity():
    z = Tensor(randn((1, 5), seed=8))
    out = conv1d_same(z, Tensor(np.array([[[0.0, 1.0, 0.0]]])))
    assert np.array_equal(out.data, z.data)


def test_conv1d_box_kernel_hand_sums():
    out = conv1d_same(Tensor([[1.0, 2.0, 3.0, 4.0]]),
                      Tensor(np.ones((1, 1, 3))))
    assert np.array_equal(out.data, [[3.0, 6.0, 9.0, 7.0]])


def test_conv1d_even_kernel_error():
    with pytest.raises(LayerError, match="odd"):
        conv1d_same(Tensor([[1.0, 2.0]]), Tensor(np.ones((1, 1, 2))))
    with pytest.raises(LayerError, match="odd"):
        Conv1d(4, rng=SplitMix64(0))


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("c", [4, 17, 64])
def test_conv1d_same_padding_preserves_length(k, c):
    z = Tensor(randn((2, c), seed=9))
    layer = Conv1d(k, rng=SplitMix64(10))
    assert layer.forward(z).shape == (2, c)


def test_conv1d_gradients():
    z = Tensor(randn((2, 8), seed=11), requires_grad=True)
    layer = Conv1d(3, rng=SplitMix64(12))
    check_gradients(lambda: (layer.forward(z) * z).sum(), [z, layer.weight], tol=1e-6)


# ---------------------------------------------------------------------------
# pooling


def test_pool2d_max_hand():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert pool2d(x, 2, 2).item() == 4.0


@pytest.mark.parametrize("trial", range(12))
def test_pool2d_random_vs_naive(trial):
    rng = np.random.default_rng(200 + trial)
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    sh, sw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    ph, pw = int(rng.integers(0, kh)), int(rng.integers(0, kw))
    h, w = int(rng.integers(kh, 8)), int(rng.integers(kw, 8))
    x = rng.normal(size=(2, 3, h, w))
    got = pool2d(Tensor(x), (kh, kw), (sh, sw), (ph, pw)).data
    want = pool2d_naive(x, (kh, kw), (sh, sw), (ph, pw))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("window, stride, padding",
                         [((3, 3), (2, 2), (1, 1)), ((2, 2), (2, 2), (0, 0)),
                          ((3, 2), (1, 2), (1, 0))])
def test_pool2d_max_keeps_first_maximal_element_bitwise(window, stride, padding):
    rng = np.random.default_rng(41)
    x = np.maximum(rng.normal(size=(2, 3, 9, 9)), 0.0)
    x[rng.uniform(size=x.shape) < 0.4] = -0.0  # windows of mixed +0.0 and -0.0
    x[0, 0, 2, 3] = np.nan
    x[1, 1, 6, 6] = np.nan
    x[1, 1, 6, 7] = -np.nan  # a second NaN, with the sign bit set
    x[1, 2, 4:7, 4:7] = -np.inf
    got = pool2d(Tensor(x), window, stride, padding).data
    assert same_bits(got, max_pool_first_naive(x, window, stride, padding))


@pytest.mark.parametrize("window, stride, padding",
                         [((3, 3), (2, 2), (1, 1)), ((3, 2), (1, 2), (1, 0)),
                          ((2, 3), (2, 1), (0, 2)), ((3, 3), (1, 1), (1, 1))])
def test_pool2d_max_backward_matches_naive_bitwise(window, stride, padding):
    rng = np.random.default_rng(43)
    x = np.round(rng.normal(size=(2, 3, 8, 9)) * 2.0) / 2.0  # many tied maxima
    x[rng.uniform(size=x.shape) < 0.3] = -0.0  # windows of mixed +0.0 and -0.0
    x[0, 1, 3, 4] = np.nan
    x[1, 0, 5, 5] = np.nan
    x[1, 0, 5, 6] = -np.nan
    x[1, 2, 2:6, 3:7] = -np.inf
    out = pool2d(Tensor(x, requires_grad=True), window, stride, padding)
    g = rng.normal(size=out.shape)
    g[rng.uniform(size=g.shape) < 0.2] = -0.0
    (gx,) = out.node.backward(g)
    assert same_bits(gx, max_pool_backward_naive(x, g, window, stride, padding))


def test_pool2d_window_too_large_error():
    with pytest.raises(LayerError, match="larger"):
        pool2d(Tensor(np.zeros((1, 1, 2, 2))), 4, 1)


def test_pool2d_max_gradient_routes_to_first_argmax():
    x = Tensor(np.array([[[[2.0, 2.0], [1.0, 2.0]]]]), requires_grad=True)
    pool2d(x, 2, 2).sum().backward()
    assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_pool2d_gradients():
    x = Tensor(randn((2, 2, 6, 6), seed=13), requires_grad=True)
    check_gradients(lambda: (pool2d(x, 3, 2, 1) * pool2d(x, 3, 2, 1)).sum(), [x], tol=1e-5)


def test_map_mean_of_channel_constant():
    x = Tensor(np.stack([np.full((4, 4), c) for c in (1.0, -2.0, 0.5)])[None])
    assert np.allclose(x.mean(axes=(2, 3)).data.reshape(-1), [1.0, -2.0, 0.5])


def test_map_mean_hand():
    x = Tensor(np.array([[[[0.0, 0.0], [0.0, 4.0]]]]))
    assert x.mean(axes=(2, 3), keepdims=True).item() == 1.0


@pytest.mark.parametrize("reduce", ["max", "mean"])
def test_map_max_and_mean_route_gradients_bitwise(reduce):
    # a tie over a whole map, a -0.0 upstream gradient, and maps whose H*W
    # (24, 1, 9) is not a power of two, where g / (H*W) and g * (1 / (H*W)) differ
    for shape in [(2, 5, 4, 6), (3, 4, 1, 1), (2, 3, 3, 3)]:
        xd = randn(shape, seed=14)
        xd[1, 2] = 0.75  # the gradient goes to the first element of the tie
        upstream = randn(shape[:2] + (1, 1), seed=27)
        upstream[0, 1] = -0.0
        x = Tensor(xd, requires_grad=True)
        out = getattr(x, reduce)(axes=(2, 3), keepdims=True)
        (out * Tensor(upstream)).sum().backward()
        assert same_bits(out.data, getattr(xd, reduce)(axis=(2, 3), keepdims=True))
        maps = x.grad.reshape(shape[0], shape[1], -1)
        if reduce == "max":
            assert maps[1, 2, 0] == upstream[1, 2, 0, 0] and not maps[1, 2, 1:].any()
            assert np.signbit(maps[0, 1]).sum() == 1
        else:
            area = shape[2] * shape[3]
            assert same_bits(x.grad, np.broadcast_to(upstream / area, shape))
            assert np.signbit(maps[0, 1]).all()


@pytest.mark.parametrize("shape", [(2, 5, 4, 6), (3, 4, 1, 1)])
def test_map_max_matches_full_window_pool2d_bitwise(shape):
    xd = randn(shape, seed=26)
    xd[1, 2] = 0.75  # a tie over the whole map
    x = Tensor(xd)
    assert same_bits(x.max(axes=(2, 3), keepdims=True).data, pool2d(x, shape[2:], shape[2:]).data)


# ---------------------------------------------------------------------------
# linear


def test_linear_identity():
    x = Tensor(randn((3, 4), seed=15))
    out = linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_linear_hand():
    out = linear(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1.0]]), Tensor([0.0]))
    assert np.array_equal(out.data, [[5.0]])


def test_linear_dimension_mismatch():
    with pytest.raises(Exception, match="inner"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_linear_gradients():
    x = Tensor(randn((4, 3), seed=16), requires_grad=True)
    layer = Linear(3, 2, rng=SplitMix64(17))
    check_gradients(lambda: (layer.forward(x) * layer.forward(x)).sum(),
                    [x, layer.weight, layer.bias], tol=1e-6)


def test_linear_rank_error():
    with pytest.raises(LayerError, match="rank-2"):
        linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4))))


@pytest.mark.parametrize("bias", [False, True])
def test_linear_is_one_node_with_the_bytes_of_transpose_matmul_add(bias):
    # the bytes of the weight.T -> x @ wt -> + bias chain it replaces, whose
    # weight gradient came back through the transpose node
    x = Tensor(randn((5, 4), seed=60), requires_grad=True)
    w = Tensor(randn((3, 4), seed=61), requires_grad=True)
    b = Tensor(randn(3, seed=62), requires_grad=True) if bias else None
    g = randn((5, 3), seed=63)
    out = linear(x, w, b)
    loss = (out * Tensor(g)).sum()  # upstream gradient exactly g
    assert tape_ops(loss) == Counter(linear=1, mul=1, sum=1)
    wt = np.ascontiguousarray(w.data.T)
    want = x.data @ wt
    assert same_bits(out.data, want + b.data if bias else want)
    loss.backward()
    assert same_bits(x.grad, g @ wt.T)
    assert same_bits(w.grad, (x.data.T @ g).T)
    if bias:
        assert same_bits(b.grad, g.sum(axis=0))


def test_linear_shared_weight_adds_both_calls_gradients():
    # CBAM's channel MLP runs one weight over the average and max descriptors
    a = Tensor(randn((2, 4), seed=64), requires_grad=True)
    m = Tensor(randn((2, 4), seed=65), requires_grad=True)
    w = Tensor(randn((3, 4), seed=66), requires_grad=True)
    g = randn((2, 3), seed=67)
    loss = ((linear(a, w) + linear(m, w)) * Tensor(g)).sum()
    assert tape_ops(loss) == Counter(linear=2, add=1, mul=1, sum=1)
    loss.backward()
    wt = np.ascontiguousarray(w.data.T)
    assert same_bits(a.grad, g @ wt.T) and same_bits(m.grad, g @ wt.T)
    assert same_bits(w.grad, (a.data.T @ g).T + (m.data.T @ g).T)


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_identity_on_normalized_input():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(8, 3, 4, 4))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    bn = BatchNorm2d(3)
    out = bn.forward(Tensor(x), mode="train").data
    assert np.abs(out - x).max() < 1e-6


def test_batchnorm_zero_gamma_gives_beta():
    bn = BatchNorm2d(3)
    bn.gamma.data[:] = 0.0
    bn.beta.data[:] = np.array([1.0, -2.0, 0.5])
    out = bn.forward(Tensor(randn((4, 3, 2, 2), seed=19)), mode="train").data
    for c, b in enumerate([1.0, -2.0, 0.5]):
        assert np.allclose(out[:, c], b, atol=1e-12)


def test_batchnorm_normalizes_batch():
    bn = BatchNorm2d(5)
    out = bn.forward(Tensor(randn((6, 5, 3, 3), seed=20, scale=3.0)), mode="train").data
    means = out.mean(axis=(0, 2, 3))
    variances = out.var(axis=(0, 2, 3))
    assert np.abs(means).max() < 1e-10
    assert np.abs(variances - 1.0).max() < 1e-6


def test_batchnorm_batch_one_error():
    with pytest.raises(LayerError, match="batch"):
        BatchNorm2d(2).forward(Tensor(np.zeros((1, 2, 3, 3))), mode="train")


def test_batchnorm_eval_is_pure():
    bn = BatchNorm2d(3)
    bn.forward(Tensor(randn((4, 3, 4, 4), seed=21)), mode="train")
    x = Tensor(randn((2, 3, 4, 4), seed=22))
    first = bn.forward(x, mode="eval").data
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    second = bn.forward(x, mode="eval").data
    assert np.array_equal(first, second)
    assert np.array_equal(rm, bn.running_mean) and np.array_equal(rv, bn.running_var)


def test_batchnorm_running_stats_update():
    bn = BatchNorm2d(2, momentum=0.5)
    x = randn((4, 2, 3, 3), seed=23)
    bn.forward(Tensor(x), mode="train")
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    assert np.allclose(bn.running_mean, 0.5 * mu, atol=1e-12)
    assert np.allclose(bn.running_var, 0.5 * 1.0 + 0.5 * var, atol=1e-12)


def test_batchnorm_gradients():
    bn = BatchNorm2d(3)
    x = Tensor(randn((4, 3, 3, 3), seed=24), requires_grad=True)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()

    def reset():
        bn.running_mean = rm.copy()
        bn.running_var = rv.copy()

    check_gradients(lambda: (bn.forward(x, "train") * x).sum(),
                    [x, bn.gamma, bn.beta], tol=1e-4, reset=reset)


@pytest.mark.parametrize("shape", [(2, 3, 1, 1), (32, 4, 16, 16), (8, 64, 8, 8), (3, 5, 3, 3)])
def test_batchnorm_matches_naive_loops(shape):
    c = shape[1]
    xd = randn(shape, seed=28, scale=3.0) + 1.0
    upstream = randn(shape, seed=29)
    bn = BatchNorm2d(c)
    bn.gamma.data, bn.beta.data = randn(c, seed=30), randn(c, seed=31)
    # eval mode records a tape too: Grad-CAM differentiates through it, and
    # here it reads the running statistics the train forward moved
    for mode in ("train", "eval"):
        want = batchnorm_naive(xd, bn.gamma.data, bn.beta.data, bn.running_mean,
                               bn.running_var, upstream, mode, bn.momentum, bn.eps)
        var = xd.var(axis=(0, 2, 3)) if mode == "train" else bn.running_var
        # the input gradient is a difference of terms as large as g * gamma * inv;
        # at two values per channel it is nearly 0, and only their rounding is left
        terms = np.abs(upstream * (bn.gamma.data / np.sqrt(var + bn.eps)).reshape(1, c, 1, 1))
        x = Tensor(xd, requires_grad=True)
        bn.zero_grad()
        out = bn.forward(x, mode)
        (out * Tensor(upstream)).sum().backward()
        got = (out.data, bn.running_mean, bn.running_var, x.grad, bn.gamma.grad, bn.beta.grad)
        for name, a, b in zip(("out", "mean", "var", "x", "gamma", "beta"), got, want):
            scale = max(np.max(np.abs(b)), np.max(terms) if name == "x" else 0.0)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, (mode, name)


def recomputing_node(kind):
    """(output, input, leaves, batchnorm or None) of a node whose backward
    recomputes a map of its forward."""
    x = Tensor(randn((4, 3, 6, 6), seed=34, scale=2.0) + 0.5,
               requires_grad=kind != "conv-frozen-input")
    if kind == "maxpool":
        return pool2d(x, 3, 2, 1), x, [x], None
    if kind.startswith("conv"):  # its patch matrix is 4x the input, 9x when padded
        w = Tensor(randn((2, 3, 3, 3), seed=41), requires_grad=True)
        b = Tensor(randn(2, seed=42), requires_grad=True) if kind == "conv-bias" else None
        out = conv2d(x, w, b, padding=1 if kind == "conv-padded" else 0)
        return out, x, [t for t in (x, w, b) if t is not None and t.requires_grad], None
    bn = BatchNorm2d(3)
    bn.gamma.data, bn.beta.data = randn(3, seed=35), randn(3, seed=36)
    bn.running_mean, bn.running_var = randn(3, seed=37), randn(3, seed=38) ** 2 + 0.5
    return bn.forward(x, kind), x, [x, bn.gamma, bn.beta], bn


@pytest.mark.parametrize("kind", ["train", "eval", "maxpool", "conv-padded"])
def test_recomputing_nodes_ignore_layer_state_changed_after_forward(kind):
    # eval mode records a tape under Grad-CAM's suffix; max-pool has no state,
    # so its twins only run the same backward
    grads = []
    for changed in (False, True):
        out, _, leaves, bn = recomputing_node(kind)
        if changed and bn is not None:  # replaces the running statistics an eval node was built from
            bn.forward(Tensor(randn((4, 3, 6, 6), seed=40)), "train")
        if changed and kind.startswith("conv"):  # new input and weight arrays, as a step gives
            for t in leaves:
                t.data = t.data - 0.5
        (out * Tensor(randn(out.shape, seed=39))).sum().backward()
        grads.append([t.grad for t in leaves])
    for untouched, changed in zip(*grads):
        assert same_bits(changed, untouched)


@pytest.mark.parametrize("kind, maps", [
    ("train", 1), ("eval", 0), ("maxpool", 0),
    ("conv-bias", 0), ("conv-frozen-input", 0), ("conv-padded", 0)])
def test_recomputing_nodes_keep_at_most_the_centred_map(kind, maps):
    # train batchnorm keeps the centred input, not the normalised map too;
    # max-pool keeps no padded copy, and conv2d neither that nor its patch matrix
    out, x, leaves, _ = recomputing_node(kind)
    inputs = [id(t.data) for t in (x, *leaves)]
    own = [a for a in saved_arrays(out.node) if a.size >= x.size and id(a) not in inputs]
    assert len(own) == maps


def tape_ops(loss) -> Counter:
    """Op name of every node reachable from ``loss``."""
    return Counter(node.op for node in graph_nodes(loss))


def desk_loss(attention, size=32, **overrides):
    """The loss of a desk training step on a batch of 4."""
    model = build_resnet18(desk_config(attention, input_size=size, **overrides), seed=32)
    x = Tensor(randn((4, 1, size, size), seed=33))
    return softmax_cross_entropy(model.forward(x, mode="train"), [0, 1, 2, 0])


@pytest.mark.parametrize("attention, nodes, linears",
                         [("none", 69, 1), ("se", 125, 17), ("eca", 109, 1), ("cbam", 213, 33)])
def test_desk_training_step_tape_size(attention, nodes, linears):
    # one node per Linear call: the head, plus each SE or CBAM MLP stage;
    # global pooling is one mean or max node, with no reshape after it
    ops = tape_ops(desk_loss(attention))
    assert sum(ops.values()) == nodes
    assert ops["batchnorm"] == 20
    assert ops["linear"] == linears and not (ops["matmul"] or ops["transpose"])
    assert ops["maxpool2d"] == 1  # the stem's max pool
    if attention == "none":
        assert ops["mean"] == 1  # the head's pool


def record_ops(monkeypatch, record):
    """Call ``record(op, out, inputs)`` after every op that the tensor and
    layers modules apply from here on."""
    def recording(op, data, inputs, backward):
        out = apply_op(op, data, inputs, backward)
        record(op, out, inputs)
        return out

    monkeypatch.setattr(attnatr.tensor, "apply_op", recording)
    monkeypatch.setattr(attnatr.layers, "apply_op", recording)


def source_node_kinds() -> set:
    """Every string-literal op kind the package passes to ``apply_op`` or ``_binary``."""
    kinds = set()
    for path in pathlib.Path(attnatr.layers.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "id", None) in ("apply_op", "_binary")
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                kinds.add(node.args[0].value)
    return kinds


def test_every_node_kind_is_recorded_by_training_or_gradcam(monkeypatch):
    # a kind that neither a desk train step nor a Grad-CAM map records is
    # kept alive only by its tests
    kinds = source_node_kinds()
    assert {"add", "mul", "batchnorm", "conv2d"} <= kinds
    recorded = set()
    record_ops(monkeypatch, lambda op, out, inputs: recorded.add(op))
    for attention in ATTENTION_KINDS:
        desk_loss(attention)
    model = build_resnet18(desk_config("cbam", input_size=32), seed=32)
    gradcam_map(model, randn((32, 32), seed=33), 0)
    assert sorted(kinds - recorded) == []


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_desk_training_step_closures_hold_no_tensor(attention, monkeypatch):
    # a Tensor in a closure would keep its map, its node and its gradient alive
    nodes = []
    record_ops(monkeypatch, lambda op, out, inputs: nodes.append(out.node))
    desk_loss(attention)
    for node in nodes:
        assert not any(isinstance(v, Tensor) for v in closure_values(node.backward)), node.op


def memory_root(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``a`` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_desk_training_tape_keeps_no_map_beyond_the_centred_ones(monkeypatch):
    # one batch's tape is maps of the forward plus train batchnorm's centred
    # maps: a map of a node's own is a closure array, sharing no memory with a
    # tensor of the forward, at least as large as the node's NCHW input.  At 64²
    # no map is 1x1, where a per-channel argmax would be as large as its map.
    ops = []  # every op's output and inputs, kept alive so their memory is known
    record_ops(monkeypatch, lambda op, out, inputs: ops.append((out, inputs)))
    desk_loss("cbam", size=64)
    shared = {id(memory_root(t.data)) for out, inputs in ops for t in (out, *inputs)}
    own = {}
    for out, inputs in ops:
        for a in saved_arrays(out.node):
            if inputs[0].ndim == 4 and a.size >= inputs[0].size \
                    and id(memory_root(a)) not in shared:
                own[id(memory_root(a))] = memory_root(a).nbytes
    centred = [inputs[0].data.nbytes for out, inputs in ops if out.node.op == "batchnorm"]
    assert len(centred) == 20
    assert sum(own.values()) <= sum(centred)


def test_desk_training_tape_frees_conv_outputs_and_batchnorm_outputs_into_relu(monkeypatch):
    # conv2d's backward reads its input, batchnorm's its centred map and
    # relu's its output: once forward has moved on, no node holds these maps
    convs, bns, into_relu = [], [], set()

    def record(op, out, inputs):
        if op == "conv2d":
            convs.append(weakref.ref(out.data))
        elif op == "batchnorm":
            bns.append(weakref.ref(out.data))
        elif op == "relu":
            into_relu.update(i for i, ref in enumerate(bns) if ref() is inputs[0].data)

    record_ops(monkeypatch, record)
    loss = desk_loss("cbam", insertion="in_block")
    # 20 backbone convs and 8 spatial-attention convs; the stem's and each
    # block's first batchnorm feed a relu
    assert (len(convs), len(bns), len(into_relu)) == (28, 20, 9)
    assert [ref() for ref in convs] == [None] * 28
    assert [bns[i]() for i in sorted(into_relu)] == [None] * 9
    loss.backward()  # the tape the loss held all along still runs


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy(Tensor(np.zeros((4, 10))), [0, 3, 5, 9])
    assert abs(loss.item() - np.log(10.0)) < 1e-12


def test_cross_entropy_confident_correct():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1e3
    assert softmax_cross_entropy(Tensor(logits), [2]).item() < 1e-10


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(randn((5, 4), seed=25), requires_grad=True)
    labels = [0, 3, 1, 2, 2]
    softmax_cross_entropy(logits, labels).backward()
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.eye(4)[labels]
    assert np.allclose(logits.grad, (probs - onehot) / 5.0, atol=1e-12)
    logits.grad = None
    check_gradients(lambda: softmax_cross_entropy(logits, labels), [logits], tol=1e-5)


def test_cross_entropy_label_range_error():
    with pytest.raises(LayerError, match="out of range"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_plain_step():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([2.0])
    SgdOptimizer([("p", p)], lr=0.1).step()
    assert np.allclose(p.data, [0.8])


def test_sgd_zero_grad_is_noop_on_params():
    p = Tensor([1.5], requires_grad=True)
    opt = SgdOptimizer([("p", p)], lr=0.1)
    for _ in range(5):
        p.grad = np.array([0.0])
        opt.step()
    assert np.allclose(p.data, [1.5])


def test_sgd_momentum_converges_on_quadratic():
    p = Tensor([10.0], requires_grad=True)
    opt = SgdOptimizer([("p", p)], lr=0.1, momentum=0.5)
    for _ in range(200):
        p.grad = 2.0 * (p.data - 3.0)  # d/dp (p - 3)^2
        opt.step()
    assert abs(p.data[0] - 3.0) < 1e-6


def test_sgd_missing_gradient_error():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(LayerError, match="parameter 'p' has no gradient"):
        SgdOptimizer([("p", p)], lr=0.1).step()


def test_sgd_momentum_update_rule():
    p = Tensor([0.0], requires_grad=True)
    opt = SgdOptimizer([("p", p)], lr=1.0, momentum=0.9)
    p.grad = np.array([1.0])
    opt.step()  # v=1, p=-1
    p.grad = np.array([1.0])
    opt.step()  # v=1.9, p=-2.9
    assert np.allclose(p.data, [-2.9])


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_momentum_buffer_in_place_matches_the_formula_bitwise(momentum):
    # -1.0 then -0.0 gives a -0.0 buffer at momentum 0 (0 * -1 + -0.0)
    grads = [np.array([-1.0, 0.0, 1e-300, np.nan, 3.0]),
             np.array([-0.0, -0.0, 2.5, 1.0, np.nan]),
             np.array([-0.0, 7.0, -0.0, 1.0, -2.0])]
    start = np.array([0.5, -0.0, 1.0, 2.0, -3.0])
    p = Tensor(start, requires_grad=True)
    opt = SgdOptimizer([("p", p)], lr=0.1, momentum=momentum)
    v, data = np.zeros_like(start), start.copy()
    for g in grads:
        before, kept = p.data, p.data.copy()
        p.grad = g
        opt.step()
        v = momentum * v + g
        data = data - 0.1 * v
        assert same_bits(opt.velocity[0], v) and same_bits(p.data, data)
        # the parameter gets a new array: one taken before the step keeps its values
        assert p.data is not before and same_bits(before, kept)


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_exact_byte_layout():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    blob = dump_tensors([("w", arr)])
    expected = (b"ATTNATR1"
                + (1).to_bytes(4, "little") + b"w"
                + (2).to_bytes(4, "little")
                + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
                + arr.astype("<f8").tobytes())
    assert blob == expected


def test_checkpoint_roundtrip(tmp_path):
    named = [("a.weight", randn((3, 2, 2, 2), seed=26)),
             ("b.bias", randn((7,), seed=27)),
             ("scalar", np.array(3.5))]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"a.weight", "b.bias", "scalar"}
    for name, arr in named:
        assert np.array_equal(loaded[name], arr)


def test_checkpoint_bad_magic():
    with pytest.raises(CheckpointError, match="magic"):
        parse_tensors(b"NOTMAGIC" + b"\x00" * 16)


def test_checkpoint_truncated():
    blob = dump_tensors([("w", np.ones((4, 4)))])
    with pytest.raises(CheckpointError, match="truncated"):
        parse_tensors(blob[:-8])


def test_checkpoint_hostile_extents():
    # extents whose product overflows int64 must fail as truncation, not crash
    blob = (b"ATTNATR1" + (1).to_bytes(4, "little") + b"w"
            + (4).to_bytes(4, "little") + (0xFFFFFFFF).to_bytes(4, "little") * 4)
    with pytest.raises(CheckpointError, match="truncated"):
        parse_tensors(blob)


def test_checkpoint_fuzz_structured_errors_only():
    base = dump_tensors([("a", randn((3, 3), seed=50)), ("b", randn((2,), seed=51))])
    rng = SplitMix64(52)
    for i in range(2000):
        if i % 2:
            buf = base[:rng.below(len(base) + 1)]
        else:
            mutated = bytearray(base)
            for _ in range(1 + rng.below(6)):
                mutated[rng.below(len(mutated))] = rng.below(256)
            buf = bytes(mutated)
        try:
            parse_tensors(buf)
        except CheckpointError:
            pass


# ---------------------------------------------------------------------------
# init determinism


def test_seeded_init_is_bitwise_reproducible():
    a = Conv2d(3, 4, 3, rng=SplitMix64(42)).weight.data
    b = Conv2d(3, 4, 3, rng=SplitMix64(42)).weight.data
    assert np.array_equal(a, b)
    c = Conv2d(3, 4, 3, rng=SplitMix64(43)).weight.data
    assert not np.array_equal(a, c)


def test_init_bounds_follow_fan_in():
    layer = Linear(64, 8, rng=SplitMix64(1))
    bound = np.sqrt(1.0 / 64.0)
    assert np.abs(layer.weight.data).max() <= bound
    assert np.all(layer.bias.data == 0.0)
