import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnatr.tensor import (AutodiffError, ShapeError, Tensor, broadcast_shape,
                            concat, no_grad, relu, sigmoid)
from helpers import check_gradients, saved_arrays


def randt(shape, seed=0, scale=1.0, requires_grad=False):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# elementwise


def test_add_pointwise():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    assert np.array_equal(out.data, [4.0, 6.0])


def test_mul_broadcast_recalibration_identity():
    # scaling an all-ones map by per-channel gates leaves channel c constant s_c
    ones = Tensor(np.ones((3, 4, 5)))
    gates = Tensor(np.array([0.25, 0.5, 2.0]).reshape(3, 1, 1))
    out = ones * gates
    assert out.shape == (3, 4, 5)
    for c, s in enumerate([0.25, 0.5, 2.0]):
        assert np.all(out.data[c] == s)


def test_broadcast_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))


def test_mul_gradient_matches_finite_differences():
    a = randt((2, 3, 3), seed=1, requires_grad=True)
    b = randt((2, 3, 3), seed=2, requires_grad=True)
    err = check_gradients(lambda: (a * b).sum(), [a, b], tol=1e-6)
    assert err < 1e-6


def test_mul_broadcast_gradient():
    a = randt((2, 3, 4, 4), seed=3, requires_grad=True)
    s = randt((3, 1, 1), seed=4, requires_grad=True)
    check_gradients(lambda: (a * s).sum(), [a, s], tol=1e-6)


# ---------------------------------------------------------------------------
# reductions


def test_mean_of_channel_constant_map():
    x = Tensor(np.stack([np.full((4, 4), c) for c in (1.0, -2.0, 0.5)]))
    z = x.mean(axes=(1, 2))
    assert np.allclose(z.data, [1.0, -2.0, 0.5], atol=0)


def test_max_reduce():
    assert Tensor([[1.0, 5.0], [2.0, 3.0]]).max().item() == 5.0


def test_mean_gradient_uniform():
    x = randt((3, 4, 5), seed=8, requires_grad=True)
    x.mean(axes=(1, 2)).sum().backward()
    assert np.allclose(x.grad, np.full(x.shape, 1.0 / 20.0), atol=1e-15)
    x.grad = None
    check_gradients(lambda: x.mean(axes=(1, 2)).sum(), [x], tol=1e-6)


def test_max_gradient_first_in_scan_order():
    x = Tensor([[3.0, 3.0], [1.0, 3.0]], requires_grad=True)
    x.max().backward()
    assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 0.0]])


def test_max_axis_gradient():
    x = randt((2, 5), seed=9, requires_grad=True)
    x.max(axes=1).sum().backward()
    expected = np.zeros_like(x.data)
    expected[np.arange(2), np.argmax(x.data, axis=1)] = 1.0
    assert np.array_equal(x.grad, expected)


def test_max_node_keeps_no_view_of_its_input():
    # backward needs only the argmax: a view would keep the input map alive
    x = randt((2, 3, 4, 5), seed=41, requires_grad=True)
    for axes in [(2, 3), 1, None]:
        node = x.max(axes=axes).node
        assert not any(np.shares_memory(a, x.data) for a in saved_arrays(node)), axes


def test_sum_keepdims_shapes():
    x = randt((2, 3, 4), seed=10)
    assert x.sum(axes=(0, 2), keepdims=True).shape == (1, 3, 1)
    assert x.sum(axes=(0, 2)).shape == (3,)
    assert x.max(axes=(0, 2), keepdims=True).shape == (1, 3, 1)


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axes", [None, (0, 1, 2), (-1, 0, 1)])
def test_reducing_every_axis_by_name_has_a_gradient(axes, keepdims):
    x = randt((2, 3, 4), seed=18, requires_grad=True)
    for reduce, scale in ((x.sum, 1.0), (x.mean, 1.0 / 24.0)):
        x.grad = None
        reduce(axes, keepdims).sum().backward()
        assert np.array_equal(x.grad, np.full(x.shape, scale))


def test_invalid_axis_error():
    with pytest.raises(ShapeError, match="axis 3"):
        randt((2, 2), seed=0).sum(axes=3)


# ---------------------------------------------------------------------------
# activations


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).item() == 0.5


def test_relu_negative():
    assert relu(Tensor([-2.5])).item() == 0.0


def test_sigmoid_gradient_matches_finite_differences():
    x = randt((4, 4), seed=11, requires_grad=True)
    check_gradients(lambda: sigmoid(x).sum(), [x], tol=1e-6)


def test_sigmoid_open_interval_extremes():
    out = sigmoid(Tensor([-1e6, -40.0, 0.0, 40.0, 1e6])).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_relu_gradient():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    relu(x).sum().backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# backward contract


def test_backward_of_sum_is_ones():
    x = randt((2, 3, 4), seed=12, requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3, 4)))


def test_backward_of_sum_of_squares():
    x = randt((5,), seed=13, requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-15)


def test_backward_requires_scalar():
    x = randt((3,), seed=14, requires_grad=True)
    with pytest.raises(AutodiffError, match="scalar"):
        (x * x).backward()


def test_backward_requires_tape():
    with pytest.raises(AutodiffError, match="recorded"):
        Tensor([1.0], requires_grad=True).backward()


def test_backward_twice_raises_and_keeps_the_first_grads():
    x = randt((3, 3), seed=15, requires_grad=True)
    y = randt((3, 3), seed=16, requires_grad=True)
    loss = ((x * y).sum() * (x.sum())) + (x * x).sum()
    loss.backward()
    gx, gy = x.grad.copy(), y.grad.copy()
    with pytest.raises(AutodiffError, match="earlier backward\\(\\) consumed"):
        loss.backward()
    assert np.array_equal(x.grad, gx)
    assert np.array_equal(y.grad, gy)


def test_a_loss_on_a_consumed_intermediate_raises_before_any_grad_changes():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, 4.0], requires_grad=True)
    h = x * x
    (3.0 * h).sum().backward()
    assert np.array_equal(x.grad, [6.0, 12.0])
    with pytest.raises(AutodiffError, match="consumed"):
        (w * (5.0 * h)).sum().backward()
    assert np.array_equal(x.grad, [6.0, 12.0])
    assert np.array_equal(h.grad, [3.0, 3.0])
    assert w.grad is None


def test_fanout_accumulates_additively():
    x = Tensor([2.0], requires_grad=True)
    ((x * x) + (x * x)).sum().backward()
    assert np.allclose(x.grad, [8.0])


def test_intermediates_get_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    y.sum().backward()
    assert np.array_equal(y.grad, [1.0, 1.0])
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_no_grad_suppresses_tape():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y.node is None and not y.requires_grad


def test_no_grad_in_one_thread_leaves_another_recording():
    entered, done = threading.Event(), threading.Event()

    def hold_no_grad():
        with no_grad():
            entered.set()
            done.wait(timeout=10)

    holder = threading.Thread(target=hold_no_grad)
    holder.start()
    try:
        assert entered.wait(timeout=10)
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * x).sum()
        assert y.node is not None and y.requires_grad
        y.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
    finally:
        done.set()
        holder.join()
    with no_grad():  # the holder's exit reset only its own context
        assert (x * 2.0).node is None
    assert (x * 2.0).node is not None


# ---------------------------------------------------------------------------
# shape ops used by the layers


def test_reshape_transpose_concat_gradients():
    x = randt((2, 3, 4), seed=17, requires_grad=True)
    y = randt((2, 3, 4), seed=18, requires_grad=True)

    def loss():
        flat = x.reshape(6, 4)
        return (flat * flat).sum() + concat([x, y], axis=1).sum()

    check_gradients(loss, [x, y], tol=1e-6)


# ---------------------------------------------------------------------------
# invariants


_extents = st.integers(min_value=1, max_value=4)
_shapes = st.lists(_extents, min_size=0, max_size=4).map(tuple)


def _compatible(a, b):
    try:
        broadcast_shape(a, b)
        return True
    except ShapeError:
        return False


@settings(max_examples=300, deadline=None)
@given(_shapes, _shapes, _shapes)
def test_broadcast_shape_associative(a, b, c):
    ab_valid = _compatible(a, b)
    bc_valid = _compatible(b, c)
    if not (ab_valid and bc_valid):
        return
    if not (_compatible(broadcast_shape(a, b), c)
            and _compatible(a, broadcast_shape(b, c))):
        return
    assert broadcast_shape(broadcast_shape(a, b), c) \
        == broadcast_shape(a, broadcast_shape(b, c))


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=6), st.lists(_finite, min_size=1, max_size=6))
def test_no_nan_inf_from_bounded_inputs(a_vals, b_vals):
    n = min(len(a_vals), len(b_vals))
    a = Tensor(a_vals[:n])
    b = Tensor(b_vals[:n])
    results = [a + b, a * b, relu(a), sigmoid(a),
               a.sum(), a.mean(), a.max()]
    for r in results:
        assert np.all(np.isfinite(r.data))


@pytest.mark.parametrize("op", ["add", "mul", "relu", "sigmoid",
                                "sum", "mean", "max"])
def test_every_op_passes_gradient_check(op):
    a = randt((3, 4), seed=20, requires_grad=True)
    b = randt((3, 4), seed=21, requires_grad=True)
    builders = {
        "add": lambda: ((a + b) * (a + b)).sum(),
        "mul": lambda: ((a * b) * a).sum(),
        "relu": lambda: (relu(a) * b).sum(),
        "sigmoid": lambda: (sigmoid(a) * b).sum(),
        "sum": lambda: (a.sum(axes=1) * a.sum(axes=1)).sum(),
        "mean": lambda: (a.mean(axes=0) * a.mean(axes=0)).sum(),
        "max": lambda: (a.max(axes=1) * a.max(axes=1)).sum(),
    }
    check_gradients(builders[op], [a, b], tol=1e-4)
