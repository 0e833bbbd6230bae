"""Shared test oracles: finite differences and naive loop references.

These stay independent of the library code paths they check: the convolution
and pooling oracles are direct nested loops, the gradient oracle is a
central finite difference over the raw parameter arrays, the batchnorm
oracle builds the layer from primitive tensor ops, and the Grad-CAM oracle
records a tape through the whole network.  The tape walkers at the end list
the nodes of a graph and the arrays their backward closures hold.
"""

import types

import numpy as np

from attnatr.explain import bilinear_resize
from attnatr.layers import LayerError, pool2d
from attnatr.tensor import TapeNode, Tensor, as_tensor, no_grad, relu


def rel_error(analytic, numeric, floor=1e-8) -> float:
    """Max-norm relative error with a scale floor.

    The floor keeps near-zero gradient tensors comparable: central differences
    on an O(1) loss resolve nothing below ~1e-11 per probe, so errors are
    measured against max(grad scale, floor) rather than the raw tiny values.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), floor)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def numeric_grad(value_fn, arr, indices=None, step=1e-5):
    """Central differences of ``value_fn()`` w.r.t. entries of ``arr`` in place.

    Returns (indices, gradient values at those indices); indices defaults to
    every entry.
    """
    flat = arr.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    indices = list(indices)
    grads = np.zeros(len(indices))
    for pos, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + step
        hi = value_fn()
        flat[i] = orig - step
        lo = value_fn()
        flat[i] = orig
        grads[pos] = (hi - lo) / (2.0 * step)
    return indices, grads


def check_gradients(make_loss, tensors, tol, step=1e-5, sample=None,
                    sample_seed=0, reset=None, floor=1e-8) -> float:
    """Compare tape gradients of ``make_loss()`` against finite differences.

    ``make_loss`` rebuilds the scalar loss from current parameter data;
    ``reset``, when given, restores any state the forward pass mutates (e.g.
    batchnorm running stats) and runs before every evaluation.  ``sample``
    limits the probed entries per tensor.  Returns the worst relative error
    and asserts it is below ``tol``.
    """
    if reset is not None:
        reset()
    for t in tensors:
        t.grad = None
    make_loss().backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    def value():
        if reset is not None:
            reset()
        with no_grad():
            return make_loss().item()

    picker = np.random.default_rng(sample_seed)
    worst = 0.0
    for t, full in zip(tensors, analytic):
        size = t.data.size
        if sample is not None and sample < size:
            indices = sorted(picker.choice(size, size=sample, replace=False).tolist())
        else:
            indices = None
        idx, numeric = numeric_grad(value, t.data, indices=indices, step=step)
        err = rel_error(full.reshape(-1)[list(idx)], numeric, floor=floor)
        worst = max(worst, err)
    assert worst < tol, f"gradient check failed: rel error {worst:.3e} >= {tol:g}"
    return worst


def conv2d_naive(x, w, b=None, stride=(1, 1), padding=(0, 0)):
    """Direct six-loop cross-correlation reference."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, oh, ow))
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, oi * sh + i, oj * sw + j] \
                                    * w[co, ci, i, j]
                    if b is not None:
                        acc += b[co]
                    out[ni, co, oi, oj] = acc
    return out


def conv2d_input_grad_naive(g, w, x_shape, stride=(1, 1), padding=(0, 0)):
    """Conv input gradient: the patch gradients scattered tap by tap.

    The patch-gradient matrix uses the kernel's own GEMM spelling, so its bits
    are the kernel's.  Each tap (i, j), in row-major order, then adds its
    value at one output position at a time into a zeroed padded array, which
    is cropped: every element sees its taps' additions in (i, j) order.
    """
    n, cin, h, wd = x_shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    oh, ow = g.shape[2:]
    gcols = g.transpose(0, 2, 3, 1).reshape(n, oh * ow, cout) @ w.reshape(cout, -1)
    gcols = gcols.reshape(n, oh, ow, cin, kh, kw)
    gxp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            for oi in range(oh):
                for oj in range(ow):
                    gxp[:, :, oi * sh + i, oj * sw + j] += gcols[:, oi, oj, :, i, j]
    return gxp[:, :, ph:ph + h, pw:pw + wd]


def im2col_naive(xp, kh, kw, sh, sw):
    """Patch matrix of a padded (N, C, Hp, Wp) array, one output position at a time.

    Row ``oi * ow + oj`` of image ``ni`` is the (C, kh, kw) window at that
    position, flattened row-major.
    """
    n, c, hp, wp = xp.shape
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    out = np.empty((n, oh * ow, c * kh * kw))
    for ni in range(n):
        for oi in range(oh):
            for oj in range(ow):
                out[ni, oi * ow + oj] = \
                    xp[ni, :, oi * sh:oi * sh + kh, oj * sw:oj * sw + kw].reshape(-1)
    return out


def pool2d_naive(x, window, stride, padding=(0, 0)):
    """Direct windowed max pooling reference (-inf padding to match)."""
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    win = xp[ni, ci, oi * sh:oi * sh + kh, oj * sw:oj * sw + kw]
                    out[ni, ci, oi, oj] = win.max()
    return out


def max_pool_first_naive(x, window, stride, padding=(0, 0)):
    """Max pooling that keeps each window's first maximal element.

    Scans each window in row-major order and counts NaN as maximal, the
    element ``np.argmax`` picks and the backward pass routes the gradient to,
    so signed zeros and NaNs keep their bits.
    """
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, oh, ow))
    for ni, ci, oi, oj in np.ndindex(n, c, oh, ow):
        best = None
        for i in range(kh):
            for j in range(kw):
                v = xp[ni, ci, oi * sh + i, oj * sw + j]
                if best is None or v > best or (np.isnan(v) and not np.isnan(best)):
                    best = v
        out[ni, ci, oi, oj] = best
    return out


def max_pool_backward_naive(x, g, window, stride, padding=(0, 0)):
    """Max-pool input gradient: each window's upstream value added, in
    (n, c, oh, ow) order, at the window's first maximal element.

    The first maximal element is the one ``max_pool_first_naive`` keeps (NaN
    counts as maximal); a window whose first maximum is padding adds nothing.
    """
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    gxp = np.zeros_like(xp)
    for ni, ci, oi, oj in np.ndindex(n, c, oh, ow):
        best, at = None, None
        for i in range(kh):
            for j in range(kw):
                v = xp[ni, ci, oi * sh + i, oj * sw + j]
                if best is None or v > best or (np.isnan(v) and not np.isnan(best)):
                    best, at = v, (oi * sh + i, oj * sw + j)
        gxp[ni, ci, at[0], at[1]] += g[ni, ci, oi, oj]
    return gxp[:, :, ph:ph + h, pw:pw + w]


def batchnorm_reference(bn, x, mode: str = "train"):
    """``bn``'s forward composed from primitive tape ops (11 nodes in train mode).

    Updates ``bn``'s running statistics exactly as the layer does; the fused
    layer must match its output, gradients and statistics bit for bit.
    """
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[1] != bn.channels:
        raise LayerError(
            f"batchnorm expects (N, {bn.channels}, H, W), got {x.shape}")
    c = bn.channels
    gamma = bn.gamma.reshape(1, c, 1, 1)
    beta = bn.beta.reshape(1, c, 1, 1)
    if mode == "train":
        if x.shape[0] < 2:
            raise LayerError("batchnorm training mode requires batch size >= 2")
        mu = x.mean(axes=(0, 2, 3), keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axes=(0, 2, 3), keepdims=True)
        inv = (var + bn.eps) ** -0.5
        m = bn.momentum
        bn.running_mean = (1 - m) * bn.running_mean + m * mu.data.reshape(c)
        bn.running_var = (1 - m) * bn.running_var + m * var.data.reshape(c)
        return centered * inv * gamma + beta
    if mode == "eval":
        inv = Tensor((bn.running_var + bn.eps) ** -0.5)
        mean = Tensor(bn.running_mean)
        xc = x - mean.reshape(1, c, 1, 1)
        return xc * inv.reshape(1, c, 1, 1) * gamma + beta
    raise LayerError(f"unknown batchnorm mode {mode!r}")


def gradcam_reference(model, image, cls, layer):
    """Grad-CAM values of ``model`` with a tape through the whole network.

    Rebuilds the eval forward from the model's public layers, captures
    ``layer`` mid-forward and backpropagates the ``cls`` logit through every
    layer into every parameter; the library's cut tape must match the
    returned (H, W) map bit for bit.
    """
    image = np.asarray(image, dtype=np.float64)
    x = Tensor(image.reshape(1, 1, *image.shape[-2:]))
    h = relu(model.stem_bn.forward(model.stem_conv.forward(x), "eval"))
    h = pool2d(h, window=3, stride=2, padding=1)
    captured = {"stem": h}
    for name, block in model._named_blocks():
        h = block.forward(h, "eval")
        captured[name] = h
    logits = model.head.forward(h.mean(axes=(2, 3)))
    onehot = np.zeros(logits.shape)
    onehot[0, cls] = 1.0
    (logits * Tensor(onehot)).sum().backward()

    acts = captured[layer]
    alpha = acts.grad[0].mean(axis=(1, 2))
    raw = np.maximum((alpha[:, None, None] * acts.data[0]).sum(axis=0), 0.0)
    up = np.maximum(bilinear_resize(raw, x.shape[2], x.shape[3]), 0.0)
    lo, hi = up.min(), up.max()
    if hi == 0.0:
        return np.zeros_like(up)
    if hi == lo:
        return np.ones_like(up)
    return (up - lo) / (hi - lo)


def graph_nodes(loss) -> list:
    """Every tape node reachable from ``loss``; leaves are not nodes."""
    found, stack = {}, [loss.node]
    while stack:
        v = stack.pop()
        if isinstance(v, TapeNode) and id(v) not in found:
            found[id(v)] = v
            stack.extend(v.inputs)
    return list(found.values())


def closure_values(fn) -> list:
    """Every value ``fn``'s closure holds, and those of the functions it holds."""
    values, stack, seen = [], [fn], set()
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            try:
                v = cell.cell_contents
            except ValueError:  # a name that only a branch not taken binds
                continue
            values.append(v)
            if isinstance(v, types.FunctionType):
                stack.append(v)
    return values


def saved_arrays(node) -> list:
    """The numpy arrays a node's backward closure holds."""
    return [v for v in closure_values(node.backward) if isinstance(v, np.ndarray)]
