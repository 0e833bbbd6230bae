"""Convolution, pooling, linear, batchnorm, loss, and SGD.

Convolutions use cross-correlation semantics (no kernel flip) and are
lowered to matrix products over an im2col layout, gathered by one ``np.take``
through a read-only offset index; a bounded ``lru_cache`` (thread-safe)
keeps one index per input and kernel shape.  Backward builds an input
gradient only for an input that needs one: it reads the patch gradients in
their own (N, oh, ow, C, kh, kw) layout, adds them tap by tap into a zeroed
channels-last buffer and returns a C-contiguous NCHW copy, the layout
downstream sums round in.  Max-pool backward pads its input again, takes
its argmax in the same gather and scatters with one ``np.bincount``.
Naive-loop oracles pin the semantics and the bytes of the patches and both
input gradients.  All layers are float64 and differentiable through the
tape.

Parameter initialization: weights uniform in +/- sqrt(1/fan_in), biases zero,
batchnorm scale 1 / shift 0, drawn from a caller-supplied SplitMix64 stream
so two builds from one seed are bitwise identical.

Layers are read-only during forward/backward; optimizer steps and batchnorm
running-stat updates mutate state and need exclusive access.
"""

from __future__ import annotations

import functools

import numpy as np

from .rng import SplitMix64
from .tensor import Tensor, _unbroadcast, apply_op, as_tensor


class LayerError(ValueError):
    """Raised on invalid layer configuration or input."""


def _pair(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (int(v), int(v))


def _uniform_init(rng: SplitMix64, shape, fan_in: int) -> Tensor:
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(shape, -bound, bound), requires_grad=True)


# ---------------------------------------------------------------------------
# module tree and checkpoint names


class Module:
    """A layer or a container of layers, named for checkpoints by one walk.

    A leaf lists its trainable Tensor attributes in ``param_names`` and its
    plain-array state in ``buffer_names``; a container yields its sub-modules
    from ``children()`` as (name, module) pairs.  Attributes and children
    that are None are skipped.  Checkpoint order is every parameter in walk
    order, then every buffer in walk order.
    """

    param_names: tuple = ()
    buffer_names: tuple = ()

    def children(self):
        return ()

    def named_modules(self, name: str = ""):
        """Yield (dotted name, module) for this module and its descendants."""
        yield name, self
        for child_name, child in self.children():
            if child is not None:
                yield from child.named_modules(f"{name}.{child_name}" if name else child_name)

    def _slots(self, kind: str):
        """(checkpoint name, owner, attribute) of every parameter or every buffer."""
        return [(f"{name}.{attr}" if name else attr, module, attr)
                for name, module in self.named_modules()
                for attr in getattr(module, kind) if getattr(module, attr) is not None]

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(owner, attr))
                for name, owner, attr in self._slots("param_names")]

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        """Trainable parameters, then buffers, in checkpoint order."""
        return [(name, p.data) for name, p in self.named_params()] + \
            [(name, getattr(owner, attr))
             for name, owner, attr in self._slots("buffer_names")]

    def load_state(self, tensors: dict[str, np.ndarray]):
        slots = {name: (owner, attr) for kind in ("param_names", "buffer_names")
                 for name, owner, attr in self._slots(kind)}
        missing = sorted(set(slots) - set(tensors))
        unknown = sorted(set(tensors) - set(slots))
        if missing or unknown:
            raise LayerError(
                f"checkpoint/model mismatch: missing {missing}, unknown {unknown}")
        for name, arr in tensors.items():
            owner, attr = slots[name]
            current = getattr(owner, attr)
            if arr.shape != current.shape:
                raise LayerError(
                    f"shape mismatch for {name}: checkpoint {arr.shape}, "
                    f"model {current.shape}")
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            if isinstance(current, Tensor):
                current.data = arr  # keep the Tensor an optimizer may hold
            else:
                setattr(owner, attr, arr)

    def num_params(self) -> int:
        return sum(p.size for _, p in self.named_params())

    def zero_grad(self):
        for _, p in self.named_params():
            p.grad = None


# ---------------------------------------------------------------------------
# conv2d


def _pad(a: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    """Pad (N, C, H, W) spatially with ``fill``; ``a`` itself when ph = pw = 0."""
    if not ph and not pw:
        return a
    n, c, h, w = a.shape
    out = np.full((n, c, h + 2 * ph, w + 2 * pw), fill)
    out[:, :, ph:ph + h, pw:pw + w] = a
    return out


@functools.lru_cache(maxsize=64)
def _patch_index(c, hp, wp, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """Read-only (oh*ow, C*kh*kw) offsets of each patch in a flat (C, Hp, Wp) image."""
    taps = np.arange(c)[:, None, None] * (hp * wp) + np.arange(kh)[:, None] * wp + np.arange(kw)
    starts = np.arange(oh)[:, None] * (sh * wp) + np.arange(ow) * sw
    index = starts.reshape(-1, 1) + taps.reshape(1, -1)
    index.setflags(write=False)
    return index


def _im2col(xp: np.ndarray, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """(N, C, Hp, Wp) -> (N, oh*ow, C*kh*kw) patch matrix, columns in (C, kh, kw) order."""
    n, c, hp, wp = xp.shape
    index = _patch_index(c, hp, wp, kh, kw, sh, sw, oh, ow)
    return np.take(xp.reshape(n, -1), index, axis=1, mode="clip")  # in range: no check


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride=1, padding=0) -> Tensor:
    """Batched 2D cross-correlation of (N, Cin, H, W) with (Cout, Cin, Kh, Kw).

    The tape node keeps only the input and weight arrays of its forward, not
    the patch matrix: backward gathers it again (the same bytes, so the same
    weight gradient) and writes the patch gradients into that buffer.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise LayerError(f"conv2d expects NCHW input, got shape {x.shape}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise LayerError(
            f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise LayerError(
            f"conv2d output degenerate: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw} gives {oh}x{ow}")

    xd = x.data  # backward reads these, not x.data or weight.data changed since
    wmat = weight.data.reshape(cout, cin * kh * kw)
    needs_gx, has_bias = x.requires_grad, bias is not None  # the closure keeps no Tensor
    hp, wp = h + 2 * ph, w + 2 * pw
    out = _im2col(_pad(xd, ph, pw), kh, kw, sh, sw, oh, ow) @ wmat.T  # (N, oh*ow, Cout)
    if bias is not None:
        out = out + bias.data
    out = out.transpose(0, 2, 1).reshape(n, cout, oh, ow)

    def back(g):
        cols = _im2col(_pad(xd, ph, pw), kh, kw, sh, sw, oh, ow)  # gathered again
        gmat = g.transpose(0, 2, 3, 1).reshape(n, oh * ow, cout)
        gw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(cout, cin, kh, kw)
        gx = None  # Tensor.backward skips an input that needs no gradient
        if needs_gx:
            taps = np.matmul(gmat, wmat, out=cols).reshape(n, oh, ow, cin, kh, kw)  # patch grads
            gxp = np.zeros((n, hp, wp, cin))  # channels-last, like a row of taps
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + sh * oh:sh, j:j + sw * ow:sw] += taps[..., i, j]
            gx = np.ascontiguousarray(gxp[:, ph:ph + h, pw:pw + w].transpose(0, 3, 1, 2))
        return (gx, gw, gmat.sum(axis=(0, 1))) if has_bias else (gx, gw)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op("conv2d", out, inputs, back)


class Conv2d(Module):
    """Conv layer holding (Cout, Cin, Kh, Kw) weights and an optional bias."""

    param_names = ("weight", "bias")

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, bias=True, *, rng: SplitMix64):
        kh, kw = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.weight = _uniform_init(rng, (out_channels, in_channels, kh, kw),
                                    in_channels * kh * kw)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)


# ---------------------------------------------------------------------------
# conv1d (channel-descriptor convolution, "same" zero padding)


def conv1d_same(z: Tensor, weight: Tensor) -> Tensor:
    """Same-length 1D cross-correlation of (N, C) rows with a (1, 1, k) kernel."""
    z = as_tensor(z)
    if z.ndim != 2:
        raise LayerError(f"conv1d expects (N, C) input, got shape {z.shape}")
    k = int(weight.shape[-1])
    if k % 2 == 0:
        raise LayerError(f"conv1d kernel size must be odd, got {k}")
    pad = (k - 1) // 2
    n, c = z.shape
    wshape = weight.shape
    w = weight.data.reshape(k)
    zp = np.pad(z.data, ((0, 0), (pad, pad)))
    out = np.zeros((n, c))
    for j in range(k):
        out += w[j] * zp[:, j:j + c]

    def back(g):
        gzp = np.zeros_like(zp)
        gw = np.zeros(k)
        for j in range(k):
            gzp[:, j:j + c] += w[j] * g
            gw[j] = float((g * zp[:, j:j + c]).sum())
        gz = gzp[:, pad:pad + c] if pad else gzp
        return gz, gw.reshape(wshape)

    return apply_op("conv1d", out, (z, weight), back)


class Conv1d(Module):
    """Kernel of shape (1, 1, k), k odd, zero-padded to preserve length."""

    param_names = ("weight",)

    def __init__(self, kernel_size: int, rng: SplitMix64):
        if kernel_size % 2 == 0:
            raise LayerError(f"conv1d kernel size must be odd, got {kernel_size}")
        self.weight = _uniform_init(rng, (1, 1, kernel_size), kernel_size)

    def forward(self, z: Tensor) -> Tensor:
        return conv1d_same(z, self.weight)


# ---------------------------------------------------------------------------
# pooling


def pool2d(x: Tensor, window, stride=None, padding=0) -> Tensor:
    """Windowed max pooling over -inf padding; each window's gradient goes to
    its first maximal element in row-major scan order."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise LayerError(f"pool2d expects NCHW input, got shape {x.shape}")
    kh, kw = _pair(window)
    sh, sw = _pair(stride if stride is not None else window)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise LayerError(
            f"pool window {kh}x{kw} larger than padded input {h + 2 * ph}x{w + 2 * pw}")
    if ph >= kh or pw >= kw:
        raise LayerError("pool padding must be smaller than the window")
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1

    xd = x.data
    xp = _pad(xd, ph, pw, -np.inf)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    out = _window_max(win)

    def back(g):
        xp = _pad(xd, ph, pw, -np.inf)  # padded again: the node keeps no copy
        # each window's first argmax, as an offset into the flat (N*C, Hp, Wp) maps
        hp, wp = xp.shape[2:]
        arg = np.argmax(_im2col(xp.reshape(-1, 1, hp, wp), kh, kw, sh, sw, oh, ow), -1)
        at = _patch_index(1, hp, wp, kh, kw, sh, sw, oh, ow)[np.arange(oh * ow), arg]
        at += np.arange(n * c)[:, None] * (hp * wp)  # bincount adds in (n, c, oh, ow) order
        gxp = np.bincount(at.ravel(), weights=g.ravel(), minlength=xp.size)
        return (gxp.reshape(xp.shape)[:, :, ph:ph + h, pw:pw + w],)

    return apply_op("maxpool2d", out, (x,), back)


def _window_max(win: np.ndarray) -> np.ndarray:
    """Max of each window of an (N, C, oh, ow, kh, kw) view, taken tap by tap.

    The value is that of the window's first maximal element, as the backward
    pass routes it.  A nonzero, non-NaN maximum has one bit pattern however
    it is found; windows whose maximum is a signed zero or NaN are resolved
    through ``np.argmax``, because ``np.maximum`` may pick either zero.
    """
    kh, kw = win.shape[-2:]
    out = win[..., 0, 0].copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                np.maximum(out, win[..., i, j], out=out)
    tie = (out == 0.0) | np.isnan(out)
    if tie.any():
        cand = win[tie].reshape(-1, kh * kw)
        out[tie] = cand[np.arange(len(cand)), np.argmax(cand, axis=-1)]
    return out


# ---------------------------------------------------------------------------
# linear


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x (N, in) times weight (out, in) transposed, plus bias, as one tape node."""
    x = as_tensor(x)
    if x.ndim != 2 or weight.ndim != 2:
        raise LayerError(
            f"linear expects rank-2 input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise LayerError(f"linear inner dimensions differ: input {x.shape}, weight {weight.shape}")
    xd = x.data
    wt = np.ascontiguousarray(weight.data.T)
    out = xd @ wt
    has_bias = bias is not None
    if has_bias:
        out = out + bias.data

    def back(g):
        gx, gw = g @ wt.T, (xd.T @ g).T
        return (gx, gw, g.sum(axis=0)) if has_bias else (gx, gw)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op("linear", out, inputs, back)


class Linear(Module):
    param_names = ("weight", "bias")

    def __init__(self, in_features, out_features, bias=True, *, rng: SplitMix64):
        self.weight = _uniform_init(rng, (out_features, in_features), in_features)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# batchnorm


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics.

    Epsilon is added in the variance domain and defaults far below typical
    activation scales so normalized activations hit mean 0 / variance 1
    within 1e-6 on ordinary inputs; float64 keeps the tiny epsilon stable.

    Each forward is one ``batchnorm`` tape node over (x, gamma, beta) whose
    backward replays, op for op, the arithmetic of the same layer composed
    from primitive tensor ops, so the bytes match that primitive graph (the
    closed-form gradient would round differently).  Backward recomputes
    the normalised map by the forward's expression: in train mode the node
    keeps only its centred map, not its input; in eval mode it keeps its
    input and the running mean and scale of its forward.  Forward
    builds its output in place in one new array, and never writes into its
    input or state.
    """

    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-12):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor, mode: str = "train") -> Tensor:
        x = as_tensor(x)
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise LayerError(
                f"batchnorm expects (N, {self.channels}, H, W), got {x.shape}")
        if mode not in ("train", "eval"):
            raise LayerError(f"unknown batchnorm mode {mode!r}")
        c, xd = self.channels, x.data
        stat = (1, c, 1, 1)
        gamma = self.gamma.data.reshape(stat)

        def grads(g, normed, gx):
            return (gx, _unbroadcast(g * normed, stat).reshape(c),
                    _unbroadcast(g, stat).reshape(c))

        if mode == "train":
            if x.shape[0] < 2:
                raise LayerError("batchnorm training mode requires batch size >= 2")
            mu = xd.mean(axis=(0, 2, 3), keepdims=True)
            centered = xd - mu
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            shifted = var + self.eps
            inv = shifted ** -0.5
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu.reshape(c)
            self.running_var = (1 - m) * self.running_var + m * var.reshape(c)
            out = centered * inv
            count = float(xd.size // c)

            def back(g):
                g_normed = g * gamma
                # The primitive graph's order: _unbroadcast sums axis 0, then
                # 2, then 3, and the three terms of d(centered) add left to right.
                g_var = (_unbroadcast(g_normed * centered, stat) * -0.5) * shifted ** -1.5
                g_sq = g_var / count
                gx = (g_normed * inv + g_sq * centered) + g_sq * centered
                return grads(g, centered * inv, gx + _unbroadcast(-gx, stat) / count)
        else:
            # backward reads these arrays: a later train forward replaces the buffers
            mu = self.running_mean.reshape(stat)
            inv = ((self.running_var + self.eps) ** -0.5).reshape(stat)
            out = xd - mu
            out *= inv

            def back(g):
                normed = xd - mu
                normed *= inv
                return grads(g, normed, (g * gamma) * inv)

        out *= gamma
        out += self.beta.data.reshape(stat)
        return apply_op("batchnorm", out, (x, self.gamma, self.beta), back)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise LayerError(f"expected (N, K) logits, got shape {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = logits.shape
    if labels.shape[0] != n:
        raise LayerError(f"{labels.shape[0]} labels for {n} logit rows")
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        raise LayerError(f"label {labels[bad][0]} out of range [0, {k})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(ez.sum(axis=1)))
    loss = np.array(nll.mean())

    def back(g):
        onehot = np.zeros((n, k))
        onehot[np.arange(n), labels] = 1.0
        gs = float(np.asarray(g).reshape(-1)[0])
        return (gs * (probs - onehot) / n,)

    return apply_op("softmax_xent", loss, (logits,), back)


# ---------------------------------------------------------------------------
# optimizer


class SgdOptimizer:
    """SGD with momentum over ``named_params()`` pairs: v <- m*v + grad; p <- p - lr*v.

    The momentum buffer is updated in place (``v *= m; v += grad`` rounds as
    ``m * v + grad`` does).  Each parameter gets a new ``.data`` array, so an
    array taken from a parameter before a step keeps its values.
    """

    def __init__(self, params, lr: float, momentum: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for _, p in self.params]

    def step(self):
        for i, (name, p) in enumerate(self.params):
            if p.grad is None:
                raise LayerError(f"parameter {name!r} has no gradient; run backward first")
            v = self.velocity[i]
            v *= self.momentum  # in place, the same bits as m * v + grad
            v += p.grad
            p.data = p.data - self.lr * v  # replaced, never mutated

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None
