"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous row-major numpy array.  Operations on tensors
that require gradients record a TapeNode (op name, the producers of its
inputs, backward rule, a weak reference to its output); calling
``backward()`` on a scalar result replays the recorded graph in reverse
topological order and consumes it, so it is replayed only once.  The graph
links nodes, not tensors, so an intermediate map lives only while a caller
or a backward closure holds it.

Gradient semantics: each backward pass computes the full gradient of the
loss in a per-pass buffer and then adds it into ``.grad`` of every leaf and
of every intermediate that is still referenced, so gradients accumulate
additively across passes and across fan-out within a pass.  Callers zero
grads explicitly between optimizer steps.

Operations never change a tensor once produced; ``backward`` sets ``.grad``
and consumes nodes.  Grad mode is a ``contextvars.ContextVar``: ``no_grad``
switches tape recording off in its own thread (or asyncio task) only.
Storage is always at least rank 1, so full reductions and losses have shape (1,).
"""

from __future__ import annotations

import contextvars
import math
import weakref

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes cannot be combined."""


class AutodiffError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, empty or consumed tape)."""


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager disabling tape recording (e.g. bulk evaluation)."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def broadcast_shape(a: tuple, b: tuple) -> tuple:
    """numpy's broadcast of two shapes; a ShapeError names both."""
    try:
        return np.broadcast_shapes(tuple(a), tuple(b))
    except ValueError:
        raise ShapeError(f"cannot broadcast shape {tuple(a)} with {tuple(b)}") from None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class TapeNode:
    """One recorded differentiable operation.

    ``inputs`` holds, per input, its producer node, the input itself if it
    is a requires-grad leaf, or None.  ``backward`` maps the output gradient
    to a tuple of input gradients (numpy arrays, or None for inputs that
    need none); the arrays it reads live in its closure.  ``out`` weakly
    references the output tensor.  Backward consumes a node by setting
    ``backward`` to None and ``inputs`` to ().
    """

    __slots__ = ("op", "inputs", "backward", "out")

    def __init__(self, op: str, inputs: tuple, backward, out: "Tensor"):
        self.op = op
        self.inputs = inputs
        self.backward = backward
        self.out = weakref.ref(out)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _binary("add", self, other, lambda a, b: a + b, lambda g: (g, g))

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        sd, od = self.data, other.data  # mul keeps its operands; add, their shapes
        return _binary("mul", self, other, lambda a, b: a * b, lambda g: (g * od, g * sd))

    __rmul__ = __mul__

    # -- shape ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return apply_op("reshape", self.data.reshape(shape), (self,),
                        lambda g: (g.reshape(old),))

    # -- reductions ----------------------------------------------------

    def sum(self, axes=None, keepdims: bool = False) -> "Tensor":
        axes = _check_axes(axes, self.ndim)
        shape = self.shape

        def back(g):
            return (_expand_reduced(g, shape, axes),)

        return apply_op("sum", self.data.sum(axis=axes, keepdims=keepdims),
                        (self,), back)

    def mean(self, axes=None, keepdims: bool = False) -> "Tensor":
        axes = _check_axes(axes, self.ndim)
        shape = self.shape
        count = _reduced_count(shape, axes)

        def back(g):  # divided before it is broadcast: the same bits, count times fewer divisions
            return (_expand_reduced(g / count, shape, axes),)

        return apply_op("mean", self.data.mean(axis=axes, keepdims=keepdims),
                        (self,), back)

    def max(self, axes=None, keepdims: bool = False) -> "Tensor":
        # ties route the whole gradient to the first maximal element in
        # row-major scan order, keeping backward deterministic
        axes = _check_axes(axes, self.ndim)
        shape = self.shape
        axes_t = tuple(range(self.ndim)) if axes is None else axes
        kept = tuple(i for i in range(self.ndim) if i not in axes_t)
        perm = kept + axes_t
        red = math.prod(shape[i] for i in axes_t)
        moved = self.data.transpose(perm).reshape(
            tuple(shape[i] for i in kept) + (red,))
        # first maximal element per reduced slice, in row-major scan order
        arg = np.argmax(moved, axis=-1)
        out = np.take_along_axis(moved, arg[..., None], axis=-1)[..., 0]

        def back(g):  # keeps the argmax, not the input it was taken from
            gm = np.zeros(arg.size * red)
            gm[np.arange(arg.size) * red + arg.reshape(-1)] = g.reshape(-1)
            gx = gm.reshape(tuple(shape[i] for i in perm)).transpose(np.argsort(perm))
            return (gx,)

        if keepdims:
            out = out.reshape(tuple(1 if i in axes_t else shape[i] for i in range(self.ndim)))
        return apply_op("max", out, (self,), back)

    # -- autodiff --------------------------------------------------------

    def backward(self):
        """Populate ``.grad`` on every requires-grad leaf reachable from here,
        and on every intermediate of the graph that is still referenced.

        The loss must be a scalar produced by at least one recorded op.  The
        pass consumes each node once its backward has run, freeing saved
        arrays and intermediate gradients as it moves toward the inputs.  A
        later pass that reaches a consumed node (the same loss again, or
        another loss on a shared intermediate) raises ``AutodiffError``
        before any ``.grad`` changes.
        """
        if self.size != 1:
            raise AutodiffError(
                f"backward requires a scalar loss, got shape {self.shape}")
        if self.node is None:
            raise AutodiffError("backward on a tensor with no recorded operations")

        # Vertices are nodes and requires-grad leaves (Tensors, which have no inputs).
        topo: list = []
        seen = set()
        stack: list = [(self.node, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                topo.append(v)
                continue
            if id(v) in seen:
                continue
            inputs = ()
            if isinstance(v, TapeNode):
                if v.backward is None:
                    raise AutodiffError("backward through a graph an earlier backward() consumed")
                inputs = v.inputs
            seen.add(id(v))
            stack.append((v, True))
            for inp in inputs:
                if inp is not None and id(inp) not in seen:
                    stack.append((inp, False))

        # Keys are ids: a vertex with a pending gradient is not yet popped
        # from ``topo``, which keeps it alive and so its id unique.
        passes: dict[int, np.ndarray] = {id(self.node): np.ones_like(self.data)}
        while topo:
            v = topo.pop()
            g = passes.pop(id(v), None)
            if g is None:
                continue
            t = v if isinstance(v, Tensor) else v.out()
            if t is not None:
                t.grad = g if t.grad is None else t.grad + g
            if t is v:
                continue
            inputs, back = v.inputs, v.backward
            v.inputs, v.backward = (), None
            for inp, gin in zip(inputs, back(g)):
                if gin is None or inp is None:
                    continue
                key = id(inp)
                passes[key] = gin if key not in passes else passes[key] + gin


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def apply_op(op: str, data: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap an op result, recording a TapeNode when gradients are live.

    ``backward(g)`` must return per-input gradient arrays aligned with
    ``inputs`` (None allowed for inputs that need no gradient).
    """
    out = Tensor(data)
    if _grad_enabled.get() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = TapeNode(op, tuple(_producer(t) for t in inputs), backward, out)
    return out


def _producer(t: Tensor):
    """What a node links for input ``t``: its node, the leaf itself, or None."""
    return (t if t.node is None else t.node) if t.requires_grad else None


def _binary(op, a, b, fwd, bwd) -> Tensor:
    """``fwd(a.data, b.data)``; ``bwd(g)`` gives both gradients before unbroadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        broadcast_shape(sa, sb)  # raises ShapeError naming both shapes
        raise

    def back(g):
        ga, gb = bwd(g)
        return _unbroadcast(ga, sa), _unbroadcast(gb, sb)

    return apply_op(op, data, (a, b), back)


def _check_axes(axes, rank):
    """Normalize a reduction axis spec; None means all axes."""
    if axes is None:
        return None
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    axes = tuple(int(a) for a in axes)
    norm = []
    for a in axes:
        if not -rank <= a < rank:
            raise ShapeError(f"axis {a} invalid for rank-{rank} tensor")
        norm.append(a % rank)
    if len(set(norm)) != len(norm):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return tuple(sorted(norm))


def _reduced_count(shape, axes) -> float:
    return float(math.prod(shape if axes is None else [shape[a] for a in axes]))


def _expand_reduced(g, shape, axes) -> np.ndarray:
    """Broadcast a reduced gradient, in its keepdims shape, over the reduced extents."""
    kept = tuple(1 if axes is None or i in axes else d for i, d in enumerate(shape))
    out = np.empty(shape)
    out[...] = g.reshape(kept)  # assigned, not added to zeros: -0.0 stays -0.0
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0); backward masks by ``out > 0``, which equals ``x > 0`` (also
    for signed zeros and NaN), so the node keeps its output, not its input."""
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    return apply_op("relu", out, (x,), lambda g: (g * (out > 0.0),))


# Smallest/largest doubles inside the open interval (0, 1): finite inputs
# saturate the exponential, so clamp keeps the gate contract strict.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, _SIG_LO, _SIG_HI, out=out)
    return apply_op("sigmoid", out, (x,), lambda g: (g * out * (1.0 - out),))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along an axis; backward splits the gradient."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    axis = axis % tensors[0].ndim
    sizes = [t.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def back(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return apply_op("concat", data, tuple(tensors), back)
