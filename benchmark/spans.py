"""Span tracing of attnatr's layers from outside the package.

Nothing under ``src/`` is edited.  A :class:`Tracer` looks up each target
function or method, and while a traced part of an operation runs it replaces
every module-level reference to the target with a timing wrapper; afterwards
the originals are put back, so untraced parts run the program unchanged.

Each span records its name, the operation it belongs to, a step number inside
that operation (it advances at every model forward, so the spans of one train
step or eval batch share it), its parent span, start and end.  Self time is a
span's duration minus the time covered by its child spans.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# (owner, attribute, span name).  The owner is a module, or "module:Class" for
# a method.  ``layers.batchnorm`` is suffixed with the mode of each call.
TARGETS = (
    ("attnatr.tensor:Tensor", "backward", "tensor.backward"),
    ("attnatr.layers", "conv2d", "layers.conv2d"),
    ("attnatr.layers", "pool2d", "layers.pool2d"),
    ("attnatr.layers:BatchNorm2d", "forward", "layers.batchnorm"),
    ("attnatr.layers", "linear", "layers.linear"),
    ("attnatr.layers", "conv1d_same", "layers.conv1d_same"),
    ("attnatr.layers", "softmax_cross_entropy", "layers.softmax_cross_entropy"),
    ("attnatr.layers:SgdOptimizer", "step", "layers.sgd_step"),
    ("attnatr.attention:SeBlock", "forward", "attention.se"),
    ("attnatr.attention:EcaBlock", "forward", "attention.eca"),
    ("attnatr.attention:CbamBlock", "channel_attention", "attention.cbam.channel"),
    ("attnatr.attention:CbamBlock", "spatial_attention", "attention.cbam.spatial"),
    ("attnatr.backbone", "build_resnet18", "backbone.build"),
    ("attnatr.backbone:ResNet", "forward", "backbone.forward"),
    ("attnatr.backbone:BasicBlock", "forward", "backbone.block"),
    ("attnatr.explain", "gradcam_map", "explain.gradcam_map"),
    ("attnatr.data", "synth_dataset", "data.synth_dataset"),
    ("attnatr.checkpoint", "dump_tensors", "checkpoint.dump_tensors"),
    ("attnatr.checkpoint", "parse_tensors", "checkpoint.parse_tensors"),
    ("attnatr.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("attnatr.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("attnatr.rng:SplitMix64", "permutation", "rng.permutation"),
    ("attnatr.rng:SplitMix64", "uniform", "rng.uniform"),
    ("attnatr.rng:SplitMix64", "gaussian", "rng.gaussian"),
    ("attnatr.harness", "train_model", "harness.train_model"),
    ("attnatr.harness", "top1_accuracy", "harness.top1_accuracy"),
    ("attnatr.harness", "perturb_dataset", "harness.perturb_dataset"),
    ("attnatr.harness", "save_model", "harness.save_model"),
    ("attnatr.harness", "load_model", "harness.load_model"),
)

# Tape op kinds a node can record; backward spans are named after them.
OP_KINDS = ("conv2d", "mul", "add", "sub", "mean", "pow", "reshape", "transpose",
            "relu", "sigmoid", "maxpool2d", "avgpool2d", "max", "concat",
            "matmul", "conv1d", "softmax_xent", "sum")

# Checkpoint bytes serialized or parsed, counted from each call's result or input.
_BYTES_OF = {"checkpoint.dump_tensors": lambda args, out: len(out),
             "checkpoint.parse_tensors": lambda args, out: len(args[0])}

FORWARD = "backbone.forward"
ROOT = "op."  # prefix of the span that covers one timed part of an operation
RECORD = 8    # values stored per span


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


def bind_everywhere(owner: str, attr: str) -> list:
    """Every (namespace object, name) that refers to ``owner.attr``.

    Modules bind imported names at import time (``from .layers import
    conv2d``), so a function is replaced in every attnatr module that holds
    it, not only where it is defined.
    """
    home = _resolve(owner)
    target = getattr(home, attr)
    if ":" in owner:
        return [(home, attr, target)]
    places = []
    for name, module in list(sys.modules.items()):
        if name == "attnatr" or name.startswith("attnatr."):
            for key, value in vars(module).items():
                if value is target:
                    places.append((module, key, target))
    return places


class Patch:
    """A set of attribute replacements that can be applied and undone."""

    def __init__(self):
        self._items = []  # (holder, name, original, replacement)

    def add(self, owner: str, attr: str, make_wrapper):
        places = bind_everywhere(owner, attr)
        wrapper = make_wrapper(places[0][2])
        self._items += [(holder, key, orig, wrapper) for holder, key, orig in places]

    def apply(self):
        for holder, key, _, wrapper in self._items:
            setattr(holder, key, wrapper)

    def undo(self):
        for holder, key, orig, _ in self._items:
            setattr(holder, key, orig)


class Tracer:
    """Records spans and counters while its patch is applied."""

    def __init__(self):
        # Spans are packed into a flat array of doubles: 64 bytes a span, and
        # no objects for the garbage collector to scan as the trace grows.
        self._data = array("d")  # RECORD values per span, in closing order
        self._names: dict = {}   # span name -> number stored in the array
        self._next = 0
        self.counts: Counter = Counter()  # (op, name) -> count
        self.op = -1
        self.step = 0
        self._stack: list = []  # frames of the open spans, innermost last
        self.patch = Patch()
        for owner, attr, name in TARGETS:
            self.patch.add(owner, attr, lambda fn, name=name: self._span(name, fn))
        self.patch.add("attnatr.tensor", "apply_op", self._count_nodes)

    def _name_id(self, label: str) -> int:
        number = self._names.get(label)
        if number is None:
            number = self._names[label] = len(self._names)
        return number

    def _open(self) -> list:
        """Start a span: [start, child seconds, span index, parent index]."""
        index = self._next
        self._next += 1
        frame = [time.perf_counter(), 0.0, index, self._stack[-1][2] if self._stack else -1]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name_id: int):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        self._data.extend((frame[2], name_id, self.op, self.step, frame[3], frame[0], end,
                           dur - frame[1]))

    def spans(self):
        """Yield (index, name, op, step, parent, start, end, self_s) per span."""
        labels = {number: label for label, number in self._names.items()}
        data = self._data
        for i in range(0, len(data), RECORD):
            index, name, op, step, parent, start, end, self_s = data[i:i + RECORD]
            yield (int(index), labels[int(name)], int(op), int(step), int(parent),
                   start, end, self_s)

    def _span(self, name: str, fn):
        name_id = self._name_id(name)
        modes = ({mode: self._name_id(f"{name}.{mode}") for mode in ("train", "eval")}
                 if name == "layers.batchnorm" else None)
        is_forward = name == FORWARD
        bytes_of = _BYTES_OF.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            label = name_id
            if modes is not None:
                label = modes[args[2] if len(args) > 2 else kwargs.get("mode", "train")]
            elif is_forward:
                self.step += 1
            frame = open_()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(frame, label)
            if bytes_of is not None:
                self.counts[self.op, "checkpoint.bytes"] += bytes_of(args, out)
            return out

        return traced

    def _count_nodes(self, apply_op):
        counts, span = self.counts, self._span

        def traced_apply_op(op, data, inputs, backward):
            out = apply_op(op, data, inputs, backward)
            node = out.node
            if node is not None:
                counts[self.op, "tensor.nodes"] += 1
                counts[self.op, "tensor.nodes." + op] += 1
                node.backward = span("tensor.backward." + op, node.backward)
            return out

        return traced_apply_op

    @contextmanager
    def part(self, op: int, kind: str):
        """Trace one timed part of operation ``op`` under a root span."""
        self.op, self.step = op, 0
        self.patch.apply()
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, self._name_id(ROOT + kind))
            self.patch.undo()

    def summary(self, ops: set) -> dict:
        """Per-layer calls, total_s and self_s per operation, over ``ops``.

        Node counts are per backward pass (one per train step or Grad-CAM
        map); ``checkpoint.bytes`` is per operation.
        """
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for _, name, op, _, _, start, end, self_s in self.spans():
            if op in ops:
                calls[name] += 1
                total[name] += end - start
                own[name] += self_s
        per_op = max(1, len(ops))
        passes = max(1, calls["tensor.backward"])
        layers = {name: {"calls": calls[name] / per_op, "total_s": total[name] / per_op,
                         "self_s": own[name] / per_op}
                  for name in sorted(calls) if not name.startswith(ROOT)}
        summed = Counter()
        for (op, name), n in self.counts.items():
            if op in ops:
                summed[name] += n
        counts = {name: n / (passes if name.startswith("tensor.nodes") else per_op)
                  for name, n in sorted(summed.items())}
        return {"layers": layers, "counts": counts, "operations": len(ops),
                "backward_passes": calls["tensor.backward"]}

    def closure(self, ops: set) -> dict:
        """Share of the time of ``ops`` that layer self times cover.

        A root span covers one timed part; its own self time is the time no
        layer span accounts for (benchmark glue and unwrapped code).
        """
        root_total, root_self = defaultdict(float), defaultdict(float)
        for _, _, op, _, parent, start, end, self_s in self.spans():
            if parent == -1 and op in ops:
                root_total[op] += end - start
                root_self[op] += self_s
        ratios = [1.0 - root_self[op] / root_total[op] for op in root_total]
        total = sum(root_total.values())
        return {"ops": len(ratios),
                "overall": 1.0 - sum(root_self.values()) / total if total else 0.0,
                "min": min(ratios, default=0.0)}

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\top\tstep\tparent\tstart\tend\tself_s\n")
            for index, name, op, step, parent, start, end, self_s in sorted(self.spans()):
                fh.write(f"{index}\t{name}\t{op}\t{step}\t{parent}\t{start:.9f}\t{end:.9f}"
                         f"\t{self_s:.9f}\n")
