"""ResNet-18-style classifier with pluggable attention blocks.

Two insertion modes are supported, selected per model:

  in_block      - the conventional placement: the attention block refines the
                  residual branch of every basic block before the skip
                  addition, out = relu(skip(x) + att(branch(x))).
  residual_wrap - the literal residual form y = out + att(out) applied to
                  each basic block's output.

The stem is a 7x7 stride-2 convolution from the (single) input channel
followed by a 3x3 stride-2 max pool, then four stages of two basic blocks
each, global average pooling, and a linear head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .attention import ATTENTION_KINDS, make_attention
from .config import ConfigFileError
from .layers import BatchNorm2d, Conv2d, LayerError, Linear, Module, pool2d
from .rng import SplitMix64, ZeroStream
from .tensor import Tensor, no_grad, relu

INSERTION_MODES = ("in_block", "residual_wrap")


@dataclass
class ModelConfig:
    input_size: int = 128
    num_classes: int = 10
    stage_widths: tuple = (64, 128, 256, 512)
    blocks_per_stage: int = 2
    attention: str = "none"
    insertion: str = "in_block"
    reduction: int = 16
    eca_gamma: int = 16
    spatial_kernel: int = 7

    def validate(self):
        bad = []
        if self.input_size < 32:
            bad.append(f"input_size={self.input_size} (need >= 32)")
        if self.num_classes < 2:
            bad.append(f"num_classes={self.num_classes} (need >= 2)")
        if not 1 <= len(self.stage_widths) <= 4 or any(w < 1 for w in self.stage_widths):
            bad.append(f"stage_widths={self.stage_widths} (need 1-4 positive widths)")
        if self.blocks_per_stage < 1:
            bad.append(f"blocks_per_stage={self.blocks_per_stage} (need >= 1)")
        if self.attention not in ATTENTION_KINDS:
            bad.append(f"attention={self.attention!r} (one of {ATTENTION_KINDS})")
        if self.insertion not in INSERTION_MODES:
            bad.append(f"insertion={self.insertion!r} (one of {INSERTION_MODES})")
        if self.reduction < 1:
            bad.append(f"reduction={self.reduction} (need >= 1)")
        if self.eca_gamma < 1:
            bad.append(f"eca_gamma={self.eca_gamma} (need >= 1)")
        if self.spatial_kernel < 1 or self.spatial_kernel % 2 == 0:
            bad.append(f"spatial_kernel={self.spatial_kernel} (need odd >= 1)")
        if bad:
            raise ConfigFileError("invalid model config: " + "; ".join(bad))
        return self


def desk_config(attention: str = "none", **overrides) -> ModelConfig:
    """Reduced configuration sized for desk-scale training and tests."""
    cfg = ModelConfig(input_size=32, num_classes=3, stage_widths=(4, 8, 16, 32),
                      attention=attention)
    return replace(cfg, **overrides) if overrides else cfg


class BasicBlock(Module):
    """Two 3x3 conv+bn stages with a skip path and optional attention."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, cfg: ModelConfig,
                 rng: SplitMix64):
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1,
                            bias=False, rng=rng.split("conv1"))
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, stride=1, padding=1,
                            bias=False, rng=rng.split("conv2"))
        self.bn2 = BatchNorm2d(out_ch)
        self.downsample = None
        if stride != 1 or in_ch != out_ch:
            self.downsample = (
                Conv2d(in_ch, out_ch, 1, stride=stride, bias=False,
                       rng=rng.split("down")),
                BatchNorm2d(out_ch),
            )
        self.att = make_attention(cfg, out_ch, rng.split("att"))
        self.insertion = cfg.insertion

    def forward(self, x: Tensor, mode: str) -> Tensor:
        out = relu(self.bn1.forward(self.conv1.forward(x), mode))
        out = self.bn2.forward(self.conv2.forward(out), mode)
        if self.downsample is not None:
            conv, bn = self.downsample
            skip = bn.forward(conv.forward(x), mode)
        else:
            skip = x
        if self.att is not None and self.insertion == "in_block":
            out = self.att.forward(out)
        y = relu(out + skip)
        if self.att is not None and self.insertion == "residual_wrap":
            y = y + self.att.forward(y)
        return y

    def children(self):
        down_conv, down_bn = self.downsample or (None, None)
        return (("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2),
                ("bn2", self.bn2), ("downsample.conv", down_conv),
                ("downsample.bn", down_bn), ("att", self.att))


class ResNet(Module):
    """The assembled classifier; build via :func:`build_resnet18`."""

    def __init__(self, cfg: ModelConfig, seed: int, init: bool = True):
        cfg.validate()
        self.cfg = cfg
        self.seed = seed
        rng = SplitMix64(seed) if init else ZeroStream()
        w = cfg.stage_widths
        self.stem_conv = Conv2d(1, w[0], 7, stride=2, padding=3,
                                bias=False, rng=rng.split("stem"))
        self.stem_bn = BatchNorm2d(w[0])
        self.stages: list[list[BasicBlock]] = []
        in_ch = w[0]
        for s, width in enumerate(w):
            blocks = []
            for b in range(cfg.blocks_per_stage):
                stride = 2 if (s > 0 and b == 0) else 1
                blocks.append(BasicBlock(in_ch, width, stride, cfg,
                                         rng.split(f"stage{s + 1}", str(b))))
                in_ch = width
            self.stages.append(blocks)
        self.head = Linear(w[-1], cfg.num_classes, bias=True, rng=rng.split("head"))

    # -- forward --------------------------------------------------------

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Logits of an (N, 1, size, size) batch.  An eval forward only reads
        the model, so concurrent eval forwards on one model are safe; a
        train forward updates batchnorm running statistics and needs
        exclusive access."""
        return self._head(_run(self._steps(), self._checked(x), mode))

    def feature_layers(self) -> list[str]:
        """Names usable as Grad-CAM capture points, shallow to deep."""
        return [name for name, _ in self._steps()]

    def forward_capture(self, x: Tensor, layer_name: str):
        """Eval-mode forward returning (logits, captured feature tensor).

        Everything up to and including ``layer_name`` runs without a tape;
        the captured map is a fresh leaf, so ``backward()`` from the logits
        stops there and fills only its ``.grad`` and those of the parameters
        after it.  Parameters before the capture point receive no gradient.
        """
        steps = self._steps()
        names = [name for name, _ in steps]
        if layer_name not in names:
            raise LayerError(f"unknown layer {layer_name!r}; choose from {names}")
        cut = names.index(layer_name) + 1
        x = self._checked(x)
        with no_grad():
            h = _run(steps[:cut], x, "eval")
        acts = Tensor(h.data, requires_grad=True)
        return self._head(_run(steps[cut:], acts, "eval")), acts

    def _checked(self, x: Tensor) -> Tensor:
        size = self.cfg.input_size
        if x.ndim != 4 or x.shape[1:] != (1, size, size):
            raise LayerError(f"model expects (N, 1, {size}, {size}) input, got {x.shape}")
        return x

    def _stem(self, x: Tensor, mode: str) -> Tensor:
        h = relu(self.stem_bn.forward(self.stem_conv.forward(x), mode))
        return pool2d(h, window=3, stride=2, padding=1)

    def _head(self, h: Tensor) -> Tensor:
        return self.head.forward(h.mean(axes=(2, 3)))

    def _steps(self):
        """(name, forward) for the stem, then each block in order."""
        return [("stem", self._stem),
                *((name, block.forward) for name, block in self._named_blocks())]

    # -- checkpoint names -------------------------------------------------

    def _named_blocks(self):
        return [(f"stage{s + 1}.{b}", block)
                for s, blocks in enumerate(self.stages) for b, block in enumerate(blocks)]

    def children(self):
        return [("stem.conv", self.stem_conv), ("stem.bn", self.stem_bn),
                *self._named_blocks(), ("head", self.head)]


def _run(steps, h: Tensor, mode: str) -> Tensor:
    for _, step in steps:
        h = step(h, mode)
    return h


def build_resnet18(cfg: ModelConfig, seed: int, init: bool = True) -> ResNet:
    """Validate the config and build a model initialized from ``seed``, or
    with ``init=False`` a zero one that draws nothing, for a caller that loads every value."""
    return ResNet(cfg, seed, init)
