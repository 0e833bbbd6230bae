"""Channel and spatial attention blocks: SE, ECA, and CBAM.

Each block maps an (N, C, H, W) feature map to a refined map of the same
shape by multiplying sigmoid gates onto channels and/or pixels.  Gates are
strictly inside (0, 1), so every block is a contraction in max-abs norm.
Forward is a pure function of (weights, input); concurrent forward calls on
one block are safe.
"""

from __future__ import annotations

import math

from .layers import Conv1d, Conv2d, LayerError, Linear, Module
from .rng import SplitMix64
from .tensor import Tensor, concat, relu, sigmoid


def _gate_channels(block, u: Tensor):
    """Gate u's channels by the sigmoid of ``block.excite(u)``, which pools
    each channel of u over the map into (N, C) descriptors and maps them to
    (N, C) logits.

    Returns (gates (N, C, 1, 1), gated map).
    """
    if u.ndim != 4 or u.shape[1] != block.channels:
        raise LayerError(
            f"{type(block).__name__} built for {block.channels} channels, "
            f"got input shape {u.shape}")
    gates = sigmoid(block.excite(u)).reshape(u.shape[0], u.shape[1], 1, 1)
    return gates, gates * u


class SeBlock(Module):
    """Squeeze-and-excitation: global average pool, bottleneck MLP, channel gates.

    The two fully connected stages carry no biases; the bottleneck width is
    max(1, C // r).
    """

    def __init__(self, channels: int, reduction: int, rng: SplitMix64):
        hidden = max(1, channels // reduction)
        self.channels = channels
        self.fc1 = Linear(channels, hidden, bias=False, rng=rng.split("fc1"))
        self.fc2 = Linear(hidden, channels, bias=False, rng=rng.split("fc2"))

    def _mlp(self, d: Tensor) -> Tensor:
        return self.fc2.forward(relu(self.fc1.forward(d)))

    def excite(self, u: Tensor) -> Tensor:
        return self._mlp(u.mean(axes=(2, 3)))

    def forward(self, u: Tensor) -> Tensor:
        return _gate_channels(self, u)[1]

    def children(self):
        return (("0", self.fc1), ("1", self.fc2))


def eca_kernel_size(channels: int, gamma: int) -> int:
    """Adaptive 1D kernel size: ceil(C / gamma), bumped to the next odd value.

    The ceiling rule can land on an even width; same-length padding needs an
    odd kernel, so even results are incremented by one.
    """
    if channels < 1 or gamma < 1:
        raise LayerError(f"need channels >= 1 and gamma >= 1, got {channels}, {gamma}")
    k = math.ceil(channels / gamma)
    if k % 2 == 0:
        k += 1
    return k


class EcaBlock(Module):
    """Efficient channel attention: pooled descriptor, 1D conv, channel gates."""

    def __init__(self, channels: int, gamma: int, rng: SplitMix64):
        self.channels = channels
        self.kernel_size = eca_kernel_size(channels, gamma)
        self.conv = Conv1d(self.kernel_size, rng.split("conv"))

    def excite(self, u: Tensor) -> Tensor:
        return self.conv.forward(u.mean(axes=(2, 3)))

    def forward(self, u: Tensor) -> Tensor:
        return _gate_channels(self, u)[1]

    def children(self):
        return (("0", self.conv),)


class CbamBlock(SeBlock):
    """Convolutional block attention: a channel pass then a spatial pass.

    The channel pass feeds average- and max-pooled descriptors through SE's
    bias-free bottleneck MLP and gates channels with the sigmoid of their sum.
    The spatial pass stacks the per-pixel channel mean and max into a
    two-plane map, convolves it down to one plane, and gates pixels.
    """

    def __init__(self, channels: int, reduction: int, spatial_kernel: int, rng: SplitMix64):
        if spatial_kernel % 2 == 0:
            raise LayerError(f"spatial kernel must be odd, got {spatial_kernel}")
        super().__init__(channels, reduction, rng)
        self.spatial = Conv2d(2, 1, spatial_kernel, stride=1,
                              padding=(spatial_kernel - 1) // 2, bias=False,
                              rng=rng.split("spatial"))

    def excite(self, f: Tensor) -> Tensor:
        return self._mlp(f.mean(axes=(2, 3))) + self._mlp(f.max(axes=(2, 3)))

    def channel_attention(self, f: Tensor):
        """Return (gates (N, C, 1, 1), gated map)."""
        return _gate_channels(self, f)

    def spatial_attention(self, f_c: Tensor):
        """Return (gates (N, 1, H, W), gated map)."""
        stats = concat([f_c.mean(axes=1, keepdims=True),
                        f_c.max(axes=1, keepdims=True)], axis=1)
        m_s = sigmoid(self.spatial.forward(stats))
        return m_s, m_s * f_c

    def forward(self, f: Tensor) -> Tensor:
        _, f_c = self.channel_attention(f)
        _, f_s = self.spatial_attention(f_c)
        return f_s

    def children(self):
        return super().children() + (("2", self.spatial),)


# kind -> block built from a ModelConfig's hyperparameters, a width and a stream
_BLOCKS = {
    "se": lambda cfg, channels, rng: SeBlock(channels, cfg.reduction, rng),
    "eca": lambda cfg, channels, rng: EcaBlock(channels, cfg.eca_gamma, rng),
    "cbam": lambda cfg, channels, rng: CbamBlock(channels, cfg.reduction,
                                                 cfg.spatial_kernel, rng),
}
ATTENTION_KINDS = ("none", *_BLOCKS)


def make_attention(cfg, channels: int, rng: SplitMix64):
    """The ``cfg.attention`` block of a validated ModelConfig, or None for "none"."""
    return None if cfg.attention == "none" else _BLOCKS[cfg.attention](cfg, channels, rng)
