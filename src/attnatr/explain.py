"""Grad-CAM saliency maps and heatmap overlays.

A saliency map is built from a chosen convolutional feature map: backpropagate
the target-class logit, weight each channel by the spatial mean of its
gradient, sum, clip negatives, bilinear-upsample to the input extent, and
min-max normalize into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


class ExplainError(ValueError):
    """Raised on invalid Grad-CAM requests."""


@dataclass
class SaliencyMap:
    values: np.ndarray  # (H, W) in [0, 1]
    layer: str
    target_class: int


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centered bilinear interpolation of a 2D array."""
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def _normalize(raw: np.ndarray) -> np.ndarray:
    lo, hi = raw.min(), raw.max()
    if hi == 0.0:
        return np.zeros_like(raw)
    if hi == lo:
        return np.ones_like(raw)
    return (raw - lo) / (hi - lo)


def gradcam_map(model, image, target_class: int, layer_name: str | None = None) -> SaliencyMap:
    """Grad-CAM saliency of ``target_class`` at ``layer_name`` for one image.

    The model must expose ``forward_capture(x, layer) -> (logits, activation)``
    running in eval mode with a tape from the activation to the logits.  The
    activation is a leaf and only its gradient is read: parameters after the
    capture point still receive ``.grad``, parameters before it do not.
    ``layer_name`` defaults to the deepest feature layer.
    """
    if layer_name is None:
        layer_name = model.feature_layers()[-1]
    x = image if isinstance(image, Tensor) else Tensor(image)
    if x.ndim == 2:
        x = x.reshape(1, 1, *x.shape)
    logits, acts = model.forward_capture(x, layer_name)
    k = logits.shape[1]
    if not 0 <= target_class < k:
        raise ExplainError(f"target class {target_class} out of range [0, {k})")

    onehot = np.zeros(logits.shape)
    onehot[0, target_class] = 1.0
    (logits * Tensor(onehot)).sum().backward()

    a = acts.data[0]       # (C, h, w)
    g = acts.grad[0]
    alpha = g.mean(axis=(1, 2))
    raw = np.maximum((alpha[:, None, None] * a).sum(axis=0), 0.0)
    up = bilinear_resize(raw, x.shape[2], x.shape[3])
    return SaliencyMap(_normalize(up), layer_name, target_class)


# Piecewise-linear heat colormap anchored at blue (0), green (0.5), red (1).
def heat_colormap(values: np.ndarray) -> np.ndarray:
    """Map [0, 1] values to (..., 3) RGB in [0, 255]."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    lo = v < 0.5
    t = np.where(lo, v * 2.0, (v - 0.5) * 2.0)
    r = np.where(lo, 0.0, t) * 255.0
    g = np.where(lo, t, 1.0 - t) * 255.0
    b = np.where(lo, 1.0 - t, 0.0) * 255.0
    return np.stack([r, g, b], axis=-1)


def overlay_heatmap(base: np.ndarray, smap: SaliencyMap, alpha: float = 0.5) -> np.ndarray:
    """Blend a grayscale [0, 1] image with the colormapped saliency map.

    Returns an (H, W, 3) float array in [0, 255]; alpha 0 reproduces the
    grayscale image replicated across channels.
    """
    base = np.asarray(base, dtype=np.float64)
    if base.shape != smap.values.shape:
        raise ExplainError(
            f"image extent {base.shape} does not match map extent {smap.values.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ExplainError(f"alpha must be in [0, 1], got {alpha}")
    gray = np.repeat((base * 255.0)[:, :, None], 3, axis=2)
    return (1.0 - alpha) * gray + alpha * heat_colormap(smap.values)
