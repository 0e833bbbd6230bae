import numpy as np
import pytest

from attnatr.attention import ATTENTION_KINDS
from attnatr.backbone import INSERTION_MODES, ModelConfig, build_resnet18, desk_config
from attnatr.explain import (ExplainError, SaliencyMap, bilinear_resize,
                             gradcam_map, heat_colormap, overlay_heatmap)
from attnatr.layers import conv2d, linear
from attnatr.tensor import Tensor, relu
from helpers import gradcam_reference


class StubConvModel:
    """One conv feature layer, then a per-channel positive spatial-average head."""

    def __init__(self, conv_w, head_w, use_relu=True):
        self.conv_w = Tensor(conv_w, requires_grad=True)
        self.head_w = Tensor(head_w, requires_grad=True)  # (K, C)
        self.use_relu = use_relu

    def feature_layers(self):
        return ["feat"]

    def forward_capture(self, x, layer_name):
        if layer_name != "feat":
            raise ValueError(f"unknown layer {layer_name!r}")
        acts = conv2d(x, self.conv_w, None, stride=1, padding=1)
        if self.use_relu:
            acts = relu(acts)
        return linear(acts.mean(axes=(2, 3)), self.head_w), acts


def gray_image(seed=0, size=8):
    return np.random.default_rng(seed).uniform(0.1, 1.0, size=(1, 1, size, size))


# ---------------------------------------------------------------------------
# gradcam contracts


def test_zero_activation_layer_gives_zero_map():
    model = StubConvModel(np.zeros((3, 1, 3, 3)), np.ones((2, 3)))
    smap = gradcam_map(model, gray_image(1), target_class=0, layer_name="feat")
    assert np.all(smap.values == 0.0)


def test_single_channel_positive_head_recovers_activation_plane():
    # with one non-negative channel and a positive spatial-average head, the
    # channel weight is a positive constant, so the map is the normalized plane
    rng = np.random.default_rng(2)
    model = StubConvModel(rng.normal(size=(1, 1, 3, 3)), np.array([[2.5]]))
    image = gray_image(3)
    smap = gradcam_map(model, image, target_class=0, layer_name="feat")

    acts = conv2d(Tensor(image), model.conv_w, None, padding=1)
    plane = np.maximum(acts.data[0, 0], 0.0)
    want = (plane - plane.min()) / (plane.max() - plane.min())
    assert np.abs(smap.values - want).max() < 1e-12


def test_map_values_normalized():
    model = build_resnet18(desk_config("cbam"), seed=4)
    image = np.random.default_rng(5).uniform(size=(1, 1, 32, 32))
    smap = gradcam_map(model, image, target_class=1, layer_name="stage3.1")
    assert smap.values.shape == (32, 32)
    assert smap.values.min() >= 0.0 and smap.values.max() <= 1.0
    assert smap.values.max() == 1.0 or np.all(smap.values == 0.0)


def test_head_scaling_invariance():
    model = build_resnet18(desk_config(), seed=6)
    image = np.random.default_rng(7).uniform(size=(1, 1, 32, 32))
    base = gradcam_map(model, image, target_class=2, layer_name="stage3.1")
    model.head.weight.data[2] *= 7.3  # positive rescale of the target row
    scaled = gradcam_map(model, image, target_class=2, layer_name="stage3.1")
    assert np.abs(base.values - scaled.values).max() <= 1e-9


def test_class_out_of_range():
    model = build_resnet18(desk_config(), seed=8)
    with pytest.raises(ExplainError, match="out of range"):
        gradcam_map(model, np.zeros((1, 1, 32, 32)), target_class=3)


def test_unknown_layer_error():
    model = build_resnet18(desk_config(), seed=9)
    with pytest.raises(Exception, match="unknown layer"):
        gradcam_map(model, np.zeros((1, 1, 32, 32)), 0, layer_name="bogus")


def test_default_layer_is_deepest():
    model = build_resnet18(desk_config(), seed=10)
    image = np.random.default_rng(11).uniform(size=(1, 1, 32, 32))
    smap = gradcam_map(model, image, target_class=0)
    assert smap.layer == "stage4.1"


def test_upsampled_argmax_stays_in_source_cell_footprint():
    hits = 0
    for seed in range(6):
        model = build_resnet18(desk_config("se"), seed=seed)
        image = np.random.default_rng(100 + seed).uniform(size=(1, 1, 32, 32))
        smap = gradcam_map(model, image, target_class=seed % 3,
                           layer_name="stage2.1")
        if np.all(smap.values == 0.0):
            continue
        hits += 1
        low = _raw_map(model, image, seed % 3, "stage2.1")
        factor = 32 // low.shape[0]
        up_i, up_j = np.unravel_index(np.argmax(smap.values), smap.values.shape)
        li, lj = np.unravel_index(np.argmax(low), low.shape)
        assert (up_i // factor, up_j // factor) == (li, lj)
    assert hits >= 3  # property exercised on non-degenerate maps


def _raw_map(model, image, target_class, layer_name):
    logits, acts = model.forward_capture(Tensor(image), layer_name)
    onehot = np.zeros(logits.shape)
    onehot[0, target_class] = 1.0
    (logits * Tensor(onehot)).sum().backward()
    alpha = acts.grad[0].mean(axis=(1, 2))
    return np.maximum((alpha[:, None, None] * acts.data[0]).sum(axis=0), 0.0)


# ---------------------------------------------------------------------------
# cut tape against the whole-network tape


@pytest.mark.parametrize("insertion", INSERTION_MODES)
@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_gradcam_matches_full_tape_reference_bitwise(attention, insertion):
    model = build_resnet18(desk_config(attention, insertion=insertion), seed=31)
    image = np.random.default_rng(32).uniform(size=(32, 32))
    for layer in model.feature_layers():
        for cls in range(3):
            got = gradcam_map(model, image, cls, layer).values
            want = gradcam_reference(model, image, cls, layer)
            assert got.tobytes() == want.tobytes(), (layer, cls)


def test_gradcam_matches_full_tape_reference_full_profile():
    model = build_resnet18(ModelConfig(attention="cbam"), seed=33)
    image = np.random.default_rng(34).uniform(size=(128, 128))
    got = gradcam_map(model, image, 4).values
    assert got.tobytes() == gradcam_reference(model, image, 4, "stage4.1").tobytes()


def _grads(module):
    return [p.grad for _, p in module.named_params()]


def test_gradcam_backpropagates_only_after_capture_point():
    image = np.random.default_rng(36).uniform(size=(32, 32))
    model = build_resnet18(desk_config("cbam"), seed=35)
    gradcam_map(model, image, 1)
    assert model.stem_conv.weight.grad is None
    assert all(g is None for _, block in model._named_blocks() for g in _grads(block))
    assert model.head.weight.grad is not None

    model = build_resnet18(desk_config("cbam"), seed=35)
    gradcam_map(model, image, 1, layer_name="stage2.0")
    blocks = dict(model._named_blocks())
    before = [model.stem_conv, model.stem_bn, blocks["stage1.0"], blocks["stage1.1"],
              blocks["stage2.0"]]
    assert all(g is None for m in before for g in _grads(m))
    assert all(g is not None for g in _grads(blocks["stage3.0"]) + _grads(blocks["stage3.1"]))

    _, acts = model.forward_capture(Tensor(image.reshape(1, 1, 32, 32)), "stage4.1")
    assert acts.node is None and acts.requires_grad


# ---------------------------------------------------------------------------
# bilinear resize


def test_bilinear_identity_at_same_size():
    img = np.random.default_rng(12).uniform(size=(5, 7))
    assert np.array_equal(bilinear_resize(img, 5, 7), img)


def test_bilinear_constant_preserved():
    out = bilinear_resize(np.full((3, 3), 0.4), 12, 12)
    assert np.allclose(out, 0.4, atol=1e-15)


def test_bilinear_range_bounded():
    img = np.random.default_rng(13).uniform(size=(4, 4))
    out = bilinear_resize(img, 16, 16)
    assert out.min() >= img.min() - 1e-12 and out.max() <= img.max() + 1e-12


# ---------------------------------------------------------------------------
# overlay


def make_map(values):
    return SaliencyMap(np.asarray(values, dtype=np.float64), "stub", 0)


def test_overlay_alpha_zero_replicates_gray():
    gray = np.random.default_rng(14).uniform(size=(4, 4))
    out = overlay_heatmap(gray, make_map(np.zeros((4, 4))), alpha=0.0)
    assert np.array_equal(out, np.repeat((gray * 255.0)[:, :, None], 3, axis=2))


def test_overlay_zero_map_full_alpha_is_blue():
    out = overlay_heatmap(np.zeros((3, 3)), make_map(np.zeros((3, 3))), alpha=1.0)
    assert np.all(out == np.array([0.0, 0.0, 255.0]))


def test_overlay_colormap_anchors():
    cmap = heat_colormap(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(cmap[0], [0.0, 0.0, 255.0])
    assert np.array_equal(cmap[1], [0.0, 255.0, 0.0])
    assert np.array_equal(cmap[2], [255.0, 0.0, 0.0])


def test_overlay_mid_value_pixel_is_green():
    values = np.zeros((2, 2))
    values[1, 1] = 0.5
    out = overlay_heatmap(np.zeros((2, 2)), make_map(values), alpha=1.0)
    assert np.array_equal(out[1, 1], [0.0, 255.0, 0.0])


def test_overlay_extent_mismatch():
    with pytest.raises(ExplainError, match="extent"):
        overlay_heatmap(np.zeros((3, 3)), make_map(np.zeros((4, 4))), 0.5)


def test_overlay_blend_midpoint():
    gray = np.full((2, 2), 1.0)
    out = overlay_heatmap(gray, make_map(np.zeros((2, 2))), alpha=0.5)
    assert np.allclose(out, 0.5 * 255.0 + 0.5 * np.array([0.0, 0.0, 255.0]))
