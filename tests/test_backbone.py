import hashlib
import weakref

import numpy as np
import pytest

from attnatr.attention import ATTENTION_KINDS, eca_kernel_size
from attnatr.backbone import (INSERTION_MODES, BasicBlock, ModelConfig, build_resnet18,
                              desk_config)
from attnatr.checkpoint import dump_tensors
from attnatr.config import ConfigFileError
from attnatr.explain import gradcam_map
from attnatr.layers import BatchNorm2d, LayerError, SgdOptimizer, softmax_cross_entropy
from attnatr.rng import SplitMix64
from attnatr.tensor import AutodiffError, Tensor, no_grad
from helpers import check_gradients, graph_nodes, saved_arrays


def randx(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def expected_param_count(cfg: ModelConfig) -> int:
    """Closed-form audit of the attention-free parameter count."""
    w = cfg.stage_widths
    total = w[0] * 49 + 2 * w[0]  # stem conv + bn
    prev = w[0]
    for s, width in enumerate(w):
        for b in range(cfg.blocks_per_stage):
            stride = 2 if (s > 0 and b == 0) else 1
            total += 9 * prev * width + 2 * width      # conv1 + bn1
            total += 9 * width * width + 2 * width     # conv2 + bn2
            if stride != 1 or prev != width:
                total += prev * width + 2 * width      # downsample conv + bn
            prev = width
    total += w[-1] * cfg.num_classes + cfg.num_classes  # head
    return total


def attention_param_count(cfg: ModelConfig) -> int:
    per_block = []
    for width in cfg.stage_widths:
        hidden = max(1, width // cfg.reduction)
        if cfg.attention == "se":
            per_block.append(2 * width * hidden)
        elif cfg.attention == "eca":
            per_block.append(eca_kernel_size(width, cfg.eca_gamma))
        elif cfg.attention == "cbam":
            per_block.append(2 * width * hidden + 2 * cfg.spatial_kernel ** 2)
        else:
            per_block.append(0)
    return cfg.blocks_per_stage * sum(per_block)


# ---------------------------------------------------------------------------
# construction


def test_param_count_matches_closed_form():
    cfg = desk_config()
    model = build_resnet18(cfg, seed=1)
    assert model.num_params() == expected_param_count(cfg)


def test_se_adds_exactly_the_bottleneck_weights():
    base = build_resnet18(desk_config(), seed=2).num_params()
    cfg = desk_config("se")
    model = build_resnet18(cfg, seed=2)
    assert model.num_params() - base == attention_param_count(cfg)


@pytest.mark.parametrize("kind", ["eca", "cbam"])
def test_other_attention_param_deltas(kind):
    base = build_resnet18(desk_config(), seed=3).num_params()
    cfg = desk_config(kind)
    assert build_resnet18(cfg, seed=3).num_params() - base == attention_param_count(cfg)


def test_same_seed_same_config_bitwise_identical():
    blob1 = dump_tensors(build_resnet18(desk_config("cbam"), seed=9).named_state())
    blob2 = dump_tensors(build_resnet18(desk_config("cbam"), seed=9).named_state())
    assert blob1 == blob2
    blob3 = dump_tensors(build_resnet18(desk_config("cbam"), seed=10).named_state())
    assert blob1 != blob3


def test_invalid_config_lists_offending_fields():
    cfg = ModelConfig(num_classes=1, input_size=16, attention="vit")
    with pytest.raises(ConfigFileError) as err:
        cfg.validate()
    message = str(err.value)
    assert "num_classes=1" in message
    assert "input_size=16" in message
    assert "attention='vit'" in message


def test_attention_params_use_indexed_names():
    model = build_resnet18(desk_config("cbam"), seed=4)
    att_names = [n for n, _ in model.named_params() if ".att." in n]
    assert "stage1.0.att.0.weight" in att_names
    assert "stage1.0.att.2.weight" in att_names


# (num_params, sha256 of the newline-joined named_state() names, sha256 of
# dump_tensors(named_state())) at seed 5, recorded while every name list was
# still written out by hand; the walk must reproduce them exactly.
PINNED_STATE = {
    ("none", "desk"): (44479, "3f20245282729660918dcc1d64d85243892621d3eba1c162c73779990f5524cc",
                       "bdf4a2b53417b98b8ed027699d27fdb9c3e34c73245dcda4696c5f7b56958f80"),
    ("se", "desk"): (44847, "76297dab3606f02ea9f4d89fc16d8e454ce045962c27ce1d0e79652e214d226f",
                     "262b051cba4e9324ab0161fcbd21a014f812c92b3e3b45588d91e3ab8e755a29"),
    ("eca", "desk"): (44491, "66228343d1e80dd7844720bd39e471564120340f94561e912f54d358de6ecee3",
                      "8be5a12821e8cdbb59a2e1d25567cea9e55d09765637494504b52496bdefe648"),
    ("cbam", "desk"): (45631, "02af85bdedf9ef759852d2e7c3cf3302fabf4aeb766a203e515661f2d27b2f62",
                       "580e9ba0680e08982e2b199e57d4bcc0c726e49616be865059d1a8a4cdafa231"),
    ("cbam", "reduced"): (1699, "20415da8de67fceacffa0f80ce165670a629ef1c7b1ee5077282c396bf5ca823",
                          "fa6ab139bebfe4c411c7fda7b309b430ec5469840aead32b1869885519b1aafd"),
}
REDUCED = {"stage_widths": (4, 8), "blocks_per_stage": 1}


@pytest.mark.parametrize("insertion", ["in_block", "residual_wrap"])
@pytest.mark.parametrize("attention, depth", sorted(PINNED_STATE))
def test_checkpoint_names_and_bytes_are_pinned(attention, depth, insertion):
    extra = REDUCED if depth == "reduced" else {}
    model = build_resnet18(desk_config(attention, insertion=insertion, **extra), seed=5)
    state = model.named_state()
    names = "\n".join(name for name, _ in state).encode()
    got = (model.num_params(), hashlib.sha256(names).hexdigest(),
           hashlib.sha256(dump_tensors(state)).hexdigest())
    assert got == PINNED_STATE[(attention, depth)]


def sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in arrays)).hexdigest()


# sha256 of eval-path bytes, recorded while im2col still copied a strided
# window view and eval batchnorm still built fresh temporaries; a respelt
# kernel must reproduce them exactly.  ("grads", attention, insertion) is
# every parameter gradient of that desk train step, "full" the logits of a
# full-profile cbam batch-1 eval forward (the 128x128 stem shapes),
# "gradcam" its default map.
PINNED_EVAL = {
    ("none", "in_block"):
        "3e13e8f6df7aa6a07abb2d49a3b960f32eb40d7ecca710ffb692d90cd0081bc1",
    ("none", "residual_wrap"):
        "3e13e8f6df7aa6a07abb2d49a3b960f32eb40d7ecca710ffb692d90cd0081bc1",
    ("se", "in_block"):
        "49856e2852968016a78af8e43fdc5245bb55636ee319c44a651f4606e84d9166",
    ("se", "residual_wrap"):
        "cfb40022610d8d0df59dc2b360f05329be6aac89fd3c080a4d550b88c6d5905e",
    ("eca", "in_block"):
        "ab79c7fa6b975c5d10c601b08a8a341a4e4f1e71eacdfd7c687cb57776ba4b52",
    ("eca", "residual_wrap"):
        "a2e291be51255d20f140ade92ddb403813295963416f2d851f30d5c55b8948f2",
    ("cbam", "in_block"):
        "77c90906b9cb35c04adf36685c551711ef29d97637fd868e58cdc996204ad5b2",
    ("cbam", "residual_wrap"):
        "031886717c05249fe59bdbc852e0fa7b3c0d437e0e3f14abbcb9573ebd4763b5",
    ("grads", "none", "in_block"):
        "3d211a1e48dfb08815856bd02dcd35380c425368157797763a33a33924437c78",
    ("grads", "none", "residual_wrap"):
        "3d211a1e48dfb08815856bd02dcd35380c425368157797763a33a33924437c78",
    ("grads", "se", "in_block"):
        "ac651add5058501456408ee60af01afa072dc9060a41900cefd5ae1370f8884d",
    ("grads", "se", "residual_wrap"):
        "eb93f2fa9788312132d4a35b7165c84bfa7404c0a57cf896e76fe5c4a26847da",
    ("grads", "eca", "in_block"):
        "1b1ecbeb6ccff1bb0dce7e6b0822fa103f88df3a69bbdfba3d9509fe6f62a2b7",
    ("grads", "eca", "residual_wrap"):
        "2536e36169cc2b258edaf9ed0b30e7571ab58746bc1214f8e5b9ade44d7fd46e",
    ("grads", "cbam", "in_block"):
        "400250144efd62af6b811cf1357eaa792a21426dcf90328bc361e0bbad3b5130",
    ("grads", "cbam", "residual_wrap"):
        "20500192a8ff096bf0d42d62732aa0ea14390daa746d7c755161758272b3c2a5",
    "full":
        "4de13cadf67ab7860fa095d01fccdd28b30b2f97e0a06ddf38f3f80eb1e2776f",
    "gradcam":
        "10f7ce2a89dbd8b35e9eab6666fea339ef4467c191e0f1774062e4dc7799c723",
}


def test_eval_path_bytes_are_pinned():
    rng = np.random.default_rng(40)
    x, labels = rng.uniform(size=(8, 1, 32, 32)), [0, 1, 2, 0, 1, 2, 0, 1]
    got = {}
    for attention in ("none", "se", "eca", "cbam"):
        for insertion in ("in_block", "residual_wrap"):
            model = build_resnet18(desk_config(attention, insertion=insertion), seed=5)
            # one momentum step moves gamma, beta and the running statistics
            opt = SgdOptimizer(model.named_params(), lr=0.1, momentum=0.9)
            softmax_cross_entropy(model.forward(Tensor(x), "train"), labels).backward()
            got["grads", attention, insertion] = sha256(*(p.grad for _, p in model.named_params()))
            opt.step()
            with no_grad():
                got[(attention, insertion)] = sha256(model.forward(Tensor(x[::-1]), "eval").data)

    model = build_resnet18(ModelConfig(attention="cbam"), seed=5)
    model.load_state({name: arr + rng.uniform(-0.1, 0.1, arr.shape)
                      for name, arr in model.named_state()})
    image = rng.uniform(size=(1, 1, 128, 128))
    with no_grad():
        got["full"] = sha256(model.forward(Tensor(image), "eval").data)
    got["gradcam"] = sha256(gradcam_map(model, image[0, 0], 3).values)
    assert got == PINNED_EVAL

    bn = model.stem_bn
    act = rng.normal(size=(2, bn.channels, 4, 4))
    before = act.tobytes()
    with no_grad():
        bn.forward(Tensor(act), "eval")
    assert act.tobytes() == before


def desk_step(attention, insertion):
    """The pinned desk train step's loss, and weak references to every array
    that a backward closure of its tape holds."""
    model = build_resnet18(desk_config(attention, insertion=insertion), seed=5)
    x = np.random.default_rng(40).uniform(size=(8, 1, 32, 32))
    loss = softmax_cross_entropy(model.forward(Tensor(x), "train"), [0, 1, 2, 0, 1, 2, 0, 1])
    return loss, [weakref.ref(a) for node in graph_nodes(loss) for a in saved_arrays(node)]


@pytest.mark.parametrize("insertion", INSERTION_MODES)
@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_backward_frees_the_tape_and_refuses_a_second_pass(attention, insertion):
    # this step's gradient bytes are pinned in test_eval_path_bytes_are_pinned
    loss, refs = desk_step(attention, insertion)
    assert all(ref() is not None for ref in refs)
    loss.backward()
    assert [ref() for ref in refs] == [None] * len(refs)
    with pytest.raises(AutodiffError, match="consumed"):
        loss.backward()


def test_reduced_config_checkpoint_name_order():
    model = build_resnet18(desk_config("cbam", **REDUCED), seed=5)
    block = ["conv1.weight", "bn1.gamma", "bn1.beta", "conv2.weight", "bn2.gamma", "bn2.beta"]
    down = ["downsample.conv.weight", "downsample.bn.gamma", "downsample.bn.beta"]
    att = ["att.0.weight", "att.1.weight", "att.2.weight"]
    stats = ["running_mean", "running_var"]
    want = (["stem.conv.weight", "stem.bn.gamma", "stem.bn.beta"]
            + [f"stage1.0.{n}" for n in block + att]
            + [f"stage2.0.{n}" for n in block + down + att]
            + ["head.weight", "head.bias"]
            + [f"stem.bn.{s}" for s in stats]
            + [f"stage1.0.{bn}.{s}" for bn in ("bn1", "bn2") for s in stats]
            + [f"stage2.0.{bn}.{s}" for bn in ("bn1", "bn2", "downsample.bn") for s in stats])
    assert [name for name, _ in model.named_state()] == want


# ---------------------------------------------------------------------------
# basic block semantics


def test_attention_none_insertion_modes_agree():
    x = randx((2, 4, 8, 8), seed=5)
    outs = []
    for mode in ("in_block", "residual_wrap"):
        cfg = desk_config(insertion=mode)
        block = BasicBlock(4, 4, 1, cfg, SplitMix64(6))
        outs.append(block.forward(x, mode="eval").data)
    assert np.array_equal(outs[0], outs[1])


def test_residual_wrap_zero_weight_cbam_scales_output():
    cfg = desk_config("cbam", insertion="residual_wrap")
    block = BasicBlock(4, 4, 1, cfg, SplitMix64(7))
    for _, p in block.att.named_params():
        p.data[:] = 0.0
    x = randx((2, 4, 8, 8), seed=8)
    got = block.forward(x, mode="eval").data

    block.att = None  # replay the plain block to recover its raw output
    plain = block.forward(x, mode="eval").data
    # zero-weight CBAM multiplies by 0.5 twice, and the wrapper adds it back
    assert np.abs(got - 1.25 * plain).max() < 1e-12


def test_gradient_reaches_skip_path_input():
    cfg = desk_config("se")
    block = BasicBlock(4, 8, 2, cfg, SplitMix64(9))
    x = Tensor(np.random.default_rng(10).normal(size=(2, 4, 8, 8)), requires_grad=True)
    block.forward(x, mode="eval").sum().backward()
    assert x.grad is not None and np.abs(x.grad).max() > 0.0


def test_in_block_and_residual_wrap_differ_with_attention():
    x = randx((2, 4, 8, 8), seed=11)
    outs = []
    for mode in ("in_block", "residual_wrap"):
        cfg = desk_config("se", insertion=mode)
        outs.append(BasicBlock(4, 4, 1, cfg, SplitMix64(12)).forward(x, "eval").data)
    assert not np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# model forward


def test_default_config_outputs_ten_classes():
    model = build_resnet18(ModelConfig(), seed=13)
    logits = model.forward(randx((1, 1, 128, 128), seed=14), mode="eval")
    assert logits.shape == (1, 10)


def test_eval_forward_is_bitwise_deterministic():
    model = build_resnet18(desk_config("eca"), seed=15)
    x = randx((2, 1, 32, 32), seed=16)
    a = model.forward(x, mode="eval").data
    b = model.forward(x, mode="eval").data
    assert np.array_equal(a, b)


def test_softmax_rows_normalize():
    model = build_resnet18(desk_config(), seed=17)
    logits = model.forward(randx((4, 1, 32, 32), seed=18), mode="eval")
    z = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    sums = (z / z.sum(axis=1, keepdims=True)).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-12


@pytest.mark.parametrize("kind", ["none", "se", "eca", "cbam"])
def test_attention_never_changes_output_shape(kind):
    model = build_resnet18(desk_config(kind), seed=19)
    logits = model.forward(randx((2, 1, 32, 32), seed=20), mode="eval")
    assert logits.shape == (2, 3)


def test_input_shape_mismatch_error():
    model = build_resnet18(desk_config(), seed=21)
    with pytest.raises(LayerError, match="expects"):
        model.forward(randx((1, 1, 16, 16), seed=22))


def test_checkpoint_roundtrip_through_model(tmp_path):
    model = build_resnet18(desk_config("cbam"), seed=23)
    x = randx((2, 1, 32, 32), seed=24)
    want = model.forward(x, mode="eval").data
    state = dict(model.named_state())
    clone = build_resnet18(desk_config("cbam"), seed=99)
    clone.load_state({k: v.copy() for k, v in state.items()})
    assert np.array_equal(clone.forward(x, mode="eval").data, want)


def test_load_state_rejects_mismatched_names():
    model = build_resnet18(desk_config(), seed=25)
    state = dict(model.named_state())
    state.pop("head.bias")
    with pytest.raises(LayerError, match="missing"):
        model.load_state(state)


def test_feature_layers_and_capture():
    model = build_resnet18(desk_config(), seed=26)
    names = model.feature_layers()
    assert names[0] == "stem" and names[-1] == "stage4.1"
    logits, acts = model.forward_capture(randx((1, 1, 32, 32), seed=27), "stage2.0")
    assert logits.shape == (1, 3)
    assert acts.shape == (1, 8, 4, 4)
    with pytest.raises(LayerError, match="unknown layer"):
        model.forward_capture(randx((1, 1, 32, 32), seed=28), "nope")


# ---------------------------------------------------------------------------
# end-to-end gradients (reduced config)


def test_end_to_end_gradients_reduced_config():
    cfg = ModelConfig(input_size=32, num_classes=2, stage_widths=(4, 8),
                      blocks_per_stage=1, attention="cbam", reduction=2,
                      spatial_kernel=3)
    model = build_resnet18(cfg, seed=29)
    x = Tensor(np.random.default_rng(30).normal(size=(2, 1, 32, 32)),
               requires_grad=True)
    bns = [(n, m) for n, m in model.named_modules() if isinstance(m, BatchNorm2d)]
    saved = [(bn.running_mean.copy(), bn.running_var.copy()) for _, bn in bns]

    def reset():
        for (_, bn), (rm, rv) in zip(bns, saved):
            bn.running_mean = rm.copy()
            bn.running_var = rv.copy()

    params = [p for _, p in model.named_params()]
    check_gradients(
        lambda: (model.forward(x, mode="train") * model.forward(x, mode="train")).sum(),
        params + [x], tol=1e-3, sample=3, reset=reset)
