"""Acceptance gate: every shipping criterion with one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Full-scale reference-table reproduction is out of
scope by design (restricted source data, multi-hour training); the desk-scale
substitutes below are the authoritative checks.
"""

import time

import numpy as np
import pytest

from attnatr.attention import CbamBlock, EcaBlock, SeBlock
from attnatr.backbone import build_resnet18, desk_config
from attnatr.checkpoint import parse_tensors
from attnatr.data import (PhoenixError, SarImage, SynthConfig,
                          parse_mstar_phoenix, synth_dataset, write_phoenix)
from attnatr.explain import gradcam_map
from attnatr.harness import (PerturbSpec, TrialReport, format_report,
                             perturb_dataset, perturb_gaussian, run_protocol,
                             top1_accuracy)
from attnatr.layers import (BatchNorm2d, Conv1d, Conv2d, Linear, conv2d, pool2d,
                            softmax_cross_entropy)
from attnatr.rng import SplitMix64
from attnatr.tensor import Tensor
from helpers import check_gradients, conv2d_naive, pool2d_naive

SIGMA = 3.0 / 255.0


def criterion(number, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def np_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


# ---------------------------------------------------------------------------
# 1. scope statement


def test_criterion_1_scope():
    criterion(1, "full-scale table reproduction excluded; desk substitutes apply",
              True, "restricted source data and multi-hour training are out of scope")


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_criterion_2_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(42)

    def rt(shape, grad=True):
        return Tensor(rng.normal(size=shape), requires_grad=grad)

    worst = 0.0

    # layers on inputs bounded by 4 channels and 8x8 spatial extents
    x = rt((2, 3, 8, 8))
    conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=SplitMix64(1))
    worst = max(worst, check_gradients(
        lambda: (conv.forward(x) * conv.forward(x)).sum(),
        [x, conv.weight, conv.bias], tol=1e-4))

    z = rt((2, 8))
    c1d = Conv1d(3, rng=SplitMix64(2))
    worst = max(worst, check_gradients(
        lambda: (c1d.forward(z) * z).sum(), [z, c1d.weight], tol=1e-4))

    xp = rt((2, 4, 8, 8))
    worst = max(worst, check_gradients(
        lambda: (pool2d(xp, 3, 2, 1) * pool2d(xp, 3, 2, 1)).sum(), [xp], tol=1e-4))
    for reduce in (xp.max, xp.mean):
        worst = max(worst, check_gradients(
            lambda r=reduce: (r(axes=(2, 3), keepdims=True)
                              * r(axes=(2, 3), keepdims=True)).sum(),
            [xp], tol=1e-4))

    xl = rt((4, 6))
    lin = Linear(6, 3, rng=SplitMix64(3))
    worst = max(worst, check_gradients(
        lambda: (lin.forward(xl) * lin.forward(xl)).sum(),
        [xl, lin.weight, lin.bias], tol=1e-4))

    bn = BatchNorm2d(4)
    xb = rt((4, 4, 5, 5))
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()

    def reset_bn():
        bn.running_mean, bn.running_var = rm.copy(), rv.copy()

    worst = max(worst, check_gradients(
        lambda: (bn.forward(xb, "train") * xb).sum(),
        [xb, bn.gamma, bn.beta], tol=1e-4, reset=reset_bn))

    logits = rt((4, 3))
    worst = max(worst, check_gradients(
        lambda: softmax_cross_entropy(logits, [0, 2, 1, 2]), [logits], tol=1e-4))

    # attention blocks
    se = SeBlock(4, reduction=2, rng=SplitMix64(4))
    u = rt((2, 4, 8, 8))
    worst = max(worst, check_gradients(
        lambda: (se.forward(u) * u).sum(),
        [u, se.fc1.weight, se.fc2.weight], tol=1e-4))

    eca = EcaBlock(4, gamma=2, rng=SplitMix64(5))
    u2 = rt((2, 4, 8, 8))
    worst = max(worst, check_gradients(
        lambda: (eca.forward(u2) * u2).sum(), [u2, eca.conv.weight], tol=1e-4))

    cbam = CbamBlock(4, reduction=2, spatial_kernel=3, rng=SplitMix64(6))
    f = rt((1, 4, 6, 6))
    cbam_params = [p for _, p in cbam.named_params()]
    worst = max(worst, check_gradients(
        lambda: cbam.channel_attention(f)[1].sum(), cbam_params + [f], tol=1e-4))
    worst = max(worst, check_gradients(
        lambda: cbam.spatial_attention(f)[1].sum(), cbam_params + [f], tol=1e-4))
    worst = max(worst, check_gradients(
        lambda: cbam.forward(f).sum(), cbam_params + [f], tol=1e-4))

    # Full desk-config model, end to end, sampled entries per tensor.
    # Batch 3, not 2: with 1x1 stage-4 maps a two-sample batchnorm emits
    # exactly +-gamma per channel, which can tie the CBAM channel max
    # exactly; finite differences are not a valid oracle at a tie (the
    # first-in-scan tie-break is the documented contract).  The floor keeps
    # tensors whose true gradients sit below fd resolution comparable.
    labels = [0, 2, 1]
    model = build_resnet18(desk_config("cbam"), seed=7)
    xm = Tensor(np.random.default_rng(8).normal(size=(3, 1, 32, 32)),
                requires_grad=True)
    bns = [(n, m) for n, m in model.named_modules() if isinstance(m, BatchNorm2d)]
    saved = [(b.running_mean.copy(), b.running_var.copy()) for _, b in bns]

    def reset_model():
        for (_, b), (m, v) in zip(bns, saved):
            b.running_mean, b.running_var = m.copy(), v.copy()

    model_err = check_gradients(
        lambda: softmax_cross_entropy(model.forward(xm, "train"), labels),
        [p for _, p in model.named_params()] + [xm],
        tol=1e-3, step=1e-6, sample=3, reset=reset_model, floor=1e-6)

    elapsed = time.monotonic() - start
    criterion(2, "gradient suite", worst < 1e-4 and model_err < 1e-3 and elapsed < 120,
              f"layer/block worst {worst:.2e} < 1e-4, model {model_err:.2e} < 1e-3, "
              f"{elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 3. oracle suite


def test_criterion_3_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_conv = worst_pool = 0.0

    for _ in range(50):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sh, sw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ph, pw = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        h = int(rng.integers(max(1, kh - 2 * ph), 9))
        w = int(rng.integers(max(1, kw - 2 * pw), 9))
        if h + 2 * ph < kh or w + 2 * pw < kw:
            continue
        x = rng.normal(size=(int(rng.integers(1, 3)), cin, h, w))
        wt = rng.normal(size=(cout, cin, kh, kw))
        b = rng.normal(size=cout)
        got = conv2d(Tensor(x), Tensor(wt), Tensor(b), (sh, sw), (ph, pw)).data
        worst_conv = max(worst_conv, float(np.abs(
            got - conv2d_naive(x, wt, b, (sh, sw), (ph, pw))).max()))

    for _ in range(50):
        rng.integers(2)  # drew max or avg pooling; kept so every later shape stays the same
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sh, sw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ph, pw = int(rng.integers(0, kh)), int(rng.integers(0, kw))
        h, w = int(rng.integers(kh, 9)), int(rng.integers(kw, 9))
        x = rng.normal(size=(2, int(rng.integers(1, 4)), h, w))
        got = pool2d(Tensor(x), (kh, kw), (sh, sw), (ph, pw)).data
        worst_pool = max(worst_pool, float(np.abs(
            got - pool2d_naive(x, (kh, kw), (sh, sw), (ph, pw))).max()))

    # SE and ECA against hand-staged numpy pipelines
    se = SeBlock(8, reduction=2, rng=SplitMix64(9))
    u = rng.normal(size=(1, 8, 4, 4))
    z = u.mean(axis=(2, 3))
    s = np_sigmoid(np.maximum(z @ se.fc1.weight.data.T, 0) @ se.fc2.weight.data.T)
    se_err = float(np.abs(se.forward(Tensor(u)).data
                          - u * s[:, :, None, None]).max())

    eca = EcaBlock(16, gamma=8, rng=SplitMix64(10))
    u2 = rng.normal(size=(1, 16, 3, 3))
    z2 = u2.mean(axis=(2, 3))
    w3 = eca.conv.weight.data.reshape(-1)
    zp = np.pad(z2, ((0, 0), (1, 1)))
    pre = sum(w3[j] * zp[:, j:j + 16] for j in range(3))
    eca_err = float(np.abs(eca.forward(Tensor(u2)).data
                           - u2 * np_sigmoid(pre)[:, :, None, None]).max())

    elapsed = time.monotonic() - start
    ok = (worst_conv < 1e-12 and worst_pool < 1e-12
          and se_err < 1e-12 and eca_err < 1e-12 and elapsed < 60)
    criterion(3, "oracle suite", ok,
              f"conv {worst_conv:.1e}, pool {worst_pool:.1e}, se {se_err:.1e}, "
              f"eca {eca_err:.1e}, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 4. attention invariants


def test_criterion_4_attention_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    blocks = {
        "se": SeBlock(6, reduction=2, rng=SplitMix64(12)),
        "eca": EcaBlock(6, gamma=2, rng=SplitMix64(13)),
        "cbam": CbamBlock(6, reduction=2, spatial_kernel=3, rng=SplitMix64(14)),
    }
    checked = 0
    for name, block in blocks.items():
        for _ in range(1000):
            shape = (1, 6, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            u = Tensor(rng.normal(size=shape) * float(rng.uniform(0.2, 5.0)))
            out = block.forward(u)
            assert out.shape == u.shape, f"{name} changed shape"
            assert np.abs(out.data).max() <= np.abs(u.data).max(), \
                f"{name} violated the contraction bound"
            z = u.data.mean(axis=(2, 3))
            if name == "se":
                gates = np_sigmoid(np.maximum(z @ block.fc1.weight.data.T, 0)
                                   @ block.fc2.weight.data.T)
            elif name == "eca":
                k = block.kernel_size
                pad = (k - 1) // 2
                zp = np.pad(z, ((0, 0), (pad, pad)))
                w = block.conv.weight.data.reshape(-1)
                gates = np_sigmoid(sum(w[j] * zp[:, j:j + 6] for j in range(k)))
            else:
                m_c, f_c = block.channel_attention(u)
                m_s, _ = block.spatial_attention(f_c)
                gates = np.concatenate([m_c.data.reshape(-1), m_s.data.reshape(-1)])
            assert np.all(gates > 0.0) and np.all(gates < 1.0), \
                f"{name} gate left (0, 1)"
            checked += 1
    elapsed = time.monotonic() - start
    criterion(4, "attention invariants", checked == 3000 and elapsed < 60,
              f"{checked} random inputs, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 5. zero-weight closed forms


def test_criterion_5_zero_weight_closed_forms():
    rng = np.random.default_rng(15)
    u = Tensor(rng.normal(size=(2, 6, 5, 5)))

    se = SeBlock(6, reduction=2, rng=SplitMix64(16))
    eca = EcaBlock(6, gamma=2, rng=SplitMix64(17))
    cbam = CbamBlock(6, reduction=2, spatial_kernel=3, rng=SplitMix64(18))
    for block in (se, eca, cbam):
        for _, p in block.named_params():
            p.data[:] = 0.0

    err_se = np.abs(se.forward(u).data - 0.5 * u.data).max()
    err_eca = np.abs(eca.forward(u).data - 0.5 * u.data).max()
    err_cbam = np.abs(cbam.forward(u).data - 0.25 * u.data).max()
    ok = err_se < 1e-12 and err_eca < 1e-12 and err_cbam < 1e-12
    criterion(5, "zero-weight closed forms", ok,
              f"se {err_se:.1e}, eca {err_eca:.1e}, cbam {err_cbam:.1e}")


# ---------------------------------------------------------------------------
# 6. table-format reproduction


def test_criterion_6_table_format():
    reports = [
        TrialReport("Standard ResNet-18", [0.9710, 0.9724, 0.9745]),
        TrialReport("CBAM ResNet-18", [0.9752, 0.9758, 0.9789],
                    baseline_tag="Standard ResNet-18"),
    ]
    text = format_report(reports)
    ok = "97.26%" in text and "97.66% (+0.40%)" in text
    criterion(6, "table-format reproduction", ok,
              "97.10/97.24/97.45 -> 97.26%; CBAM delta +0.40%")


# ---------------------------------------------------------------------------
# 7. desk training smoke (module-scoped: one full protocol run)


SMOKE_CFG = {
    "seed": "7",
    "data.classes": "3",
    "data.per_class_train": "100",
    "data.per_class_test": "50",
    "data.image_size": "32",
    "train.epochs": "15",
}


@pytest.fixture(scope="module")
def smoke_result():
    return run_protocol(SMOKE_CFG, ["none", "se", "eca", "cbam"], trials=1)


def test_criterion_7_desk_training_smoke(smoke_result):
    start = time.monotonic()
    result = smoke_result
    text = result.render()
    synth = SynthConfig(seed=7)
    train_ds = synth_dataset(synth, "train")
    test_ds = synth_dataset(synth, "test")

    baseline = build_resnet18(desk_config(), seed=7)
    baseline.load_state(parse_tensors(result.checkpoints[("none", 0)]))
    train_acc = top1_accuracy(baseline, train_ds)
    test_acc = result.clean[0].trials[0]

    # monotone seeded-noise degradation for the trained baseline
    acc_mid = top1_accuracy(baseline, perturb_dataset(
        test_ds, PerturbSpec(scale=0.05, seed=1)))
    acc_high = top1_accuracy(baseline, perturb_dataset(
        test_ds, PerturbSpec(scale=0.2, seed=1)))
    monotone = test_acc >= acc_mid >= acc_high

    tables = "Top-1 accuracy" in text and "input perturbation" in text
    all_variants = {rep.tag for rep in result.clean} == {"none", "se", "eca", "cbam"}
    elapsed = time.monotonic() - start
    ok = (train_acc >= 0.90 and test_acc >= 0.80 and tables
          and all_variants and monotone)
    variant_accs = ", ".join(f"{r.tag} {r.trials[0]:.3f}" for r in result.clean)
    criterion(7, "desk training smoke", ok,
              f"baseline train {train_acc:.3f} >= 0.90, test {test_acc:.3f} >= 0.80; "
              f"noise {test_acc:.3f} >= {acc_mid:.3f} >= {acc_high:.3f}; "
              f"variants trained: {variant_accs}; post-train checks {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. perturbation statistics


def test_criterion_8_perturbation_statistics():
    image = SarImage(np.full((250, 400), 0.5), 0)  # 1e5 pixels
    spec = PerturbSpec(scale=SIGMA)
    out = perturb_gaussian(image, spec, SplitMix64(19))
    delta = out.magnitude - image.magnitude
    std = float(delta.std())
    std_ok = abs(std - SIGMA) / SIGMA < 0.02

    edge = SarImage(np.where(np.arange(10000) % 2 == 0, 0.0, 1.0).reshape(100, 100), 0)
    big = perturb_gaussian(edge, PerturbSpec(scale=0.8), SplitMix64(20))
    clamp_ok = big.magnitude.min() >= 0.0 and big.magnitude.max() <= 1.0

    criterion(8, "perturbation statistics", std_ok and clamp_ok,
              f"std {std:.6f} vs {SIGMA:.6f} "
              f"({100 * abs(std - SIGMA) / SIGMA:.2f}% < 2%); clamp holds")


# ---------------------------------------------------------------------------
# 9. grad-cam contracts


def test_criterion_9_gradcam_contracts():
    model = build_resnet18(desk_config("cbam"), seed=21)
    image = np.random.default_rng(22).uniform(size=(1, 1, 32, 32))
    smap = gradcam_map(model, image, 1, "stage3.1")
    in_range = smap.values.min() >= 0.0 and smap.values.max() <= 1.0
    normalized = smap.values.max() == 1.0 or np.all(smap.values == 0.0)

    # zero-activation layer gives the zero map
    zero_model = build_resnet18(desk_config(), seed=23)
    zero_model.stages[2][1].conv2.weight.data[:] = 0.0
    zero_model.stages[2][1].bn2.gamma.data[:] = 0.0
    zero_model.stages[2][1].conv1.weight.data[:] = 0.0
    zero_model.stages[2][1].bn1.gamma.data[:] = 0.0
    zero_model.stages[2][1].bn1.beta.data[:] = 0.0
    zero_model.stages[2][1].bn2.beta.data[:] = 0.0
    # also silence the skip path feeding the captured block
    zero_model.stages[2][0].bn2.gamma.data[:] = 0.0
    zero_model.stages[2][0].bn2.beta.data[:] = 0.0
    zero_model.stages[2][0].downsample[1].gamma.data[:] = 0.0
    zero_model.stages[2][0].downsample[1].beta.data[:] = 0.0
    zmap = gradcam_map(zero_model, image, 0, "stage3.1")
    zero_ok = np.all(zmap.values == 0.0)

    # analytic single-channel oracle: positive-average head over one
    # non-negative channel recovers the normalized activation plane
    from test_explain import StubConvModel
    from attnatr.layers import conv2d as conv_fn
    stub = StubConvModel(np.random.default_rng(24).normal(size=(1, 1, 3, 3)),
                         np.array([[3.0]]))
    simg = np.random.default_rng(25).uniform(0.1, 1.0, size=(1, 1, 8, 8))
    amap = gradcam_map(stub, simg, 0, "feat")
    acts = conv_fn(Tensor(simg), stub.conv_w, None, padding=1)
    plane = np.maximum(acts.data[0, 0], 0.0)
    want = (plane - plane.min()) / (plane.max() - plane.min())
    oracle_ok = np.abs(amap.values - want).max() < 1e-12

    lam_model = build_resnet18(desk_config(), seed=26)
    base = gradcam_map(lam_model, image, 2, "stage3.1")
    lam_model.head.weight.data[2] *= 11.0
    scaled = gradcam_map(lam_model, image, 2, "stage3.1")
    lam_ok = np.abs(base.values - scaled.values).max() <= 1e-9

    ok = in_range and normalized and zero_ok and oracle_ok and lam_ok
    criterion(9, "grad-cam contracts", ok,
              f"range ok {in_range}, zero-map ok {zero_ok}, analytic oracle ok "
              f"{oracle_ok}, scaling invariance ok {lam_ok}")


# ---------------------------------------------------------------------------
# 10. parser robustness


def test_criterion_10_parser_robustness():
    rng = SplitMix64(27)
    base = write_phoenix(np.random.default_rng(28).uniform(size=(4, 4)))
    survived = 0
    for i in range(10_000):
        mode = i % 4
        if mode == 0:
            buf = bytes(int(rng.below(256)) for _ in range(1 + rng.below(160)))
        elif mode == 1:
            buf = base[:rng.below(len(base) + 1)]
        elif mode == 2:
            mutated = bytearray(base)
            for _ in range(1 + rng.below(10)):
                mutated[rng.below(len(mutated))] = rng.below(256)
            buf = bytes(mutated)
        else:
            head = base[:rng.below(len(base))]
            buf = head + bytes(int(rng.below(256)) for _ in range(rng.below(64)))
        try:
            parse_mstar_phoenix(buf)
        except PhoenixError:
            pass
        survived += 1

    mag = np.random.default_rng(29).uniform(size=(4, 4))
    mag.reshape(-1)[0], mag.reshape(-1)[-1] = 0.0, 1.0
    img, _ = parse_mstar_phoenix(write_phoenix(mag))
    roundtrip_ok = np.abs(img.magnitude - mag).max() < 1e-6

    criterion(10, "parser robustness", survived == 10_000 and roundtrip_ok,
              f"{survived} fuzzed buffers, structured errors only; "
              f"round-trip within float32 quantization")


# ---------------------------------------------------------------------------
# 11. determinism


def test_criterion_11_protocol_determinism():
    cfg = {
        "seed": "11",
        "data.per_class_train": "20",
        "data.per_class_test": "10",
        "train.epochs": "3",
    }
    first = run_protocol(cfg, ["none", "eca"], trials=1)
    second = run_protocol(cfg, ["none", "eca"], trials=1)
    reports_ok = first.render() == second.render()
    ckpt_ok = all(first.checkpoints[k] == second.checkpoints[k]
                  for k in first.checkpoints)
    criterion(11, "protocol determinism", reports_ok and ckpt_ok,
              "byte-identical reports and checkpoints across two runs")
