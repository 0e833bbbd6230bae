import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from attnatr import blas, harness
from attnatr import config as cfgmod
from attnatr import tensor as tensormod
from attnatr.attention import ATTENTION_KINDS
from attnatr.backbone import build_resnet18, desk_config
from attnatr.data import Dataset, SarImage, SynthConfig, synth_dataset
from attnatr.harness import (HarnessError, PerturbSpec, TrialReport,
                             TrainingDivergenceError, format_report, load_model,
                             model_config_from, perturb_dataset, perturb_gaussian,
                             perturb_spec_from, run_protocol, save_model,
                             synth_config_from, top1_accuracy, train_model,
                             train_settings_from)
from attnatr.checkpoint import dump_tensors, parse_tensors
from attnatr.layers import SgdOptimizer, softmax_cross_entropy
from attnatr.rng import SplitMix64, derive_seed
from attnatr.tensor import Tensor


def gray_dataset(labels, size=8, value=0.5):
    images = [SarImage(np.full((size, size), value), int(l)) for l in labels]
    return Dataset(images, [str(c) for c in range(max(labels) + 1)], "test")


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_vanishing_scale_keeps_input():
    img = SarImage(np.random.default_rng(1).uniform(0.2, 0.8, (8, 8)), 0)
    out = perturb_gaussian(img, PerturbSpec(scale=1e-12), SplitMix64(2))
    assert np.abs(out.magnitude - img.magnitude).max() < 1e-9


def test_perturb_empirical_std():
    spec = PerturbSpec(scale=3.0 / 255.0)
    img = SarImage(np.full((100, 100), 0.5), 0)
    out = perturb_gaussian(img, spec, SplitMix64(3))
    std = (out.magnitude - img.magnitude).std()
    assert abs(std - 3.0 / 255.0) / (3.0 / 255.0) < 0.02


def test_perturb_clamps_to_unit_interval():
    img = SarImage(np.ones((32, 32)), 0)
    out = perturb_gaussian(img, PerturbSpec(scale=0.5), SplitMix64(4))
    assert out.magnitude.max() <= 1.0 and out.magnitude.min() >= 0.0


def test_perturb_scale_must_be_positive():
    with pytest.raises(HarnessError, match="scale"):
        PerturbSpec(scale=0.0).sigma()


def test_perturb_deterministic_under_seed():
    img = SarImage(np.full((6, 6), 0.5), 0)
    a = perturb_gaussian(img, PerturbSpec(scale=0.05), SplitMix64(9)).magnitude
    b = perturb_gaussian(img, PerturbSpec(scale=0.05), SplitMix64(9)).magnitude
    assert np.array_equal(a, b)


def test_perturb_dataset_streams_differ_per_image():
    ds = gray_dataset([0, 0, 0])
    out = perturb_dataset(ds, PerturbSpec(scale=0.05, seed=5))
    assert not np.array_equal(out.images[0].magnitude, out.images[1].magnitude)


# ---------------------------------------------------------------------------
# accuracy


class ConstantModel:
    """Always emits the same logits; argmax ties break to class 0."""

    def __init__(self, k, size):
        self.k = k
        self.size = size
        self.cfg = SimpleNamespace(num_classes=k)

    def forward(self, x, mode="eval"):
        return Tensor(np.zeros((x.shape[0], self.k)))


class LookupModel:
    """Perfect-classifier stand-in keyed by image bytes."""

    def __init__(self, dataset, k):
        self.table = {img.magnitude.tobytes(): img.label for img in dataset.images}
        self.k = k
        self.cfg = SimpleNamespace(num_classes=k)

    def forward(self, x, mode="eval"):
        logits = np.zeros((x.shape[0], self.k))
        for i in range(x.shape[0]):
            logits[i, self.table[x.data[i, 0].tobytes()]] = 1.0
        return Tensor(logits)


def test_constant_model_hits_class_zero_share():
    ds = gray_dataset([0, 1, 2] * 4)
    images = [SarImage(np.full((8, 8), 0.1 * i), l)
              for i, l in enumerate([0, 1, 2] * 4)]
    ds = Dataset(images, ["0", "1", "2"], "test")
    assert top1_accuracy(ConstantModel(3, 8), ds) == pytest.approx(1.0 / 3.0)


def test_oracle_model_is_perfect():
    ds = synth_dataset(SynthConfig(per_class_test=5, seed=6), "test")
    model = LookupModel(ds, 3)
    assert top1_accuracy(model, ds) == 1.0


def test_accuracy_batch_size_invariance():
    ds = synth_dataset(SynthConfig(per_class_test=7, seed=7), "test")
    model = build_resnet18(desk_config(), seed=8)
    assert top1_accuracy(model, ds, batch_size=1) == top1_accuracy(model, ds, batch_size=32)


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_accuracy_batch_size_contract(attention, monkeypatch):
    # convolutions and ECA's 1-D conv work per sample, so their features are
    # bitwise the same at any batch size; a linear layer (the head, the SE and
    # CBAM MLPs) multiplies the batch at once and may round by row count
    ds = synth_dataset(SynthConfig(per_class_test=14, seed=7), "test")
    model = build_resnet18(desk_config(attention), seed=8)
    head = model.head.forward

    def run(batch_size):
        seen = []

        def recording_head(pooled):
            logits = head(pooled)
            seen.append((pooled.data.copy(), logits.data.copy()))
            return logits

        monkeypatch.setattr(model.head, "forward", recording_head)
        acc = top1_accuracy(model, ds, batch_size)
        return acc, np.concatenate([p for p, _ in seen]), np.concatenate([l for _, l in seen])

    acc1, pooled1, logits1 = run(1)
    for batch_size in (2, 8):
        acc, pooled, logits = run(batch_size)
        if attention in ("none", "eca"):
            assert pooled.tobytes() == pooled1.tobytes()
        assert np.abs(pooled - pooled1).max() <= 1e-15
        assert np.abs(logits - logits1).max() <= 1e-15
        assert acc == acc1


def test_train_settings_from_reads_the_train_keys():
    assert train_settings_from(cfgmod.resolve()) == (15, 0.05, 0.9, 32)
    low = cfgmod.resolve({"train.epochs": "1", "train.batch_size": "2"})
    assert train_settings_from(low) == (1, 0.05, 0.9, 2)
    with pytest.raises(cfgmod.ConfigFileError, match="'train.batch_size': must be at least 2, got 1"):
        run_protocol({"train.batch_size": "1"}, ["none"], trials=1)


def test_accuracy_empty_dataset_error():
    with pytest.raises(HarnessError, match="empty"):
        top1_accuracy(ConstantModel(3, 8), Dataset([], ["a"], "test"))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_accuracy_batch_size_below_one_error(batch_size):
    with pytest.raises(HarnessError, match=f"batch size must be at least 1, got {batch_size}"):
        top1_accuracy(ConstantModel(3, 8), gray_dataset([0, 1, 2]), batch_size)


# ---------------------------------------------------------------------------
# evaluation split across cores


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_concurrent_eval_forwards_match_serial_and_record_no_tape(attention, monkeypatch):
    # ResNet.forward's contract: eval forwards on one model may run at once.
    # Grad mode is per thread, so a worker that did not turn the tape off
    # itself would record nodes here (the parameters require grad).
    model = build_resnet18(desk_config(attention), seed=8)
    x = np.random.default_rng(3).uniform(size=(6, 1, 32, 32))
    serial = harness._eval_forward(model, x).tobytes()
    recorded = []

    class RecordingNode(tensormod.TapeNode):
        __slots__ = ()

        def __init__(self, *args):
            recorded.append(threading.current_thread().name)
            super().__init__(*args)

    monkeypatch.setattr(tensormod, "TapeNode", RecordingNode)
    model.forward(Tensor(x), mode="eval")  # grad on: the recording works
    assert recorded and set(recorded) == {threading.current_thread().name}
    recorded.clear()

    workers = 4  # more than the cores of most test machines
    start = threading.Barrier(workers)
    results = [[] for _ in range(workers)]

    def work(i):
        start.wait(timeout=30)
        for _ in range(3):
            results[i].append(harness._eval_forward(model, x).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial] * 3] * workers
    assert recorded == []


def _failing_on_chunk(model, rows, exc):
    """model.forward that raises ``exc`` on the chunk starting with ``rows``'s first row."""
    forward = model.forward

    def failing(x, mode):
        if np.array_equal(x.data[0], rows[0]):
            raise exc
        return forward(x, mode=mode)

    return failing


def test_split_forward_matches_each_chunk_and_pins_blas_inside(monkeypatch):
    model = build_resnet18(desk_config("cbam"), seed=8)
    x = np.random.default_rng(4).uniform(size=(5, 1, 32, 32))
    chunks = np.array_split(x, 2)
    expected = np.concatenate([model.forward(Tensor(c), mode="eval").data for c in chunks])
    before = blas.threads()
    seen = []
    forward = model.forward

    def recording(x, mode):
        seen.append((len(x.data), blas.threads()))
        return forward(x, mode=mode)

    monkeypatch.setattr(model, "forward", recording)
    got = harness._split_forward(model, x, 2)
    assert got.tobytes() == expected.tobytes()
    assert sorted(seen) == [(2, None if before is None else 1), (3, None if before is None else 1)]
    assert blas.threads() == before


@pytest.mark.parametrize("chunk", [0, 1])  # the calling thread's chunk, a worker's chunk
def test_split_forward_reraises_a_chunk_error_and_restores_blas(chunk, monkeypatch):
    model = build_resnet18(desk_config(), seed=8)
    x = np.random.default_rng(5).uniform(size=(4, 1, 32, 32))
    boom = RuntimeError("chunk failed")
    monkeypatch.setattr(model, "forward",
                        _failing_on_chunk(model, np.array_split(x, 2)[chunk], boom))
    before = blas.threads()
    with pytest.raises(RuntimeError) as info:
        harness._split_forward(model, x, 2)
    assert info.value is boom
    assert blas.threads() == before


def test_desk_and_stub_evaluation_never_split(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluation split a batch it should score serially")

    monkeypatch.setattr(harness, "_pool", None)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", forbidden)
    monkeypatch.setattr(blas, "one_thread", forbidden)
    monkeypatch.setattr(blas, "split_cores", lambda: 8)
    before = blas.threads()
    ds = synth_dataset(SynthConfig(per_class_test=11, seed=7), "test")
    top1_accuracy(build_resnet18(desk_config("cbam"), seed=8), ds, 32)
    assert top1_accuracy(LookupModel(ds, 3), ds, 32) == 1.0
    big = Dataset([SarImage(np.full((128, 128), 0.1 * i), i % 3) for i in range(8)],
                  ["0", "1", "2"], "test")
    top1_accuracy(ConstantModel(3, 128), big, 8)
    assert harness._pool is None
    assert blas.threads() == before


def test_full_size_chips_split_into_one_chunk_per_core(monkeypatch):
    # the work gate reads the chip size and the model's stem width
    big = Dataset([SarImage(np.full((128, 128), 0.1 * i), i % 3) for i in range(8)],
                  ["0", "1", "2"], "test")
    model = LookupModel(big, 3)
    model.cfg.stage_widths = (64,)
    calls = []
    forward = model.forward

    def recording(x, mode="eval"):
        calls.append((len(x.data), threading.current_thread().name))
        return forward(x, mode)

    monkeypatch.setattr(model, "forward", recording)
    monkeypatch.setattr(blas, "split_cores", lambda: 2)
    before = blas.threads()
    assert top1_accuracy(model, big, 8) == 1.0
    assert sorted(n for n, _ in calls) == [4, 4]
    assert len({name for _, name in calls}) == 2
    assert blas.threads() == before


# ---------------------------------------------------------------------------
# report formatting


def reference_reports():
    return [
        TrialReport("Standard ResNet-18", [0.9710, 0.9724, 0.9745]),
        TrialReport("CBAM ResNet-18", [0.9752, 0.9758, 0.9789],
                    baseline_tag="Standard ResNet-18"),
        TrialReport("SENet ResNet-18", [0.9724, 0.9745, 0.9766],
                    baseline_tag="Standard ResNet-18"),
        TrialReport("ECANet ResNet-18", [0.9717, 0.9748, 0.9724],
                    baseline_tag="Standard ResNet-18"),
    ]


def test_report_reproduces_reference_averages():
    text = format_report(reference_reports())
    assert "97.10% | 97.24% | 97.45% | 97.26%" in text
    assert "97.66% (+0.40%)" in text
    assert "97.45% (+0.19%)" in text
    assert "97.30% (+0.04%)" in text


def test_report_baseline_row_has_no_delta():
    text = format_report(reference_reports())
    baseline_line = [l for l in text.splitlines() if l.startswith("Standard")][0]
    assert "(" not in baseline_line


def test_report_empty_is_header_only():
    text = format_report([])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split(" | ") == ["Model", "Average"]


def test_report_columns_come_from_the_longest_row():
    text = format_report([TrialReport("a", [0.5]), TrialReport("b", [0.25, 0.75, 0.5])])
    header, _, short, long = text.splitlines()
    assert header.split(" | ") == ["Model", "Test 1", "Test 2", "Test 3", "Average"]
    assert short.split(" | ")[-1] == "50.00%" and len(short) == len(long)


def test_report_average_matches_printed_values_rounding():
    # half-even rounding: printed average recomputes from the printed cells
    rep = TrialReport("m", [0.97105, 0.97105, 0.97105])
    text = format_report([rep])
    # three cells print 97.10, and the average of the printed cells matches
    assert text.count("97.10%") == 4
    assert "97.10% | 97.10%" in text


def test_report_deterministic_bytes():
    a = format_report(reference_reports(), title="T")
    b = format_report(reference_reports(), title="T")
    assert a == b


def test_report_negative_delta():
    reports = [TrialReport("none", [0.90, 0.90, 0.90]),
               TrialReport("worse", [0.80, 0.80, 0.80], baseline_tag="none")]
    assert "(-10.00%)" in format_report(reports)


# ---------------------------------------------------------------------------
# training protocol


def fast_cfg(**over):
    cfg = {
        "seed": "7",
        "data.per_class_train": "10",
        "data.per_class_test": "5",
        "train.epochs": "1",
    }
    cfg.update({k: str(v) for k, v in over.items()})
    return cfg


def test_untrained_model_is_near_chance():
    # the protocol rejects train.epochs = 0, so evaluate the freshly built
    # model that trial 1 of the protocol would start from
    cfg = cfgmod.resolve(fast_cfg(**{"data.per_class_test": "20"}))
    model = build_resnet18(model_config_from(cfg), seed=cfgmod.get_int(cfg, "seed"))
    acc = top1_accuracy(model, synth_dataset(synth_config_from(cfg), "test"))
    assert abs(acc - 1.0 / 3.0) <= 0.15


def test_divergence_error_names_variant_and_trial():
    # batchnorm rescales merely huge activations, so the rate must be large
    # enough to overflow float64 in the convolutions
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergenceError, match=r"variant 'none' trial 1"):
            run_protocol(fast_cfg(**{"train.lr": "1e160", "train.epochs": "3"}),
                         ["none"], trials=1)


def test_protocol_is_byte_deterministic():
    a = run_protocol(fast_cfg(), ["none"], trials=1)
    b = run_protocol(fast_cfg(), ["none"], trials=1)
    assert a.render() == b.render()
    assert a.checkpoints[("none", 0)] == b.checkpoints[("none", 0)]


def test_protocol_report_embeds_config():
    result = run_protocol(fast_cfg(), ["none"], trials=1)
    text = result.render()
    assert "train.lr = 0.05" in text
    assert "perturb.scale = 0.011764705882352941" in text
    assert "Top-1 accuracy" in text
    for key in ("perturb.mean", "perturb.interpretation", "protocol.perturbed_models"):
        assert key not in text


def test_protocol_perturbed_table_present():
    result = run_protocol(fast_cfg(), ["none"], trials=1)
    assert "input perturbation" in result.render()


def test_protocol_needs_a_trial():
    with pytest.raises(HarnessError, match="trial"):
        run_protocol(fast_cfg(), ["none"], trials=0)


def test_protocol_rejects_unknown_perturbed_models():
    with pytest.raises(cfgmod.ConfigFileError,
                       match="unknown config key 'protocol.perturbed_models'"):
        run_protocol(fast_cfg(**{"protocol.perturbed_models": "fresh"}), ["none"], trials=1)


def test_protocol_perturbed_rows_score_each_trials_own_model():
    # noise this large moves accuracy, so a row scored on another model shows
    cfg = cfgmod.resolve(fast_cfg(**{"perturb.scale": "0.3"}))
    result = run_protocol(cfg, ["none", "eca"], trials=2)
    test = synth_dataset(synth_config_from(cfg), "test")
    spec = perturb_spec_from(cfg)
    batch_size = train_settings_from(cfg)[3]
    for row in result.perturbed:
        expected = []
        for trial in range(2):
            model = build_resnet18(model_config_from({**cfg, "model.attention": row.tag}),
                                   seed=7 + trial, init=False)
            model.load_state(parse_tensors(result.checkpoints[(row.tag, trial)]))
            noisy = perturb_dataset(test, PerturbSpec(
                spec.scale, derive_seed(spec.seed, row.tag, trial)))
            expected.append(top1_accuracy(model, noisy, batch_size))
        assert row.trials == expected


@pytest.mark.parametrize("epochs, batch_size, message", [
    (1, 0, "batch_size must be at least 2, got 0"),
    (1, 1, "batch_size must be at least 2, got 1"),
    (0, 4, "epochs must be at least 1, got 0"),
    (-1, 4, "epochs must be at least 1, got -1")])
def test_train_model_checks_its_arguments(epochs, batch_size, message):
    model = build_resnet18(desk_config(), seed=3)
    with pytest.raises(HarnessError, match=message):
        train_model(model, gray_dataset([0, 1, 2, 0], size=32), epochs, 0.01, 0.0,
                    batch_size, seed=4)


@pytest.mark.parametrize("samples", [0, 1])
def test_train_model_rejects_a_dataset_of_fewer_than_2_samples(samples):
    model = build_resnet18(desk_config(), seed=3)
    dataset = Dataset(gray_dataset([0], size=32).images[:samples], ["0"], "train")
    with pytest.raises(HarnessError, match=f"dataset must hold at least 2 samples, got {samples}"):
        train_model(model, dataset, 1, 0.01, 0.0, 4, seed=4)


def test_train_model_frees_each_step_before_the_next_forward(monkeypatch):
    ds = synth_dataset(SynthConfig(per_class_train=4, num_classes=3, seed=1), "train")
    model = build_resnet18(desk_config("cbam"), seed=3)
    forward, steps, live = model.forward, [], []

    def spy(x, mode="eval"):
        live.append(sum(ref() is not None for ref in steps))
        logits = forward(x, mode)
        steps.append(weakref.ref(logits))  # the tape links nodes: only the step holds these
        return logits

    monkeypatch.setattr(model, "forward", spy)
    train_model(model, ds, 2, 0.01, 0.0, 4, seed=4)
    assert live == [0] * 6  # no earlier step's logits, and so none of its tape


def test_train_model_releases_each_tape_before_the_step(monkeypatch):
    ds = synth_dataset(SynthConfig(per_class_train=4, num_classes=3, seed=1), "train")
    model = build_resnet18(desk_config("cbam"), seed=3)
    stem, step, stems, live = model.stem_conv.forward, SgdOptimizer.step, [], []

    def spy_stem(x):
        out = stem(x)
        stems.append(weakref.ref(out.node.backward))  # the tape holds it until backward
        return out

    def spy_step(opt):
        live.append(stems[-1]() is not None)
        step(opt)

    monkeypatch.setattr(model.stem_conv, "forward", spy_stem)
    monkeypatch.setattr(SgdOptimizer, "step", spy_step)
    train_model(model, ds, 2, 0.01, 0.9, 4, seed=4)
    assert live == [False] * 6  # backward freed the tape before the optimizer ran


def test_train_model_skips_degenerate_tail_batch():
    # 11 samples with batch 4 leaves a 3-sample tail, all usable; batch 10
    # leaves a single sample which batchnorm cannot take
    ds = synth_dataset(SynthConfig(per_class_train=4, num_classes=3, seed=1), "train")
    assert len(ds) == 12
    model = build_resnet18(desk_config(), seed=3)
    losses = train_model(model, ds, 1, 0.01, 0.0, 11, seed=4)
    assert len(losses) == 1 and np.isfinite(losses[0])


# ---------------------------------------------------------------------------
# checkpoint round trip via save/load_model


def test_load_model_takes_a_zero_but_not_a_negative_running_variance(tmp_path):
    path, model = tmp_path / "m.ckpt", build_resnet18(desk_config(), seed=2)
    model.stem_bn.running_var[:] = 0.0
    save_model(path, model)
    assert np.array_equal(load_model(path).stem_bn.running_var, np.zeros(4))
    model.stem_bn.running_var[2] = -1e-300
    save_model(path, model)
    with pytest.raises(HarnessError, match="'stem.bn.running_var' holds a negative variance"):
        load_model(path)


def test_save_load_model_roundtrip(tmp_path):
    synth = SynthConfig(per_class_train=10, per_class_test=5, seed=7)
    train = synth_dataset(synth, "train")
    model = build_resnet18(desk_config("eca"), seed=7)
    train_model(model, train, 1, 0.05, 0.9, 8, seed=7)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    assert (tmp_path / "m.ckpt.cfg").is_file()

    clone = load_model(path)
    x = Tensor(np.random.default_rng(9).uniform(size=(2, 1, 32, 32)))
    assert np.array_equal(clone.forward(x, "eval").data,
                          model.forward(x, "eval").data)
    assert clone.cfg.attention == "eca"


def test_load_model_draws_no_init_values(tmp_path, monkeypatch):
    model = build_resnet18(desk_config("cbam"), seed=41)
    x = Tensor(np.random.default_rng(42).uniform(size=(4, 1, 32, 32)))
    labels = [0, 1, 2, 0]
    path = tmp_path / "m.ckpt"
    save_model(path, model)

    def refuse(*args, **kwargs):
        raise AssertionError("load_model drew an init value")

    with monkeypatch.context() as patch:
        patch.setattr(SplitMix64, "uniform", refuse)
        clone = load_model(path)
    assert dump_tensors(clone.named_state()) == path.read_bytes()
    assert clone.seed == 41

    states = []
    for net in (model, clone):  # one more momentum step from the same state
        opt = SgdOptimizer(net.named_params(), lr=0.1, momentum=0.9)
        softmax_cross_entropy(net.forward(x, "train"), labels).backward()
        opt.step()
        states.append(dump_tensors(net.named_state()))
    assert states[0] == states[1]


def test_load_model_refuses_an_old_in_channels_sidecar_line(tmp_path):
    # a key the model dropped is refused like any other unknown key
    model = build_resnet18(desk_config("se"), seed=5)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    sidecar = tmp_path / "m.ckpt.cfg"
    text = sidecar.read_text()
    assert "in_channels" not in text
    old = cfgmod.format_config({**cfgmod.parse_config(text), "model.in_channels": "1"})
    sidecar.write_text(old)
    with pytest.raises(HarnessError, match="unknown key 'model.in_channels'"):
        load_model(path)


def test_load_model_requires_sidecar(tmp_path):
    model = build_resnet18(desk_config(), seed=1)
    from attnatr.checkpoint import save_checkpoint
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model.named_state())
    with pytest.raises(HarnessError, match="sidecar"):
        load_model(path)


# ---------------------------------------------------------------------------
# config files


def test_config_parse_basics():
    text = """
    # a comment
    seed = 11
    model.attention = cbam   # trailing comment
    perturb.scale=0.2
    """
    cfg = cfgmod.parse_config(text)
    assert cfg == {"seed": "11", "model.attention": "cbam", "perturb.scale": "0.2"}


def test_config_rejects_bare_words():
    with pytest.raises(cfgmod.ConfigFileError, match="key = value"):
        cfgmod.parse_config("not an assignment\n")


def test_config_resolve_layers():
    merged = cfgmod.resolve({"seed": "3"}, {"seed": "4", "train.lr": "0.1"})
    assert merged["seed"] == "4"
    assert merged["train.lr"] == "0.1"
    assert merged["model.attention"] == "none"


def test_config_resolve_rejects_unknown_key():
    with pytest.raises(cfgmod.ConfigFileError, match="unknown config key 'train.epoch'"):
        cfgmod.resolve({"seed": "3"}, {"train.epoch": "3"})


def test_config_typed_getters():
    cfg = {"a": "3", "b": "x", "c": "0.5"}
    assert cfgmod.get_int(cfg, "a") == 3
    assert cfgmod.get_float(cfg, "c") == 0.5
    with pytest.raises(cfgmod.ConfigFileError):
        cfgmod.get_int(cfg, "b")
    with pytest.raises(cfgmod.ConfigFileError):
        cfgmod.resolve({"model.profile": "y"})


def test_config_format_roundtrip():
    cfg = {"b.key": "2", "a.key": "1"}
    text = cfgmod.format_config(cfg)
    assert text == "a.key = 1\nb.key = 2\n"
    assert cfgmod.parse_config(text) == cfg
