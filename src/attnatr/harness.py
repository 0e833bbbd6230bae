"""Experiment protocols: multi-trial accuracy, noise robustness, reporting.

A protocol run trains one model per (variant, trial) with trial-specific
seeds, evaluates each model's clean and noise-perturbed top-1 accuracy, and
formats the results as fixed-width tables whose printed averages follow the
printed per-test values under round-half-even at two decimals.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np

from . import blas
from . import config as cfgmod
from .backbone import ModelConfig, ResNet, build_resnet18, desk_config
from .checkpoint import dump_tensors, load_checkpoint, save_checkpoint
from .data import Dataset, SarImage, SynthConfig, synth_dataset
from .layers import SgdOptimizer, softmax_cross_entropy
from .rng import SplitMix64, derive_seed
from .tensor import Tensor, no_grad


class HarnessError(ValueError):
    pass


class TrainingDivergenceError(RuntimeError):
    """Raised when the training loss stops being finite."""


# ---------------------------------------------------------------------------
# input perturbation


@dataclass
class PerturbSpec:
    """Zero-mean gaussian input noise of standard deviation ``scale``."""

    scale: float
    seed: int = 0

    def sigma(self) -> float:
        if self.scale <= 0:
            raise HarnessError(f"perturbation scale must be > 0, got {self.scale}")
        return self.scale


def perturbed_title(sigma: float) -> str:
    """Title of an accuracy table under noise of standard deviation ``sigma``."""
    return f"Top-1 accuracy under N(0, sigma={sigma:.6f}) input perturbation"


def perturb_gaussian(image: SarImage, spec: PerturbSpec, rng: SplitMix64) -> SarImage:
    """Add seeded gaussian noise per pixel and clip back into [0, 1]."""
    noise = rng.gaussian(image.magnitude.shape, 0.0, spec.sigma())
    return SarImage(np.clip(image.magnitude + noise, 0.0, 1.0), image.label)


def perturb_dataset(dataset: Dataset, spec: PerturbSpec) -> Dataset:
    """Perturb every image with an independent stream derived per index."""
    images = [perturb_gaussian(img, spec, SplitMix64(derive_seed(spec.seed, "perturb", i)))
              for i, img in enumerate(dataset.images)]
    return Dataset(images, dataset.class_names, dataset.split)


# ---------------------------------------------------------------------------
# evaluation and training


def _batch_array(images) -> np.ndarray:
    return np.stack([img.magnitude for img in images])[:, None, :, :]


# Per-chip work (pixels x stem width) from which a batch splits across cores:
# the desk profile does 4,096 and is bound by the interpreter lock, where
# threads only slow it; the full profile does 1,048,576.
SPLIT_MIN_CHIP_WORK = 65_536
_pool = None  # worker threads for every chunk but the first, made on first split
_pool_lock = threading.Lock()


def _eval_forward(model: ResNet, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits of ``x``; grad mode is per thread, so each chunk's
    thread turns the tape off itself."""
    with no_grad():
        return model.forward(Tensor(x), mode="eval").data


def _split_forward(model: ResNet, x: np.ndarray, parts: int) -> np.ndarray:
    """Eval-mode logits of ``x`` as ``parts`` contiguous chunks, one per core,
    joined in order.  OpenBLAS runs one thread per chunk meanwhile."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, blas.split_cores() - 1),
                                       thread_name_prefix="attnatr-eval")
    first, *rest = np.array_split(x, parts)
    with blas.one_thread():
        futures = [_pool.submit(_eval_forward, model, chunk) for chunk in rest]
        try:
            logits = [_eval_forward(model, first)]
        finally:
            wait(futures)  # no chunk still runs once BLAS threads are restored
        logits += [f.result() for f in futures]
    return np.concatenate(logits)


def _eval_logits(model: ResNet, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits, split across cores when each chip is large enough."""
    widths = getattr(model.cfg, "stage_widths", None)
    if widths and x[0].size * widths[0] >= SPLIT_MIN_CHIP_WORK:
        parts = min(blas.split_cores(), len(x))
        if parts > 1:
            return _split_forward(model, x, parts)
    return _eval_forward(model, x)


def top1_accuracy(model: ResNet, dataset: Dataset, batch_size: int = 32) -> float:
    """Fraction of samples whose argmax logit equals the label.

    Argmax ties break to the lowest class index.  Convolutions multiply each
    sample on its own, but a linear layer (the head, and the SE and CBAM
    MLPs) multiplies its rows at once, and BLAS may round them differently
    by row count (by about 1e-17).  A batch whose chips are large (full
    profile) is scored in one contiguous chunk per usable core, so those
    row counts follow the core count as well as the batch size.  So
    accuracy can differ between batch sizes or core counts only for a
    sample whose top two logits lie within that rounding.
    """
    if len(dataset) == 0:
        raise HarnessError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise HarnessError(f"batch size must be at least 1, got {batch_size}")
    label = max(img.label for img in dataset.images)
    if label >= model.cfg.num_classes:
        raise HarnessError(f"label {label} is out of range for a model of "
                           f"{model.cfg.num_classes} classes")
    hits = 0
    for start in range(0, len(dataset), batch_size):
        chunk = dataset.images[start:start + batch_size]
        pred = np.argmax(_eval_logits(model, _batch_array(chunk)), axis=1)
        hits += int(sum(p == img.label for p, img in zip(pred, chunk)))
    return hits / len(dataset)


def train_model(model: ResNet, dataset: Dataset, epochs: int, lr: float,
                momentum: float, batch_size: int, seed: int,
                context: str = "training") -> list:
    """SGD training with seeded shuffling; returns mean loss per epoch."""
    for name, value, least in (("epochs", epochs, 1), ("batch_size", batch_size, 2)):
        if value < least:
            raise HarnessError(f"{name} must be at least {least}, got {value}")
    if len(dataset) < 2:  # batchnorm needs at least two samples
        raise HarnessError(f"dataset must hold at least 2 samples, got {len(dataset)}")
    params = model.named_params()
    opt = SgdOptimizer(params, lr=lr, momentum=momentum)
    shuffle_rng = SplitMix64(derive_seed(seed, "shuffle"))
    labels = np.array([img.label for img in dataset.images])
    epoch_losses = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(dataset))
        total, batches = 0.0, 0
        for start in range(0, len(dataset), batch_size):
            idx = order[start:start + batch_size]
            if len(idx) < 2:
                continue  # batchnorm needs at least two samples
            batch = [dataset.images[i] for i in idx]
            logits = model.forward(Tensor(_batch_array(batch)), mode="train")
            loss = softmax_cross_entropy(logits, labels[idx])
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDivergenceError(
                    f"{context}: loss became non-finite ({value}) "
                    f"at epoch {epoch + 1}")
            opt.zero_grad()
            loss.backward()  # frees the tape before the step
            opt.step()
            del logits, loss  # else this step's output lives through the next forward
            total += value
            batches += 1
        epoch_losses.append(total / batches)
    return epoch_losses


# ---------------------------------------------------------------------------
# reports


@dataclass
class TrialReport:
    tag: str
    trials: list  # per-trial accuracies as fractions
    baseline_tag: str | None = None


def _cent(value) -> Decimal:
    return value.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)


def format_report(reports: list, title: str = "") -> str:
    """Render TrialReports as a fixed-width Table-I-style text table.

    There is one Test column per trial of the longest row.  Per-test cells
    are percentages rounded half-even to two decimals; the Average column is
    the mean of the printed per-test values under the same rounding; deltas
    compare printed averages against the baseline row.
    """
    trials = max((len(rep.trials) for rep in reports), default=0)
    cells = [[_cent(Decimal(repr(float(v) * 100.0))) for v in rep.trials] for rep in reports]
    averages = [_cent(sum(row) / len(row)) for row in cells]
    printed = {rep.tag: avg for rep, avg in zip(reports, averages)}
    table = [["Model"] + [f"Test {i + 1}" for i in range(trials)] + ["Average"]]
    for rep, row, avg in zip(reports, cells, averages):
        avg_text = f"{avg}%"
        if rep.baseline_tag in printed and rep.baseline_tag != rep.tag:
            delta = avg - printed[rep.baseline_tag]
            avg_text += f" ({'+' if delta >= 0 else '-'}{abs(delta)}%)"
        table.append([rep.tag] + [f"{c}%" for c in row] + [""] * (trials - len(row))
                     + [avg_text])
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(([title] if title else []) + lines) + "\n"


# ---------------------------------------------------------------------------
# config plumbing


def model_config_from(cfg: dict) -> ModelConfig:
    base = desk_config() if cfgmod.get(cfg, "model.profile") == "desk" else ModelConfig()
    return replace(base, input_size=cfgmod.get(cfg, "data.image_size"),
                   num_classes=cfgmod.get(cfg, "data.classes"),
                   **{f.name: cfgmod.get(cfg, f"model.{f.name}") for f in fields(ModelConfig)
                      if f"model.{f.name}" in cfgmod.SCHEMA}).validate()


def synth_config_from(cfg: dict) -> SynthConfig:
    return SynthConfig(
        num_classes=cfgmod.get(cfg, "data.classes"),
        per_class_train=cfgmod.get(cfg, "data.per_class_train"),
        per_class_test=cfgmod.get(cfg, "data.per_class_test"),
        image_size=cfgmod.get(cfg, "data.image_size"),
        speckle_looks=cfgmod.get(cfg, "data.speckle_looks"),
        seed=cfgmod.get(cfg, "seed"),
    )


def train_settings_from(cfg: dict) -> tuple:
    """(epochs, lr, momentum, batch_size) from the ``train.*`` keys."""
    return tuple(cfgmod.get(cfg, f"train.{name}")
                 for name in ("epochs", "lr", "momentum", "batch_size"))


def datasets_from(cfg: dict) -> tuple:
    """(train, test) synthetic datasets of a resolved config."""
    synth_cfg = synth_config_from(cfg)
    return synth_dataset(synth_cfg, "train"), synth_dataset(synth_cfg, "test")


def train_variant(cfg: dict, variant: str, seed: int, train_ds: Dataset,
                  context: str) -> tuple:
    """Build the ``variant`` model of a resolved config from ``seed`` and
    train it with the ``train.*`` settings; returns (model, epoch losses)."""
    model = build_resnet18(model_config_from({**cfg, "model.attention": variant}),
                           seed=seed)
    losses = train_model(model, train_ds, *train_settings_from(cfg), seed,
                         context=context)
    return model, losses


def perturb_spec_from(cfg: dict) -> PerturbSpec:
    return PerturbSpec(scale=cfgmod.get(cfg, "perturb.scale"),
                       seed=derive_seed(cfgmod.get(cfg, "seed"), "perturb"))


def save_model(path, model: ResNet):
    """Write the checkpoint plus a flat-config sidecar describing the topology."""
    save_checkpoint(path, model.named_state())
    sidecar = {"model.seed": str(model.seed)}
    for f in fields(ModelConfig):
        value = getattr(model.cfg, f.name)
        sidecar[f"model.{f.name}"] = ",".join(str(v) for v in value) \
            if isinstance(f.default, tuple) else str(value)
    Path(str(path) + ".cfg").write_text(cfgmod.format_config(sidecar))


def load_model(path) -> ResNet:
    """Rebuild a model from a checkpoint and its topology sidecar, skipping
    the init draws: the checkpoint overwrites every value.  A sidecar key
    that names no model field, a NaN or infinite value, or a negative
    batchnorm running variance, is an error naming the key or tensor."""
    sidecar_path = Path(str(path) + ".cfg")
    if not sidecar_path.is_file():
        raise HarnessError(
            f"missing topology sidecar {sidecar_path}; checkpoints are saved "
            "with a .cfg companion describing the architecture")
    side = cfgmod.parse_config(sidecar_path.read_text())
    known = {"model.seed", *(f"model.{f.name}" for f in fields(ModelConfig))}
    unknown = [key for key in side if key not in known]
    if unknown:
        raise HarnessError(f"topology sidecar {sidecar_path}: unknown key "
                           + ", ".join(map(repr, unknown)))
    cfg = ModelConfig(**{f.name: cfgmod.GETTERS[type(f.default)](side, f"model.{f.name}")
                         for f in fields(ModelConfig)})
    model = build_resnet18(cfg, seed=cfgmod.get_int(side, "model.seed"), init=False)
    state = load_checkpoint(path)
    for name, values in state.items():
        if not np.isfinite(values).all():
            raise HarnessError(f"checkpoint {path}: tensor {name!r} holds a non-finite value")
        if name.endswith(".running_var") and (values < 0).any():
            raise HarnessError(f"checkpoint {path}: tensor {name!r} holds a negative variance")
    model.load_state(state)
    return model


# ---------------------------------------------------------------------------
# the protocol


@dataclass
class ProtocolResult:
    resolved: dict
    clean: list = field(default_factory=list)
    perturbed: list = field(default_factory=list)
    checkpoints: dict = field(default_factory=dict)  # (variant, trial) -> bytes

    def render(self) -> str:
        sigma = perturb_spec_from(self.resolved).sigma()
        return "\n".join(["== Resolved config ==",
                          cfgmod.format_config(self.resolved),
                          "== Top-1 accuracy ==",
                          format_report(self.clean),
                          f"== {perturbed_title(sigma)} ==",
                          format_report(self.perturbed)])


def run_protocol(cfg: dict | None, variants, trials: int, out_dir=None) -> ProtocolResult:
    """Train and evaluate each attention variant over seeded trials.

    Trial t of any variant uses seed base_seed + t for both parameter
    initialization and shuffling; the datasets are fixed across trials.
    Each trial trains one model, which is scored on the clean test set and
    on a copy perturbed by a stream derived from the variant and the trial.
    """
    if trials < 1:
        raise HarnessError(f"need at least one trial, got {trials}")
    if not variants or len(set(variants)) < len(variants):
        raise HarnessError(f"need one or more distinct variants, got {list(variants)}")
    resolved = cfgmod.resolve(cfg)
    for variant in variants:  # a bad variant fails before any training
        model_config_from({**resolved, "model.attention": variant})
    *_, batch_size = train_settings_from(resolved)
    base_seed = cfgmod.get(resolved, "seed")
    train_ds, test_ds = datasets_from(resolved)
    spec = perturb_spec_from(resolved)

    baseline = "none" if "none" in variants else None
    result = ProtocolResult(resolved={**resolved, "protocol.trials": str(trials)})
    for variant in variants:
        clean_accs, noisy_accs = [], []
        for trial in range(trials):
            model, _ = train_variant(resolved, variant, base_seed + trial, train_ds,
                                     f"variant {variant!r} trial {trial + 1}")
            clean_accs.append(top1_accuracy(model, test_ds, batch_size))
            noisy = perturb_dataset(
                test_ds, replace(spec, seed=derive_seed(spec.seed, variant, trial)))
            noisy_accs.append(top1_accuracy(model, noisy, batch_size))
            result.checkpoints[(variant, trial)] = dump_tensors(model.named_state())
            if out_dir is not None:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                save_model(out / f"{variant}_t{trial + 1}.ckpt", model)
        tag_base = baseline if variant != baseline else None
        result.clean.append(TrialReport(variant, clean_accs, baseline_tag=tag_base))
        result.perturbed.append(TrialReport(variant, noisy_accs, baseline_tag=tag_base))
    return result
