"""The benchmark workloads: desk_protocol, full_train and full_infer.

A workload is built from the workload seed alone; the program receives only
a generated config, synthetic data and a model seed.  ``setup`` runs
once per process.  ``operation`` runs one closed-loop operation, made of
parts that the recorder times, and then checks its outputs outside the timed
parts.  ``may_stop`` says whether enough repeats have run for the correctness
gate to compare them, and enough samples for the tail figures.  ``outputs``
gives the digests and accuracies of the seed's results, which a comparison
of two commits checks side by side.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import numpy as np

# Traced functions are called through their modules (``harness.load_model``),
# so that the tracer's replacements in those modules take effect here too.
from attnatr import backbone, checkpoint, config, data, explain, harness, layers
from attnatr.rng import SplitMix64, derive_seed
from attnatr.tensor import Tensor

from spans import Patch

TAIL_SAMPLES = 20  # a tail percentile with ten samples beyond it needs this many


def _batch(images) -> tuple:
    return (np.stack([img.magnitude for img in images])[:, None, :, :],
            np.array([img.label for img in images]))


def train_step(model, opt, x: np.ndarray, labels: np.ndarray, rec=None) -> float:
    """One SGD step: forward, loss, backward and ``opt.step``; returns the loss."""
    opt.zero_grad()
    logits = model.forward(Tensor(x), mode="train")
    loss = layers.softmax_cross_entropy(logits, labels)
    value = loss.item()
    if rec is not None:
        rec.mark("forward_s")
    loss.backward()
    if rec is not None:
        rec.mark("backward_s")
    opt.step()
    return value


def _sgd(model, resolved: dict) -> layers.SgdOptimizer:
    return layers.SgdOptimizer(model.named_params(),
                               lr=config.get_float(resolved, "train.lr"),
                               momentum=config.get_float(resolved, "train.momentum"))


def _all_finite(arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


class _Repeats:
    """Compares a value across repeats of the same seeded work."""

    def __init__(self, what: str):
        self.what, self.first, self.count = what, None, 0

    def check(self, rec, value):
        self.count += 1
        if self.first is None:
            self.first = value
        elif value != self.first:
            rec.fail(f"{self.what} differs between repeats of one seed")


class Workload:
    """What the runner calls; see the module docstring."""

    def setup(self):
        raise NotImplementedError

    def operation(self, rec):
        raise NotImplementedError

    def may_stop(self, rec) -> bool:
        raise NotImplementedError

    def details(self, rec) -> dict:
        raise NotImplementedError

    def outputs(self) -> dict:
        raise NotImplementedError

    def close(self):
        """Remove any files the workload wrote."""


class DeskProtocol(Workload):
    """``run_protocol`` over all four variants, 1 trial, perturbed eval.

    The acceptance smoke config (32x32 chips, widths 4-32, batch 32, 300
    train and 150 test chips) at a fixed epoch count; one protocol run is one
    operation, repeated for the length of the run.
    """

    variants = ("none", "se", "eca", "cbam")
    epochs = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.cfg = {"seed": str(seed), "data.classes": "3",
                    "data.per_class_train": "100", "data.per_class_test": "50",
                    "data.image_size": "32", "train.batch_size": "32",
                    "train.epochs": str(self.epochs)}
        self.digests = _Repeats("protocol checkpoint and report SHA-256")
        self.accuracy = (float("nan"), float("nan"))
        self.rec = None  # the recorder, while a protocol run is timed
        self._install_meters()

    def _install_meters(self):
        """Time training and evaluation inside ``run_protocol``.

        The seconds of each ``train_model`` call are a ``train`` sample, and
        those of ``top1_accuracy`` and ``perturb_dataset`` an ``eval`` one.
        Each model forward adds its batch to the images of its mode.
        """
        def timed(kind):
            def make(fn):
                def wrapper(*args, **kwargs):
                    start = time.perf_counter()
                    out = fn(*args, **kwargs)
                    self.rec.sample(kind, time.perf_counter() - start)
                    return out
                return wrapper
            return make

        def counted(forward):
            def wrapper(model, x, mode="eval", *args, **kwargs):
                if self.rec is not None:
                    self.rec.images["train" if mode == "train" else "eval"] += x.shape[0]
                return forward(model, x, mode, *args, **kwargs)
            return wrapper

        patch = Patch()
        patch.add("attnatr.harness", "train_model", timed("train"))
        patch.add("attnatr.harness", "top1_accuracy", timed("eval"))
        patch.add("attnatr.harness", "perturb_dataset", timed("eval"))
        patch.add("attnatr.backbone:ResNet", "forward", counted)
        patch.apply()

    def setup(self):
        resolved = config.resolve(self.cfg)
        synth = harness.synth_config_from(resolved)
        train = data.synth_dataset(synth, "train")
        data.synth_dataset(synth, "test")
        x, y = _batch(train.images[:config.get_int(resolved, "train.batch_size")])
        for variant in self.variants:
            cfg = harness.model_config_from({**resolved, "model.attention": variant})
            model = backbone.build_resnet18(cfg, seed=self.seed)
            train_step(model, _sgd(model, resolved), x, y)

    def operation(self, rec):
        self.rec = rec
        try:
            with rec.part("protocol"):
                result = harness.run_protocol(self.cfg, self.variants, trials=1)
        finally:
            self.rec = None
        blobs = [result.checkpoints[(v, 0)] for v in self.variants]
        self.digests.check(rec, (hashlib.sha256(b"".join(blobs)).hexdigest(),
                                 hashlib.sha256(result.render().encode()).hexdigest()))
        if not all(_all_finite(checkpoint.parse_tensors(b).values()) for b in blobs):
            # SGD carries a non-finite gradient into the parameters for good,
            # so finite final parameters mean every gradient was finite
            rec.fail("non-finite parameter after training")
        self.accuracy = (float(np.mean([r.trials[0] for r in result.clean])),
                         float(np.mean([r.trials[0] for r in result.perturbed])))

    def may_stop(self, rec) -> bool:
        return self.digests.count >= 2

    def outputs(self) -> dict:
        checkpoints, report = self.digests.first or (None, None)
        clean, perturbed = self.accuracy
        return {"checkpoints_sha256": checkpoints, "report_sha256": report,
                "clean_accuracy": clean, "perturbed_accuracy": perturbed}

    def details(self, rec) -> dict:
        clean, perturbed = self.accuracy
        return {
            "protocol_s": rec.timing("protocol"),
            "train_images_per_s": rec.rate("train"),
            "eval_images_per_s": rec.rate("eval"),
            "clean_accuracy": {"value": clean, "unit": "fraction", "better": "higher"},
            "perturbed_accuracy": {"value": perturbed, "unit": "fraction", "better": "higher"},
        }

def _full_config(seed: int, **sizes) -> dict:
    cfg = {"seed": str(seed), "model.profile": "full", "model.attention": "cbam",
           "model.insertion": "in_block", "data.image_size": "128",
           "data.classes": "10", "train.batch_size": "8"}
    return config.resolve(cfg, {f"data.{k}": str(v) for k, v in sizes.items()})


class FullTrain(Workload):
    """Full-profile SGD steps (128x128, widths 64-512, CBAM in_block), batch 8.

    Steps run in episodes of ``steps_per_episode`` from the state left by the
    set-up, so every episode must end in the same checkpoint.
    """

    steps_per_episode = 3
    batch_size = 8

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.resolved = _full_config(seed, per_class_train=4)
        self.digests = _Repeats("trained checkpoint SHA-256")
        self.model = self.opt = None
        self.k = 0

    def setup(self):
        train = data.synth_dataset(harness.synth_config_from(self.resolved), "train")
        order = SplitMix64(derive_seed(self.seed, "batches")).permutation(len(train))
        images = [train.images[i] for i in order]
        self.batches = [_batch(images[s:s + self.batch_size])
                        for s in range(0, len(images) - self.batch_size + 1, self.batch_size)]
        self.model = backbone.build_resnet18(harness.model_config_from(self.resolved),
                                             seed=self.seed)
        train_step(self.model, _sgd(self.model, self.resolved), *self.batches[0])
        self.start = {name: arr.copy() for name, arr in self.model.named_state()}
        self.k = 0

    def operation(self, rec):
        if self.k == 0:
            self.model.load_state({name: arr.copy() for name, arr in self.start.items()})
            self.opt = _sgd(self.model, self.resolved)
        x, labels = self.batches[self.k % len(self.batches)]
        self.k += 1
        with rec.part("step", images=len(labels)):
            loss = train_step(self.model, self.opt, x, labels, rec)
        if not np.isfinite(loss):
            rec.fail(f"non-finite loss {loss}")
        if not _all_finite(p.grad for _, p in self.model.named_params()):
            rec.fail("non-finite parameter gradient")
        if self.k == self.steps_per_episode:
            self.k = 0
            self.digests.check(rec, hashlib.sha256(
                checkpoint.dump_tensors(self.model.named_state())).hexdigest())

    def may_stop(self, rec) -> bool:
        return (self.k == 0 and self.digests.count >= 2
                and len(rec.samples["step"]) >= TAIL_SAMPLES)

    def outputs(self) -> dict:
        return {"checkpoint_sha256": self.digests.first}

    def details(self, rec) -> dict:
        return {
            "train_step_s.p50": rec.timing("step"),
            "train_step_s.tail": rec.timing("step", tail=True),
            "forward_s.p50": rec.timing("forward_s"),
            "backward_s.p50": rec.timing("backward_s"),
            "train_images_per_s": rec.rate("step"),
        }

class FullInfer(Workload):
    """Checkpoint round trip, clean and perturbed eval, and Grad-CAM maps.

    The full-profile CBAM model from one set-up step is saved with
    ``save_model`` and reloaded with ``load_model``; the reloaded model is
    evaluated in batches of 8, clean and perturbed, and explains single chips
    with ``gradcam_map``.  One such pass is one operation.
    """

    maps_per_pass = 4
    batch_size = 8

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.resolved = _full_config(seed, per_class_train=1, per_class_test=2)
        self.path = out_dir / f"full_infer-{os.getpid()}.ckpt"
        self.digests = _Repeats("trained checkpoint SHA-256")
        self.accuracies = _Repeats("clean and perturbed accuracy")
        self.spec = harness.PerturbSpec(scale=config.get_float(self.resolved, "perturb.scale"),
                                        seed=derive_seed(seed, "perturb"))
        self.model = None
        self.passes = 0

    def setup(self):
        synth = harness.synth_config_from(self.resolved)
        train = data.synth_dataset(synth, "train")
        self.test = data.synth_dataset(synth, "test")
        self.model = backbone.build_resnet18(harness.model_config_from(self.resolved),
                                             seed=self.seed)
        train_step(self.model, _sgd(self.model, self.resolved),
                   *_batch(train.images[:self.batch_size]))
        self.model.zero_grad()

    def _evaluate(self, rec, model, dataset) -> list:
        accs = []
        for s in range(0, len(dataset), self.batch_size):
            chunk = data.Dataset(dataset.images[s:s + self.batch_size],
                                 dataset.class_names, "test")
            with rec.part("eval_batch", images=len(chunk)):
                accs.append(harness.top1_accuracy(model, chunk, self.batch_size))
        return accs

    def operation(self, rec):
        with rec.part("roundtrip"):
            harness.save_model(self.path, self.model)
            model = harness.load_model(self.path)
        saved = self.path.read_bytes()
        if checkpoint.dump_tensors(model.named_state()) != saved:
            rec.fail("reloaded named_state differs from the saved bytes")
        self.digests.check(rec, hashlib.sha256(saved).hexdigest())

        clean = self._evaluate(rec, model, self.test)
        with rec.part("perturb", operation=False):
            noisy = harness.perturb_dataset(self.test, self.spec)
        self.accuracies.check(rec, (clean, self._evaluate(rec, model, noisy)))

        n = len(self.test)
        for j in range(self.maps_per_pass):
            img = self.test.images[(self.passes * self.maps_per_pass + j) % n]
            with rec.part("map", images=1):
                smap = explain.gradcam_map(model, img.magnitude, img.label)
            v = smap.values
            if v.shape != img.magnitude.shape or not _all_finite([v]) \
                    or v.min() < 0.0 or v.max() > 1.0:
                rec.fail(f"Grad-CAM map of shape {v.shape} outside [0, 1]")
        self.passes += 1

    def may_stop(self, rec) -> bool:
        return self.digests.count >= 2 and len(rec.samples["map"]) >= TAIL_SAMPLES

    def outputs(self) -> dict:
        clean, perturbed = self.accuracies.first or (None, None)
        return {"checkpoint_sha256": self.digests.first,
                "clean_batch_accuracies": clean, "perturbed_batch_accuracies": perturbed}

    def details(self, rec) -> dict:
        return {
            "eval_images_per_s": rec.rate("eval_batch", "perturb"),
            "gradcam_s.p50": rec.timing("map"),
            "gradcam_s.tail": rec.timing("map", tail=True),
            "checkpoint_roundtrip_s": rec.timing("roundtrip"),
        }

    def close(self):
        for path in (self.path, Path(str(self.path) + ".cfg")):
            path.unlink(missing_ok=True)


WORKLOADS = {"desk_protocol": DeskProtocol, "full_train": FullTrain, "full_infer": FullInfer}
