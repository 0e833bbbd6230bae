"""Command-line harness.

Commands: train, protocol, eval, gradcam, synth-gen.  Exit status is 0
on success, 1 on usage errors (message on stderr), 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import config as cfgmod
from .attention import ATTENTION_KINDS
from .backbone import INSERTION_MODES
from .data import load_dataset, read_chip, write_image, write_synth_dir
from .explain import gradcam_map, overlay_heatmap
from .harness import (PerturbSpec, TrialReport, datasets_from, format_report,
                      load_model, model_config_from, perturb_dataset, perturbed_title,
                      run_protocol, save_model, synth_config_from, top1_accuracy,
                      train_variant)
from .rng import derive_seed


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _path(text: str) -> str:
    """argparse type of every path flag: an empty path is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return text


def _build_parser() -> _Parser:
    parser = _Parser(prog="attnatr", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    # the dest of each config override flag is the key it overrides
    train = sub.add_parser("train", help="train one model and save its checkpoint")
    protocol = sub.add_parser("protocol", help="run the multi-trial protocol")
    for p in (train, protocol):
        p.add_argument("--config", type=_path, help="flat key = value config file")
        p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--insertion", dest="model.insertion", choices=INSERTION_MODES)
        p.add_argument("--epochs", dest="train.epochs", type=int)
    train.add_argument("--attention", dest="model.attention", choices=ATTENTION_KINDS)
    train.add_argument("--out", type=_path, required=True, help="checkpoint path")
    protocol.add_argument("--variants", required=True, help="comma list of attention kinds")
    protocol.add_argument("--trials", dest="protocol.trials", type=int)
    protocol.add_argument("--out", type=_path, help="also write the report to this file")
    protocol.add_argument("--ckpt-dir", type=_path, help="directory for per-trial checkpoints")

    p = sub.add_parser("eval", help="evaluate a checkpoint, optionally under noise")
    p.add_argument("--seed", type=int, default=0, help="base seed of the noise trials")
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--data", type=_path, required=True, help="dataset directory")
    p.add_argument("--split", default="test", help="split directory to evaluate")
    p.add_argument("--perturb-std", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out", type=_path, help="also write the report to this file")

    p = sub.add_parser("gradcam", help="emit a saliency overlay for one image")
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--image", type=_path, required=True, help="input PGM or Phoenix chip")
    p.add_argument("--class", dest="target_class", type=int, required=True)
    p.add_argument("--out", type=_path, required=True, help="output PPM path")
    p.add_argument("--layer", help="feature layer name (default: deepest)")
    p.add_argument("--alpha", type=float, default=0.5)

    p = sub.add_parser("synth-gen", help="materialize a synthetic dataset directory")
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--classes", dest="data.classes", type=int)
    p.add_argument("--per-class", type=int, default=50, help="chips per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", dest="data.image_size", type=int)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--looks", dest="data.speckle_looks", type=int)
    return parser


def _resolved_config(args, layer) -> dict:
    """Resolve ``layer`` under the config keys that flags set."""
    overrides = {key: str(value) for key, value in vars(args).items()
                 if key in cfgmod.SCHEMA and value is not None}
    return cfgmod.resolve(layer, overrides)


def _emit(text: str, out_path=None):
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


def _check_out(path):
    """Fail on an ``--out`` that is a directory or whose parent is not one; every
    command that writes a file calls this before it loads or builds anything."""
    if path and not Path(path).parent.is_dir():
        raise NotADirectoryError(f"--out {path}: {Path(path).parent} is not a directory")
    if path and Path(path).is_dir():
        raise IsADirectoryError(f"--out {path}: is a directory")


def _run_config(args) -> dict:
    """The resolved config of a train or protocol run, whose ``--out`` is checked."""
    resolved = _resolved_config(args, args.config and cfgmod.load_config(args.config))
    _check_out(args.out)
    return resolved


def _cmd_protocol(args) -> int:
    resolved = _run_config(args)
    if args.ckpt_dir:  # its nearest existing ancestor, itself included, must be a directory
        base = next(p for p in (Path(args.ckpt_dir), *Path(args.ckpt_dir).parents) if p.exists())
        if not base.is_dir():
            raise NotADirectoryError(f"--ckpt-dir {args.ckpt_dir}: not a directory (at {base})")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    result = run_protocol(resolved, variants, cfgmod.get(resolved, "protocol.trials"),
                          out_dir=args.ckpt_dir)
    _emit(result.render(), args.out)
    return 0


def _cmd_train(args) -> int:
    resolved = _run_config(args)
    model_config_from(resolved)  # a bad model key fails before any data is built
    train_ds, test_ds = datasets_from(resolved)
    variant = resolved["model.attention"]
    model, losses = train_variant(resolved, variant, cfgmod.get(resolved, "seed"),
                                  train_ds, context=f"attention {variant!r}")
    save_model(args.out, model)
    train_acc = top1_accuracy(model, train_ds)
    test_acc = top1_accuracy(model, test_ds)
    sys.stdout.write(
        f"saved {args.out}: final loss {losses[-1]:.4f}, "
        f"train acc {train_acc:.4f}, test acc {test_acc:.4f}\n")
    return 0


def _cmd_eval(args) -> int:
    for flag, value in (("--trials", args.trials), ("--batch-size", args.batch_size)):
        if value < 1:
            raise UsageError(f"eval: {flag} must be at least 1, got {value}")
    sigma = args.perturb_std
    if not 0 <= sigma < math.inf:
        raise UsageError(f"eval: --perturb-std must be finite and at least 0, got {sigma}")
    _check_out(args.out)
    model = load_model(args.model)
    dataset = load_dataset(args.data, split=args.split, size=model.cfg.input_size)
    if sigma == 0:  # a clean eval is deterministic: one pass fills every trial
        accs = [top1_accuracy(model, dataset, args.batch_size)] * args.trials
    else:
        accs = [top1_accuracy(model, perturb_dataset(dataset, PerturbSpec(
                    scale=sigma, seed=derive_seed(args.seed, "eval", trial))), args.batch_size)
                for trial in range(args.trials)]
    tag = f"{model.cfg.attention} ResNet-18" if model.cfg.attention != "none" \
        else "ResNet-18"
    title = "Top-1 accuracy" if sigma == 0 else perturbed_title(sigma)
    report = format_report([TrialReport(tag, accs)], title=title)
    _emit(report, args.out)
    return 0


def _cmd_gradcam(args) -> int:
    if not 0 <= args.alpha <= 1:
        raise UsageError(f"gradcam: --alpha must be in [0, 1], got {args.alpha}")
    _check_out(args.out)
    model = load_model(args.model)
    pixels = read_chip(args.image, model.cfg.input_size)
    smap = gradcam_map(model, pixels, args.target_class, args.layer)
    write_image("ppm", args.out, overlay_heatmap(pixels, smap, args.alpha))
    sys.stdout.write(f"wrote {args.out} (layer {smap.layer}, class {args.target_class})\n")
    return 0


def _cmd_synth_gen(args) -> int:
    per_class = str(args.per_class)
    resolved = _resolved_config(args, {"data.per_class_train": per_class,
                                       "data.per_class_test": per_class})
    count = write_synth_dir(synth_config_from(resolved), args.out, split=args.split)
    sys.stdout.write(f"wrote {count} images to {Path(args.out) / args.split}\n")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "protocol": _cmd_protocol,
    "eval": _cmd_eval,
    "gradcam": _cmd_gradcam,
    "synth-gen": _cmd_synth_gen,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        print("commands: " + ", ".join(_COMMANDS), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
