"""Flat "key = value" configuration files.

One assignment per line, '#' starts a comment, keys are namespaced with dots
("model.attention", "perturb.scale").  ``SCHEMA`` gives each key its
default, type, choices or bound and a one-line doc, and ``resolve`` checks
every key against it.  Values stay strings, so reports can embed the resolved
config verbatim; ``get`` returns a key's typed value.
"""

from __future__ import annotations

import math


class ConfigFileError(ValueError):
    """Raised on a bad config line, key or value, or an invalid ModelConfig."""


# key: (default, type, choices or lower bound, doc).  A number must be at
# least an int bound and above a float one, and a float must be finite.
# ModelConfig.validate checks the model keys, so they have only a type here.
SCHEMA = {
    "seed": ("7", int, None, "base seed of every stream"),
    "model.profile": ("desk", str, ("desk", "full"), "widths 4-32 (desk) or 64-512 (full)"),
    "model.attention": ("none", str, None, "none, se, eca or cbam; ModelConfig checks it"),
    "model.insertion": ("in_block", str, None, "in_block or residual_wrap, checked likewise"),
    "model.reduction": ("16", int, None, "SE and CBAM channel reduction ratio"),
    "model.eca_gamma": ("16", int, None, "ECA kernel-size gamma"),
    "model.spatial_kernel": ("7", int, None, "CBAM spatial kernel size, odd"),
    "data.classes": ("3", int, 1, "target classes; a model needs 2 or more, synth at most 15"),
    "data.per_class_train": ("100", int, 1, "training chips per class"),
    "data.per_class_test": ("50", int, 1, "test chips per class"),
    "data.image_size": ("32", int, 1, "chip side in pixels; a model needs 32 or more"),
    "data.speckle_looks": ("1", int, 1, "looks averaged per speckle pixel"),
    "train.lr": ("0.05", float, 0.0, "SGD rate; train.* are desk defaults, not the study's"),
    "train.momentum": ("0.9", float, 0, "SGD momentum"),
    "train.batch_size": ("32", int, 2, "batchnorm needs two samples"),
    "train.epochs": ("15", int, 1, "epochs per trained model"),
    "perturb.scale": ("0.011764705882352941", float, 0.0, "sigma of zero-mean noise, 3/255"),
    "protocol.trials": ("3", int, 1, "seeded trials per variant"),
}


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigFileError(f"line {lineno}: empty key in {raw!r}")
        if key in lines:
            raise ConfigFileError(
                f"line {lineno}: key {key!r} repeats the one on line {lines[key]}")
        lines[key] = lineno
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def resolve(*layers) -> dict[str, str]:
    """Merge config layers over the defaults; later layers win.  A key not
    in ``SCHEMA``, or a value that ``get`` rejects, is an error."""
    out = {key: spec[0] for key, spec in SCHEMA.items()}
    for layer in layers:
        if layer:
            unknown = [key for key in layer if key not in SCHEMA]
            if unknown:
                raise ConfigFileError(
                    "unknown config key " + ", ".join(repr(k) for k in unknown))
            out.update(layer)
    for key in SCHEMA:
        get(out, key)
    return out


def format_config(cfg: dict[str, str]) -> str:
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"


def _parsed(cfg, key, parse, expected):
    try:
        return parse(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(f"config key {key!r}: expected {expected}: {exc}") from exc


def get_int(cfg, key) -> int:
    return _parsed(cfg, key, int, "integer")


def get_float(cfg, key) -> float:
    value = _parsed(cfg, key, float, "number")
    if not math.isfinite(value):
        raise ConfigFileError(f"config key {key!r}: expected a finite number, got {value}")
    return value


def get_int_tuple(cfg, key) -> tuple:
    return _parsed(cfg, key, lambda text: tuple(int(v) for v in text.split(",")),
                   "comma-separated integers")


def get_str(cfg, key) -> str:
    try:
        return cfg[key]
    except KeyError as exc:
        raise ConfigFileError(f"missing config key {key!r}") from exc


# the parser of a value, by the type of its default
GETTERS = {int: get_int, float: get_float, str: get_str, tuple: get_int_tuple}


def get(cfg, key):
    """The typed value of a ``SCHEMA`` key, checked against its choices or bound."""
    _, kind, limit, _ = SCHEMA[key]
    value = GETTERS[kind](cfg, key)
    if isinstance(limit, tuple) and value not in limit:
        raise ConfigFileError(f"config key {key!r}: {value!r} not in {limit}")
    inclusive = isinstance(limit, int)
    if isinstance(limit, (int, float)) and (value < limit if inclusive else value <= limit):
        raise ConfigFileError(f"config key {key!r}: must be "
                              f"{'at least' if inclusive else 'above'} {limit}, got {value}")
    return value
