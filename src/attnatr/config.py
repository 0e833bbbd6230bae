"""Flat "key = value" configuration files.

One assignment per line, '#' starts a comment, keys are namespaced with dots
("model.attention", "perturb.scale").  Values stay strings until a typed
getter asks for them, so reports can embed the resolved config verbatim.
"""

from __future__ import annotations


class ConfigFileError(ValueError):
    pass


DEFAULTS = {
    "seed": "7",
    "model.profile": "desk",           # desk | full
    "model.attention": "none",
    "model.insertion": "in_block",
    "model.reduction": "16",
    "model.eca_gamma": "16",
    "model.spatial_kernel": "7",
    "data.source": "synth",
    "data.classes": "3",
    "data.per_class_train": "100",
    "data.per_class_test": "50",
    "data.image_size": "32",
    "data.speckle_looks": "1",
    "train.lr": "0.05",                # desk defaults; not from the study
    "train.momentum": "0.9",
    "train.batch_size": "32",
    "train.epochs": "15",
    "perturb.mean": "0",
    "perturb.scale": "0.011764705882352941",  # 3/255
    "perturb.interpretation": "std_dev",      # std_dev | variance
    "protocol.trials": "3",
    "protocol.perturbed_models": "reuse",     # reuse | fresh
}


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
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
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def resolve(*layers) -> dict[str, str]:
    """Merge config layers over the defaults; later layers win.  A key not
    in ``DEFAULTS`` is an error, not a setting that nothing reads."""
    out = dict(DEFAULTS)
    for layer in layers:
        if layer:
            unknown = [key for key in layer if key not in DEFAULTS]
            if unknown:
                raise ConfigFileError(
                    "unknown config key " + ", ".join(repr(k) for k in unknown))
            out.update(layer)
    return out


def format_config(cfg: dict[str, str]) -> str:
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"


def get_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(f"config key {key!r}: expected integer: {exc}") from exc


def get_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(f"config key {key!r}: expected number: {exc}") from exc


def get_int_tuple(cfg, key) -> tuple:
    try:
        return tuple(int(v) for v in cfg[key].split(","))
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(
            f"config key {key!r}: expected comma-separated integers: {exc}") from exc


def get_str(cfg, key, choices=None) -> str:
    try:
        value = cfg[key]
    except KeyError as exc:
        raise ConfigFileError(f"missing config key {key!r}") from exc
    if choices is not None and value not in choices:
        raise ConfigFileError(f"config key {key!r}: {value!r} not in {tuple(choices)}")
    return value
