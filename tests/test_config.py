import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attnatr import config as cfgmod
from attnatr.attention import ATTENTION_KINDS
from attnatr.backbone import INSERTION_MODES, ConfigError
from attnatr.harness import (ProtocolResult, model_config_from, perturb_spec_from,
                             synth_config_from, train_settings_from)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_get_returns_typed_values():
    cfg = cfgmod.resolve({"train.epochs": "4", "perturb.scale": "0.5"})
    assert cfgmod.get(cfg, "train.epochs") == 4
    assert cfgmod.get(cfg, "perturb.scale") == 0.5
    assert cfgmod.get(cfg, "model.profile") == "desk"


@pytest.mark.parametrize("key, value, message", [
    ("perturb.scale", "0", "must be above 0.0, got 0.0"),
    ("train.lr", "nan", "expected a finite number, got nan"),
    ("protocol.trials", "2.5", "expected integer"),
    ("model.profile", "tiny", "'tiny' not in ('desk', 'full')")])
def test_resolve_names_the_key_and_the_value(key, value, message):
    expected = re.escape(f"config key '{key}': {message}")
    with pytest.raises(cfgmod.ConfigFileError, match=expected):
        cfgmod.resolve({key: value})


def test_schema_docs_name_the_model_choices():
    # ModelConfig.validate holds these choices; the docs must not go stale
    for key, names in (("model.attention", ATTENTION_KINDS),
                       ("model.insertion", INSERTION_MODES)):
        assert set(names) <= set(re.findall(r"\w+", cfgmod.SCHEMA[key][3]))


def _schema_line(key, default, kind, limit, doc):
    if isinstance(limit, tuple):
        doc = " | ".join(limit) + "; " + doc
    elif limit is not None:
        doc = f"{'>=' if isinstance(limit, int) else '>'} {limit}; {doc}"
    return f"{key} = {default}", doc


def test_readme_config_block_matches_schema():
    text = README.read_text()
    block = text.split("## Configuration", 1)[1].split("```\n", 2)[1]
    lines = [tuple(part.strip() for part in line.split("  # ", 1))
             for line in block.splitlines()]
    assert lines == [_schema_line(key, *spec) for key, spec in cfgmod.SCHEMA.items()]


def test_readme_names_every_module():
    listed = set(re.findall(r"^- `attnatr\.(\w+)`", README.read_text(), re.MULTILINE))
    modules = {path.stem for path in Path(cfgmod.__file__).parent.glob("*.py")}
    assert listed == modules - {"__init__"}


# mostly schema keys and well-formed lines, so that many configs get past
# ``resolve`` into the readers; free text brings newlines, '#' and '='
_keys = st.sampled_from(sorted(cfgmod.SCHEMA) + ["train.epoch", "model.depth", ""])
_values = st.one_of(
    st.integers(-2, 40).map(str),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from([choice for _, _, limit, _ in cfgmod.SCHEMA.values()
                     if isinstance(limit, tuple) for choice in limit]),
    st.text(max_size=12))
_assignments = st.lists(st.tuples(_keys, _values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
                        max_size=8)


@settings(max_examples=300, deadline=None)
@given(_assignments, st.lists(st.text(max_size=20), max_size=1))
def test_random_config_text_fails_only_with_config_errors(lines, junk):
    try:
        cfg = cfgmod.resolve(cfgmod.parse_config("\n".join(lines + junk)))
        model_config_from(cfg)
        synth_config_from(cfg)
        train_settings_from(cfg)
        perturb_spec_from(cfg).sigma()
        ProtocolResult(cfg).render()
    except (cfgmod.ConfigFileError, ConfigError):
        pass
