import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attnatr import config as cfgmod
from attnatr.attention import ATTENTION_KINDS
from attnatr.backbone import INSERTION_MODES, ModelConfig
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


def test_a_repeated_key_names_it_and_both_lines():
    with pytest.raises(cfgmod.ConfigFileError,
                       match=re.escape("line 3: key 'seed' repeats the one on line 1")):
        cfgmod.parse_config("seed = 1\n# seed = 3\nseed = 2\n")


def test_schema_model_defaults_are_the_model_config_defaults():
    # ModelConfig holds each model default; SCHEMA spells it as text
    defaults = {f"model.{f.name}": str(f.default) for f in fields(ModelConfig)}
    keys = [key for key in cfgmod.SCHEMA if key.startswith("model.") and key != "model.profile"]
    assert len(keys) == 5
    assert {key: cfgmod.SCHEMA[key][0] for key in keys} == {key: defaults[key] for key in keys}


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
# distinct keys: a repeated one stops parse_config (test_a_repeated_key_names_it_and_both_lines)
_assignments = st.lists(st.tuples(_keys, _values), max_size=8, unique_by=lambda kv: kv[0]) \
    .map(lambda kvs: [f"{key} = {value}" for key, value in kvs])


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
    except cfgmod.ConfigFileError:
        pass
