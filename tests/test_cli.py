import contextlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnatr import config as cfgmod
from attnatr.checkpoint import load_checkpoint, save_checkpoint
from attnatr.cli import run_command
from attnatr.data import write_image, write_phoenix
from attnatr.harness import run_protocol, top1_accuracy

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(
        "seed = 7\n"
        "data.per_class_train = 10\n"
        "data.per_class_test = 5\n"
        "train.epochs = 1\n")
    return str(path)


def _set_line(cfg_path, line):
    """Write ``key = value`` into a config file in place of that key's line,
    since a repeated key is an error."""
    key = line.partition("=")[0].strip()
    path = Path(cfg_path)
    kept = [old for old in path.read_text().splitlines() if old.partition("=")[0].strip() != key]
    path.write_text("\n".join(kept + [line]) + "\n")


def test_unknown_command_lists_commands(capsys):
    assert run_command(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "train" in err and "synth-gen" in err and "gradcam" in err


def test_missing_command_is_usage_error(capsys):
    assert run_command([]) == 1
    assert "commands:" in capsys.readouterr().err


def test_usage_error_missing_required_flag(capsys):
    assert run_command(["gradcam", "--model", "x.ckpt"]) == 1
    assert "required" in capsys.readouterr().err


def test_help_exits_zero():
    assert run_command(["--help"]) == 0


def test_runtime_error_missing_model(tmp_path, capsys):
    status = run_command(["eval", "--model", str(tmp_path / "no.ckpt"),
                          "--data", str(tmp_path)])
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_synth_gen_writes_a_chip_tree(tmp_path, capsys):
    out = tmp_path / "d"
    status = run_command(["synth-gen", "--out", str(out), "--classes", "3",
                          "--per-class", "50", "--seed", "7"])
    assert status == 0
    pgms = sorted(out.rglob("*.pgm"))
    assert len(pgms) == 150
    assert pgms[0] == out / "test" / "0_disk" / "00000.pgm"
    assert pgms[-1] == out / "test" / "2_cross" / "00149.pgm"
    assert f"wrote 150 images to {out / 'test'}" in capsys.readouterr().out


def test_train_eval_gradcam_pipeline(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    status = run_command(["train", "--config", small_cfg, "--attention", "eca",
                          "--out", str(ckpt)])
    assert status == 0
    assert ckpt.is_file() and (tmp_path / "m.ckpt.cfg").is_file()
    capsys.readouterr()

    data_dir = tmp_path / "data"
    assert run_command(["synth-gen", "--out", str(data_dir), "--classes", "3",
                        "--per-class", "4", "--seed", "9"]) == 0
    capsys.readouterr()

    status = run_command(["eval", "--model", str(ckpt), "--data", str(data_dir),
                          "--perturb-std", "0.011765", "--trials", "3"])
    assert status == 0
    out = capsys.readouterr().out
    assert "Test 1" in out and "Test 3" in out and "Average" in out
    assert "perturbation" in out

    image = next((data_dir / "test" / "0_disk").glob("*.pgm"))
    cam = tmp_path / "cam.ppm"
    status = run_command(["gradcam", "--model", str(ckpt), "--image", str(image),
                          "--class", "2", "--out", str(cam)])
    assert status == 0
    raw = cam.read_bytes()
    assert raw.startswith(b"P6\n32 32\n255\n")
    assert len(raw) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3


def test_eval_writes_report_file(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    data_dir = tmp_path / "d"
    assert run_command(["synth-gen", "--out", str(data_dir), "--classes", "3",
                        "--per-class", "3"]) == 0
    report = tmp_path / "report.txt"
    assert run_command(["eval", "--model", str(ckpt), "--data", str(data_dir),
                        "--out", str(report)]) == 0
    assert "Average" in report.read_text()


def test_eval_rejects_config_flag(tmp_path, small_cfg, capsys):
    status = run_command(["eval", "--config", small_cfg, "--model", str(tmp_path / "m.ckpt"),
                          "--data", str(tmp_path)])
    assert status == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-2"),
                                         ("--batch-size", "0")])
def test_eval_rejects_count_below_one(tmp_path, small_cfg, capsys, flag, value):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    data_dir = tmp_path / "d"
    assert run_command(["synth-gen", "--out", str(data_dir), "--classes", "3",
                        "--per-class", "2"]) == 0
    capsys.readouterr()
    status = run_command(["eval", "--model", str(ckpt), "--data", str(data_dir),
                          flag, value])
    assert status == 1
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err


def test_eval_sidecar_missing_key_is_runtime_error(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    sidecar = tmp_path / "m.ckpt.cfg"
    sidecar.write_text("".join(line for line in sidecar.read_text().splitlines(True)
                               if not line.startswith("model.stage_widths")))
    capsys.readouterr()
    status = run_command(["eval", "--model", str(ckpt), "--data", str(tmp_path)])
    assert status == 2
    assert "model.stage_widths" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "gradcam"])
def test_an_unknown_sidecar_key_is_runtime_error(tmp_path, small_cfg, capsys, command):
    # a misspelt key is refused, not dropped in silence
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    sidecar = tmp_path / "m.ckpt.cfg"
    sidecar.write_text(sidecar.read_text() + "model.attentoin = se\n"
                       "model.insertoin = residual_wrap\nseed = 9\n")
    chip = tmp_path / "chip.pgm"
    write_image("pgm", chip, np.zeros((32, 32)))
    argv = {"eval": ["--data", tmp_path],
            "gradcam": ["--image", chip, "--class", "0", "--out", tmp_path / "cam.ppm"]}[command]
    capsys.readouterr()
    assert run_command([command, "--model", str(ckpt), *map(str, argv)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "cam.ppm").exists()
    assert "unknown key 'model.attentoin', 'model.insertoin', 'seed'" in err


def test_protocol_writes_its_report(tmp_path, small_cfg, capsys):
    report = tmp_path / "protocol.txt"
    status = run_command(["protocol", "--config", small_cfg, "--variants", "none,eca",
                          "--trials", "1", "--out", str(report)])
    assert status == 0
    text = report.read_text()
    assert "== Resolved config ==" in text
    assert "Top-1 accuracy" in text
    assert "none" in text and "eca" in text


@pytest.mark.parametrize("mode", [["train", "--out", "m.ckpt"],
                                  ["protocol", "--variants", "none", "--trials", "1"]])
@pytest.mark.parametrize("key, value", [("train.batch_size", 0), ("train.batch_size", 1),
                                        ("train.epochs", 0), ("train.epochs", -1)])
def test_train_rejects_bad_train_settings(tmp_path, small_cfg, capsys, monkeypatch,
                                          mode, key, value):
    def no_data(*args):
        raise AssertionError("data synthesized before the train settings were checked")

    monkeypatch.setattr("attnatr.harness.synth_dataset", no_data)
    _set_line(small_cfg, f"{key} = {value}")
    monkeypatch.chdir(tmp_path)
    assert run_command([*mode, "--config", small_cfg]) == 2
    err = capsys.readouterr().err
    assert f"config key '{key}': must be at least" in err and f"got {value}" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


def test_train_out_checkpoint_is_the_protocol_trial(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--attention", "se",
                        "--out", str(ckpt)]) == 0
    result = run_protocol(cfgmod.load_config(small_cfg), ["se"], 1)
    assert ckpt.read_bytes() == result.checkpoints[("se", 0)]


@pytest.mark.parametrize("mode", [["train", "--out", "m.ckpt"],
                                  ["protocol", "--variants", "none", "--trials", "1"]])
@pytest.mark.parametrize("key, value", [
    ("data.source", "/nonexistent"), ("train.epoch", "3"), ("perturb.mean", "0"),
    ("perturb.interpretation", "variance"), ("protocol.perturbed_models", "fresh")])
def test_train_rejects_bad_config_keys(tmp_path, small_cfg, capsys, monkeypatch,
                                       mode, key, value):
    with open(small_cfg, "a") as fh:
        fh.write(f"{key} = {value}\n")
    monkeypatch.chdir(tmp_path)
    assert run_command([*mode, "--config", small_cfg]) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


def test_gradcam_reads_a_phoenix_chip(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    chip = tmp_path / "chip.raw"
    chip.write_bytes(write_phoenix(np.random.default_rng(3).uniform(size=(40, 28))))
    cam = tmp_path / "cam.ppm"
    assert run_command(["gradcam", "--model", str(ckpt), "--image", str(chip),
                        "--class", "1", "--out", str(cam)]) == 0
    raw = cam.read_bytes()
    assert raw.startswith(b"P6\n32 32\n255\n")
    assert len(raw) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3


def test_gradcam_bad_class_is_runtime_error(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    data_dir = tmp_path / "d"
    assert run_command(["synth-gen", "--out", str(data_dir), "--classes", "3",
                        "--per-class", "2"]) == 0
    image = next((data_dir / "test" / "0_disk").glob("*.pgm"))
    status = run_command(["gradcam", "--model", str(ckpt), "--image", str(image),
                          "--class", "9", "--out", str(tmp_path / "cam.ppm")])
    assert status == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv, setting, key", [
    (["train", "--out", "m.ckpt"], "data.per_class_train = 0", "data.per_class_train"),
    (["protocol", "--variants", "none"], "data.per_class_train = 0", "data.per_class_train"),
    (["protocol", "--variants", "none"], "data.per_class_test = 0", "data.per_class_test"),
    (["train", "--out", "m.ckpt"], "data.speckle_looks = 0", "data.speckle_looks"),
    (["protocol", "--variants", "none"], "data.speckle_looks = -5", "data.speckle_looks"),
    (["protocol", "--variants", "none"], "perturb.scale = 0", "perturb.scale"),
    (["protocol", "--variants", "none"], "perturb.scale = -1", "perturb.scale"),
    (["protocol", "--variants", "none"], "perturb.mean = nan", "perturb.mean"),
    (["train", "--out", "m.ckpt"], "train.lr = inf", "train.lr"),
    (["synth-gen", "--out", "d", "--classes", "0"], None, "data.classes"),
    (["synth-gen", "--out", "d", "--per-class", "-1"], None, "data.per_class_train"),
    (["synth-gen", "--out", "d", "--looks", "0"], None, "data.speckle_looks"),
    (["train", "--out", "m.ckpt"], "train.momentum = -3", "train.momentum")])
def test_bad_config_values_fail_before_any_data(tmp_path, small_cfg, capsys, monkeypatch,
                                                argv, setting, key):
    def no_data(*args, **kwargs):
        raise AssertionError("data synthesized before the config was checked")

    monkeypatch.setattr("attnatr.harness.synth_dataset", no_data)
    monkeypatch.setattr("attnatr.cli.write_synth_dir", no_data)
    if setting is not None:
        _set_line(small_cfg, setting)
        argv = argv + ["--config", small_cfg]
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


@pytest.mark.parametrize("variants, message", [
    (",", "distinct variants, got []"),
    ("none,none", "distinct variants, got ['none', 'none']"),
    ("none,cbam,bogus", "attention='bogus'")])
def test_train_checks_variants_before_any_data(tmp_path, small_cfg, capsys, monkeypatch,
                                               variants, message):
    def no_data(*args):
        raise AssertionError("data synthesized before the variants were checked")

    monkeypatch.setattr("attnatr.harness.synth_dataset", no_data)
    assert run_command(["protocol", "--config", small_cfg, "--variants", variants,
                        "--ckpt-dir", str(tmp_path / "ck")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_eval_rejects_bad_perturb_std(tmp_path, capsys, value):
    status = run_command(["eval", "--model", str(tmp_path / "m.ckpt"), "--data", str(tmp_path),
                          "--perturb-std", value])
    assert status == 1
    assert "--perturb-std must be finite and at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2", "nan", "-0.5"])
def test_gradcam_rejects_an_alpha_outside_the_unit_interval(tmp_path, capsys, value):
    cam = tmp_path / "cam.ppm"
    status = run_command(["gradcam", "--model", str(tmp_path / "m.ckpt"), "--image",
                          str(tmp_path / "c.pgm"), "--class", "0", "--out", str(cam),
                          "--alpha", value])
    assert status == 1
    assert "--alpha must be in [0, 1]" in capsys.readouterr().err
    assert not cam.exists()


def test_eval_split_applies_only_to_a_chip_tree(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    synth = tmp_path / "synth"
    assert run_command(["synth-gen", "--out", str(synth), "--per-class", "2",
                        "--split", "train"]) == 0
    capsys.readouterr()
    assert run_command(["eval", "--model", str(ckpt), "--data", str(synth),
                        "--split", "train"]) == 0
    assert "Test 1" in capsys.readouterr().out
    for split in ("test", "bogus"):
        assert run_command(["eval", "--model", str(ckpt), "--data", str(synth),
                            "--split", split]) == 2
        assert f"no {split!r} directory" in capsys.readouterr().err

    tree = tmp_path / "tree"
    for name in ("disk", "bar"):
        (tree / "test" / name).mkdir(parents=True)
        chip = (synth / "train" / "0_disk" / "00000.pgm").read_bytes()
        (tree / "test" / name / "0.pgm").write_bytes(chip)
    assert run_command(["eval", "--model", str(ckpt), "--data", str(tree)]) == 0
    assert "Test 1" in capsys.readouterr().out
    assert run_command(["eval", "--model", str(ckpt), "--data", str(tree),
                        "--split", "train"]) == 2
    assert "no 'train' directory" in capsys.readouterr().err


def test_eval_rejects_labels_beyond_the_model_classes(tmp_path, small_cfg, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    data_dir = tmp_path / "d"
    assert run_command(["synth-gen", "--out", str(data_dir), "--classes", "5",
                        "--per-class", "1"]) == 0
    capsys.readouterr()
    assert run_command(["eval", "--model", str(ckpt), "--data", str(data_dir)]) == 2
    assert "label 4 is out of range for a model of 3 classes" in capsys.readouterr().err


def test_synth_gen_refuses_an_existing_split(tmp_path, capsys):
    argv = ["synth-gen", "--out", str(tmp_path), "--per-class", "1"]
    assert run_command(argv) == 0
    assert run_command(argv + ["--split", "train"]) == 0
    capsys.readouterr()
    assert run_command(argv + ["--classes", "2"]) == 2
    assert "already exists" in capsys.readouterr().err
    assert len(list(tmp_path.rglob("*.pgm"))) == 6


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of README's CLI block, in order; train and protocol get a
    tiny config so that the block stays fast."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```\n", 2)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("attnatr ")]
    assert [argv[0] for argv in commands] == ["synth-gen", "train", "protocol", "eval", "gradcam"]
    (tmp_path / "tiny.cfg").write_text("data.per_class_train = 4\ndata.per_class_test = 2\n"
                                       "train.epochs = 1\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        tiny = ["--config", "tiny.cfg"] if argv[0] in ("train", "protocol") else []
        assert run_command(argv + tiny) == 0, capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["train", "--out", "m.ckpt", "--variants", "none"], "unrecognized arguments: --variants"),
    (["train", "--out", "m.ckpt", "--trials", "5"], "unrecognized arguments: --trials"),
    (["train", "--out", "m.ckpt", "--ckpt-dir", "cks"], "unrecognized arguments: --ckpt-dir"),
    (["protocol", "--variants", "none,se", "--attention", "cbam"],
     "unrecognized arguments: --attention"),
    (["protocol", "--trials", "1"], "protocol: the following arguments are required: --variants"),
    (["train", "--attention", "se"], "train: the following arguments are required: --out")],
    ids=["train-variants", "train-trials", "train-ckpt-dir", "protocol-attention",
         "protocol-without-variants", "train-without-out"])
def test_a_flag_the_command_does_not_take_is_a_usage_error(tmp_path, small_cfg, capsys,
                                                           monkeypatch, argv, message):
    def no_data(*args):
        raise AssertionError("data synthesized before the flags were checked")

    monkeypatch.setattr("attnatr.harness.synth_dataset", no_data)
    monkeypatch.chdir(tmp_path)
    assert run_command([*argv, "--config", small_cfg]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


@pytest.mark.parametrize("argv, flag, path, problem", [
    (["train", "--out", "nodir/m.ckpt"], "--out", "nodir/m.ckpt", "nodir is not a directory"),
    (["train", "--out", "desk.cfg/m.ckpt"], "--out", "desk.cfg/m.ckpt",
     "desk.cfg is not a directory"),
    (["protocol", "--variants", "none", "--out", "nodir/r.txt"], "--out", "nodir/r.txt",
     "nodir is not a directory"),
    (["protocol", "--variants", "none", "--ckpt-dir", "desk.cfg"], "--ckpt-dir", "desk.cfg",
     "not a directory"),
    (["train", "--out", "."], "--out", ".", "is a directory"),
    (["protocol", "--variants", "none", "--out", "."], "--out", ".", "is a directory"),
    (["protocol", "--variants", "none", "--ckpt-dir", "desk.cfg/sub"], "--ckpt-dir",
     "desk.cfg/sub", "not a directory (at desk.cfg)")],
    ids=["train-missing-parent", "train-file-parent", "protocol-missing-parent",
         "protocol-file-ckpt-dir", "train-dir-out", "protocol-dir-out",
         "protocol-file-ckpt-ancestor"])
def test_an_unwritable_output_path_fails_before_any_data(tmp_path, small_cfg, capsys,
                                                         monkeypatch, argv, flag, path, problem):
    def no_data(*args):
        raise AssertionError("data synthesized before the output paths were checked")

    monkeypatch.setattr("attnatr.harness.synth_dataset", no_data)
    monkeypatch.chdir(tmp_path)
    assert run_command([*argv, "--config", small_cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} {path}: {problem}" in captured.err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


@pytest.mark.parametrize("argv, path, problem", [
    (["eval", "--data", "d", "--out", "nodir/r.txt"], "nodir/r.txt", "nodir is not a directory"),
    (["eval", "--data", "d", "--out", "."], ".", "is a directory"),
    (["gradcam", "--image", "c.pgm", "--class", "0", "--out", "nodir/c.ppm"], "nodir/c.ppm",
     "nodir is not a directory"),
    (["gradcam", "--image", "c.pgm", "--class", "0", "--out", "."], ".", "is a directory")],
    ids=["eval-missing-parent", "eval-dir-out", "gradcam-missing-parent", "gradcam-dir-out"])
def test_an_unwritable_output_path_fails_before_the_model_loads(tmp_path, capsys, monkeypatch,
                                                               argv, path, problem):
    def no_model(*args):
        raise AssertionError("model loaded before the output path was checked")

    monkeypatch.setattr("attnatr.cli.load_model", no_model)
    monkeypatch.chdir(tmp_path)
    assert run_command([*argv, "--model", "m.ckpt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --out {path}: {problem}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("noise, passes", [([], 1), (["--perturb-std", "0.05"], 3)])
def test_eval_runs_one_pass_per_distinct_trial(tmp_path, small_cfg, capsys, monkeypatch,
                                               noise, passes):
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    data_dir = tmp_path / "d"
    assert run_command(["synth-gen", "--out", str(data_dir), "--per-class", "3"]) == 0
    capsys.readouterr()
    calls = []

    def counted(*args):
        calls.append(args)
        return top1_accuracy(*args)

    monkeypatch.setattr("attnatr.cli.top1_accuracy", counted)
    argv = ["eval", "--model", str(ckpt), "--data", str(data_dir), "--trials", "3"]
    assert run_command(argv + noise) == 0
    assert len(calls) == passes
    table = capsys.readouterr().out.splitlines()[-1]
    assert table.count("%") == 4
    if not noise:
        cells = table.split("|")[1:]
        assert len({cell.strip() for cell in cells}) == 1


@pytest.mark.parametrize("argv", [["synth-gen", "--out", "d", "--classes", "16"],
                                  ["train", "--out", "m.ckpt", "--config", "desk.cfg"],
                                  ["protocol", "--variants", "none", "--config", "desk.cfg"]])
def test_too_many_synthetic_classes_fail_before_any_chip(tmp_path, small_cfg, capsys,
                                                         monkeypatch, argv):
    def no_chips(*args):
        raise AssertionError("a chip was rendered before the class count was checked")

    monkeypatch.setattr("attnatr.data.synth_sample", no_chips)
    with open(small_cfg, "a") as fh:
        fh.write("data.classes = 16\n")
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert "config key 'data.classes': the synthetic dataset has at most 15" in err
    assert "got 16" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


# An address-space cap makes an impossible allocation fail at once, so a probe
# that asks for petabytes never touches real memory.
_CAPPED_CLI = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "from attnatr.cli import run_command\n"
               "sys.exit(run_command(sys.argv[1:]))\n")


@pytest.mark.parametrize("command", ["eval", "gradcam", "synth-gen"])
def test_an_impossible_allocation_is_a_runtime_error(tmp_path, small_cfg, capsys, command):
    # stage 4's 3x3 conv weights need 10.7 GiB, then 6.4 PiB; a 200000-pixel
    # chip needs a 640 GB coordinate grid
    ckpt = tmp_path / "m.ckpt"
    assert run_command(["train", "--config", small_cfg, "--out", str(ckpt)]) == 0
    sidecar = tmp_path / "m.ckpt.cfg"
    sidecar.write_text(sidecar.read_text().replace(
        "model.stage_widths = 4,8,16,32", "model.stage_widths = 4,8,16,10000000"))
    chip = tmp_path / "chip.pgm"
    write_image("pgm", chip, np.zeros((32, 32)))
    argv = {"eval": ["--model", ckpt, "--data", tmp_path],
            "gradcam": ["--model", ckpt, "--image", chip, "--class", "0",
                        "--out", tmp_path / "cam.ppm"],
            "synth-gen": ["--out", tmp_path / "d", "--size", "200000", "--per-class", "1"],
            }[command]
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, command, *map(str, argv)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert "error: Unable to allocate" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["protocol", "--variants", "none", "--trials", "1", "--config", ""],
    ["protocol", "--variants", "none", "--trials", "1", "--ckpt-dir", ""],
    ["protocol", "--variants", "none", "--trials", "1", "--out", ""],
    ["train", "--out", ""],
    ["eval", "--model", "", "--data", "d"],
    ["eval", "--model", "m.ckpt", "--data", ""],
    ["eval", "--model", "m.ckpt", "--data", "d", "--out", ""],
    ["gradcam", "--model", "", "--image", "c.pgm", "--class", "0", "--out", "c.ppm"],
    ["gradcam", "--model", "m.ckpt", "--image", "", "--class", "0", "--out", "c.ppm"],
    ["gradcam", "--model", "m.ckpt", "--image", "c.pgm", "--class", "0", "--out", ""],
    ["synth-gen", "--out", ""]])
def test_an_empty_path_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 1
    flag = argv[argv.index("") - 1]
    assert f"argument {flag}: expected a non-empty path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value, name", [(np.nan, "head.bias"),
                                         (np.inf, "stage2.0.bn1.running_var"),
                                         (-1.0, "stem.bn.running_var")])
def test_a_non_finite_checkpoint_value_is_a_runtime_error(tmp_path, small_cfg, capsys,
                                                          value, name):
    ckpt, cam = tmp_path / "m.ckpt", tmp_path / "cam.ppm"
    assert run_command(["train", "--config", small_cfg, "--attention", "cbam",
                        "--out", str(ckpt)]) == 0
    assert run_command(["synth-gen", "--out", str(tmp_path / "d"), "--per-class", "1"]) == 0
    state = load_checkpoint(ckpt)
    state[name].flat[1] = value
    save_checkpoint(ckpt, state.items())
    capsys.readouterr()
    for argv in (["eval", "--model", str(ckpt), "--data", str(tmp_path / "d")],
                 ["gradcam", "--model", str(ckpt), "--image", str(tmp_path / "d" / "test"
                  / "0_disk" / "00000.pgm"), "--class", "0", "--out", str(cam)]):
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: checkpoint {ckpt}: tensor {name!r}" in captured.err
    assert not cam.exists()


def test_an_empty_variants_list_is_an_error(tmp_path, small_cfg, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(["protocol", "--config", small_cfg, "--variants", "",
                        "--out", "m.ckpt"]) == 2
    assert "distinct variants, got []" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


def test_train_checks_the_model_keys_before_any_data(tmp_path, small_cfg, capsys,
                                                     monkeypatch):
    def no_data(*args):
        raise AssertionError("data synthesized before the model keys were checked")

    monkeypatch.setattr("attnatr.harness.synth_dataset", no_data)
    with open(small_cfg, "a") as fh:
        fh.write("model.reduction = 0\n")
    monkeypatch.chdir(tmp_path)
    assert run_command(["train", "--config", small_cfg, "--out", "m.ckpt"]) == 2
    assert "invalid model config: reduction=0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "desk.cfg"]


# ---------------------------------------------------------------------------
# fuzzing the command boundary: random argv, Phoenix headers, checkpoint bytes
# and sidecar text give exit 0, 1 or 2 and never a traceback; chips stay at
# most 64 x 64 and widths at most 64, so every run is small


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "desk.cfg").write_text("seed = 3\ndata.per_class_train = 4\n"
                                   "data.per_class_test = 2\ntrain.epochs = 1\n")
    write_image("pgm", root / "chip.pgm", np.full((32, 32), 0.5))
    (root / "chip.raw").write_bytes(write_phoenix(np.eye(40, 28)))
    _run_quietly(["train", "--config", str(root / "desk.cfg"), "--attention", "se",
                  "--out", str(root / "m.ckpt")], root, expect=0)
    _run_quietly(["synth-gen", "--out", str(root / "data"), "--per-class", "2"], root, expect=0)
    (root / "out").mkdir()
    return root


def _run_quietly(argv, cwd, expect=(0, 1, 2)):
    """Run in ``cwd``, where an empty or relative output path lands."""
    err, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = run_command(argv)
    finally:
        os.chdir(home)
    assert status in (expect if isinstance(expect, tuple) else (expect,)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return status


def _fuzz_flags(root):
    """Per command, each flag's value strategy: mostly valid, sometimes junk."""
    def one_of(*values):
        valid = st.sampled_from([str(v) for v in values])
        return st.one_of(valid, valid, valid, st.text(max_size=6))

    def ints(low, high):
        valid = st.integers(low, high).map(str)
        return st.one_of(valid, valid, valid, st.text(max_size=4))

    outs = st.sampled_from([str(root / "out" / name) for name in ("a", "b.ckpt", "c.ppm")]
                           + [str(root / "out"), ""])
    model = one_of(root / "m.ckpt", root / "out" / "b.ckpt", root / "missing.ckpt",
                   root / "desk.cfg")
    kinds = one_of("none", "se", "eca", "cbam")
    floats = st.floats(allow_nan=True, allow_infinity=True).map(str)
    run = {"--config": one_of(root / "desk.cfg", root / "missing.cfg", root / "m.ckpt"),
           "--seed": ints(-3, 9), "--insertion": one_of("in_block", "residual_wrap"),
           "--epochs": ints(-1, 2), "--out": outs}
    return {
        "train": {**run, "--attention": kinds},
        "protocol": {**run, "--variants": st.lists(kinds, max_size=4).map(",".join),
                     "--trials": ints(-1, 2), "--ckpt-dir": outs},
        "eval": {"--seed": ints(-3, 9), "--model": model, "--split": one_of("test", "train"),
                 "--data": one_of(root / "data", root, root / "chip.pgm"),
                 "--perturb-std": st.one_of(floats, st.sampled_from(["0", "0.05"])),
                 "--trials": ints(-1, 3), "--batch-size": ints(-1, 8), "--out": outs},
        "gradcam": {"--model": model, "--class": ints(-2, 4), "--out": outs,
                    "--image": one_of(root / "chip.pgm", root / "chip.raw", root / "m.ckpt",
                                      root / "missing.pgm"),
                    "--layer": one_of("stem", "stage1.0", "stage4.1", "stage9.9"),
                    "--alpha": st.one_of(floats, st.sampled_from(["0", "0.5", "1"]))},
        "synth-gen": {"--out": outs, "--classes": ints(-1, 16), "--per-class": ints(-1, 2),
                      "--seed": ints(-3, 9), "--size": ints(-1, 64),
                      "--split": one_of("train", "test"), "--looks": ints(-1, 3)},
    }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_argv_exits_with_a_status(fuzz_root, data):
    flags = _fuzz_flags(fuzz_root)
    command = data.draw(st.sampled_from(sorted(flags) + ["frob"]))
    # valid required flags first, so that most runs get past argparse; a train
    # or protocol run without this config would be the 15-epoch default
    model, chip = str(fuzz_root / "m.ckpt"), str(fuzz_root / "chip.pgm")
    cfg = ["--config", str(fuzz_root / "desk.cfg")]
    argv = [command] + {"train": cfg + ["--out", str(fuzz_root / "out" / "b.ckpt")],
                        "protocol": cfg + ["--variants", "none"],
                        "eval": ["--model", model, "--data", str(fuzz_root / "data")],
                        "gradcam": ["--model", model, "--image", chip, "--class", "0",
                                    "--out", str(fuzz_root / "out" / "c.ppm")],
                        "synth-gen": ["--out", str(fuzz_root / "out" / "a")]}.get(command, [])
    for _ in range(data.draw(st.integers(0, 4))):
        table = flags.get(command) or flags["eval"]
        flag = data.draw(st.sampled_from(sorted(table)))
        argv += [flag, data.draw(table[flag])]
    argv += data.draw(st.lists(st.sampled_from(["--help", "-x", "--", "5"]) | st.text(max_size=4),
                               max_size=1))
    _run_quietly(argv, fuzz_root / "out")


_ASCII = st.characters(max_codepoint=127)


def _mutated(data, raw: bytes, max_edits=3) -> bytes:
    """``raw`` truncated, with a few bytes overwritten, or both."""
    raw = bytearray(raw[:data.draw(st.integers(0, len(raw)))] if data.draw(st.booleans())
                    else raw)
    for _ in range(data.draw(st.integers(0, max_edits)) if raw else 0):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_phoenix_chips_exit_with_a_status(fuzz_root, data):
    rows, cols = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 64))
    magnitude = np.random.default_rng(data.draw(st.integers(0, 9))).uniform(size=(rows, cols))
    header = dict(data.draw(st.lists(st.tuples(
        st.sampled_from(["NumberOfRows", "NumberOfColumns", "PhoenixHeaderLength", "Junk"]),
        st.one_of(st.integers(-2, 70).map(str), st.text(_ASCII, max_size=5))), max_size=3)))
    raw = _mutated(data, write_phoenix(magnitude, header))
    with tempfile.TemporaryDirectory() as tmp:
        chip = Path(tmp) / "test" / "a" / "chip.raw"
        chip.parent.mkdir(parents=True)
        chip.write_bytes(raw)
        model = str(fuzz_root / "m.ckpt")
        _run_quietly(["eval", "--model", model, "--data", tmp], tmp)
        _run_quietly(["gradcam", "--model", model, "--image", str(chip), "--class", "1",
                      "--out", str(Path(tmp) / "cam.ppm")], tmp)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_checkpoints_and_sidecars_exit_with_a_status(fuzz_root, data):
    ckpt = _mutated(data, (fuzz_root / "m.ckpt").read_bytes())
    lines = (fuzz_root / "m.ckpt.cfg").read_text().splitlines()
    value = st.one_of(st.integers(-1, 64).map(str), st.text(max_size=6),
                      st.lists(st.integers(0, 64).map(str), max_size=5).map(",".join),
                      st.sampled_from(["none", "se", "eca", "cbam", "residual_wrap"]))
    for _ in range(data.draw(st.integers(0, 3))):
        index = data.draw(st.integers(0, len(lines) - 1))
        key = lines[index].partition(" = ")[0]
        lines[index] = data.draw(st.one_of(value.map(f"{key} = ".__add__), st.text(max_size=12)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(ckpt)
        Path(str(path) + ".cfg").write_text("\n".join(lines) + "\n")
        _run_quietly(["eval", "--model", str(path), "--data", str(fuzz_root / "data")], tmp)
        _run_quietly(["gradcam", "--model", str(path), "--image", str(fuzz_root / "chip.pgm"),
                      "--class", "0", "--out", str(Path(tmp) / "cam.ppm")], tmp)
