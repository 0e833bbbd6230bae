import hashlib

import numpy as np
import pytest

from attnatr.data import (BACKGROUND, MAX_SYNTH_CLASSES, SHADOW_LEVEL, TARGET_LEVEL,
                          DatasetError, ImageIoError, PhoenixError, SynthConfig,
                          center_crop_or_pad, load_dataset, minmax_normalize,
                          parse_mstar_phoenix, read_chip, read_pgm, synth_dataset,
                          synth_sample, write_image, write_phoenix, write_synth_dir)
from attnatr.config import ConfigFileError
from attnatr.rng import SplitMix64, derive_seed


# ---------------------------------------------------------------------------
# phoenix parsing


def test_phoenix_roundtrip_within_float32():
    rng = np.random.default_rng(1)
    mag = rng.uniform(size=(4, 4))
    mag.reshape(-1)[0] = 0.0  # pin the normalization range
    mag.reshape(-1)[-1] = 1.0
    img, header = parse_mstar_phoenix(write_phoenix(mag))
    assert header["NumberOfRows"] == "4"
    assert np.abs(img.magnitude - mag).max() < 1e-6  # float32 quantization


def test_phoenix_header_whitespace_tolerance():
    blob = write_phoenix(np.array([[0.0, 1.0]]), extra_header={"TargetType": " t72 "})
    img, header = parse_mstar_phoenix(blob)
    assert header["TargetType"] == "t72"
    assert int(header["NumberOfRows"]) == 1


def test_phoenix_missing_sentinel():
    with pytest.raises(PhoenixError, match="sentinel"):
        parse_mstar_phoenix(b"garbage bytes that are not a header")


def test_phoenix_truncated_payload_names_counts():
    blob = write_phoenix(np.zeros((8, 8)))
    with pytest.raises(PhoenixError, match="truncated") as err:
        parse_mstar_phoenix(blob[:-32])
    assert "512" in str(err.value)  # expected byte count for 8x8 mag+phase


def test_phoenix_missing_required_key():
    text = "[PhoenixHeaderVer01.04]\nNumberOfRows= 4\n[EndofPhoenixHeader]\n"
    with pytest.raises(PhoenixError, match="NumberOfColumns"):
        parse_mstar_phoenix(text.encode())


def test_phoenix_non_integer_geometry():
    text = ("[PhoenixHeaderVer01.04]\nNumberOfRows= x\nNumberOfColumns= 4\n"
            "PhoenixHeaderLength= 10\n[EndofPhoenixHeader]\n")
    with pytest.raises(PhoenixError, match="non-integer"):
        parse_mstar_phoenix(text.encode())


def test_phoenix_header_length_must_cover_the_header():
    # a length of 0 would read the header text as magnitude pixels
    blob = write_phoenix(np.zeros((4, 4)))
    end = blob.index(b"[EndofPhoenixHeader]") + len(b"[EndofPhoenixHeader]")
    length = int(parse_mstar_phoenix(blob)[1]["PhoenixHeaderLength"])
    for bad in (0, end - 1):
        text = f"PhoenixHeaderLength= {bad:>10d}".encode()
        mutated = blob.replace(f"PhoenixHeaderLength= {length:>10d}".encode(), text)
        with pytest.raises(PhoenixError, match=f"header length {bad} ends before"):
            parse_mstar_phoenix(mutated)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_phoenix_non_finite_magnitude(value):
    # one such pixel would turn the whole normalized chip into NaN
    mag = np.random.default_rng(4).uniform(size=(5, 6))
    mag[2, 3] = value
    with pytest.raises(PhoenixError, match="non-finite"):
        parse_mstar_phoenix(write_phoenix(mag))


def test_phoenix_crop_and_pad(tmp_path):
    chip = tmp_path / "chip.raw"
    for side in (6, 2):
        chip.write_bytes(write_phoenix(np.eye(side)))
        assert read_chip(chip, 4).shape == (4, 4)


def test_phoenix_fuzz_smoke():
    # random and mutated buffers must only ever raise PhoenixError
    rng = SplitMix64(99)
    base = write_phoenix(np.random.default_rng(2).uniform(size=(3, 3)))
    for i in range(1000):
        mode = i % 3
        if mode == 0:
            n = 1 + rng.below(200)
            buf = bytes(int(rng.below(256)) for _ in range(n))
        elif mode == 1:
            buf = base[:rng.below(len(base) + 1)]
        else:
            buf = bytearray(base)
            for _ in range(1 + rng.below(8)):
                buf[rng.below(len(buf))] = rng.below(256)
            buf = bytes(buf)
        try:
            parse_mstar_phoenix(buf)
        except PhoenixError:
            pass


def test_normalization_spans_unit_interval():
    mag = np.random.default_rng(3).uniform(2.0, 9.0, size=(5, 5))
    out = minmax_normalize(mag)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.all(minmax_normalize(np.full((3, 3), 4.2)) == 0.0)


# ---------------------------------------------------------------------------
# image files


def test_pgm_golden_bytes(tmp_path):
    path = tmp_path / "a.pgm"
    write_image("pgm", path, np.array([[1.0]]))
    assert path.read_bytes() == b"P5\n1 1\n255\n\xff"
    write_image("pgm", path, np.array([[0.0]]))
    assert path.read_bytes() == b"P5\n1 1\n255\n\x00"


def test_pgm_payload_size(tmp_path):
    path = tmp_path / "ramp.pgm"
    write_image("pgm", path, np.array([[0.0, 0.25], [0.5, 1.0]]))
    raw = path.read_bytes()
    header = b"P5\n2 2\n255\n"
    assert raw.startswith(header)
    assert len(raw) - len(header) == 4


def test_ppm_golden_bytes(tmp_path):
    path = tmp_path / "a.ppm"
    write_image("ppm", path, np.array([[[255.0, 0.0, 128.0]]]))
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x80"


def test_pgm_roundtrip(tmp_path):
    gray = np.round(np.random.default_rng(4).uniform(size=(6, 9)) * 255) / 255.0
    path = tmp_path / "r.pgm"
    write_image("pgm", path, gray)
    assert np.abs(read_pgm(path) - gray).max() < 1e-12


def test_write_image_unknown_kind(tmp_path):
    with pytest.raises(ImageIoError, match="unknown image kind"):
        write_image("png", tmp_path / "x.png", np.zeros((2, 2)))


def test_read_pgm_rejects_truncation(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ImageIoError, match="truncated"):
        read_pgm(path)


def test_read_pgm_rejects_a_sample_above_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5 2 2 100\n\x00\x64\xc8\x10")
    with pytest.raises(ImageIoError, match=f"{path}: sample 200 exceeds maxval 100"):
        read_pgm(path)
    path.write_bytes(b"P5 2 2 100\n\x00\x64\x32\x10")
    assert read_pgm(path).max() == 1.0


def test_read_pgm_rejects_bad_geometry(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1\n0\n\x00")
    with pytest.raises(ImageIoError, match="geometry"):
        read_pgm(path)
    path.write_bytes(b"P5\n0 4\n255\n")
    with pytest.raises(ImageIoError, match="geometry"):
        read_pgm(path)


# ---------------------------------------------------------------------------
# synthetic dataset


def test_synth_clean_render_is_deterministic():
    cfg = SynthConfig(speckle=False, jitter=0.0)
    a = synth_sample(cfg, 1, seed=5).magnitude
    b = synth_sample(cfg, 1, seed=5).magnitude
    assert np.array_equal(a, b)


def test_synth_region_intensity_ordering():
    cfg = SynthConfig()
    clean_cfg = SynthConfig(speckle=False)
    for i in range(100):
        class_id = i % cfg.num_classes
        seed = derive_seed(11, "order", i)
        img = synth_sample(cfg, class_id, seed).magnitude
        clean = synth_sample(clean_cfg, class_id, seed).magnitude
        shadow = clean == SHADOW_LEVEL
        background = clean == BACKGROUND
        target = clean == TARGET_LEVEL
        assert img[shadow].mean() < img[background].mean() < img[target].mean()


def test_synth_speckle_preserves_mean_within_20pct():
    cfg = SynthConfig()
    clean_cfg = SynthConfig(speckle=False)
    for i in range(100):
        seed = derive_seed(12, "mean", i)
        speckled = synth_sample(cfg, i % 3, seed).magnitude.mean()
        clean = synth_sample(clean_cfg, i % 3, seed).magnitude.mean()
        assert 0.8 * clean <= speckled <= 1.2 * clean


def test_synth_values_stay_in_unit_interval():
    cfg = SynthConfig()
    for i in range(20):
        img = synth_sample(cfg, i % 3, derive_seed(13, i)).magnitude
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_synth_dataset_histogram():
    ds = synth_dataset(SynthConfig(per_class_train=100, seed=3), "train")
    assert len(ds) == 300
    assert [img.label for img in ds.images] == [0] * 100 + [1] * 100 + [2] * 100


def test_synth_dataset_reproducible():
    a = synth_dataset(SynthConfig(seed=21), "train")
    b = synth_dataset(SynthConfig(seed=21), "train")
    assert all(np.array_equal(x.magnitude, y.magnitude)
               for x, y in zip(a.images, b.images))


def test_synth_train_test_disjoint():
    cfg = SynthConfig(per_class_train=20, per_class_test=20, seed=5)
    train = synth_dataset(cfg, "train")
    test = synth_dataset(cfg, "test")
    train_bytes = {img.magnitude.tobytes() for img in train.images}
    assert all(img.magnitude.tobytes() not in train_bytes for img in test.images)


@pytest.mark.parametrize("make", [synth_dataset])
def test_synth_rejects_unknown_split(make):
    with pytest.raises(DatasetError, match="unknown split 'bogus'"):
        make(SynthConfig(per_class_test=2), "bogus")


def test_synth_class_names_sort_in_class_id_order():
    assert SynthConfig(num_classes=3).class_names() == ["0_disk", "1_bar", "2_cross"]
    names = SynthConfig(num_classes=12).class_names()
    assert names[0] == "00_disk" and names[5] == "05_disk1" and names[11] == "11_bar2"
    assert sorted(names) == names


def test_synth_class_id_validation():
    with pytest.raises(DatasetError, match="out of range"):
        synth_sample(SynthConfig(), 5, seed=1)


# SHA-256 of synth_sample(SynthConfig(num_classes=12, image_size=size), k,
# 1000 + k) for k = 0..4, recorded before classes 5 and up got their own sizes.
_CLASSES_0_TO_4 = {
    32: ["cf59fb68d9be6601bb55080252d59a1599bafb23ccc33ea981ff07b5f9450a68",
         "54d5a9246414bf317b3fae27263e30dd4264185f6e2a26f4e8f7b3f856cad330",
         "73a8363b38daad4df9aac20b9a54d3c7a97e2758aed644e3168af40039fca98c",
         "60ad976f2894ca31f619b8f88e3bedf70e26c5b28ca3c6343680eb4c191bbbe7",
         "1a59391d8f154df3c306c2a577c293cfe65d0890b5f624ebc6045dc23d46d8a5"],
    128: ["1b0123cb02ebc2543c81843cea2f434917713f35f3bf749224e6fea540207d15",
          "a3095e935181fbbb687596f93a9cb3dd37d154ad861fb5411a37f10889942c6c",
          "91b3f5024a6c34e2ea3ac4cd6377ef4452f69bb45ada04e28fb29401813082c5",
          "e19385dc0fc1a966a6e3022ef395792cc83be30487d8c17411feedce4c17a53c",
          "c436d3387760b603bf2f1d26721951ba2986b6e8840941f655bb095efb2ea740"]}


@pytest.mark.parametrize("size", [32, 128])
def test_synth_classes_0_to_4_keep_their_bytes(size):
    cfg = SynthConfig(num_classes=12, image_size=size)
    got = [hashlib.sha256(synth_sample(cfg, k, 1000 + k).magnitude.tobytes()).hexdigest()
           for k in range(5)]
    assert got == _CLASSES_0_TO_4[size]


@pytest.mark.parametrize("size", [32, 48, 128])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_synth_clean_renders_of_every_class_are_distinct(size, seed):
    cfg = SynthConfig(num_classes=MAX_SYNTH_CLASSES, image_size=size, speckle=False,
                      jitter=0.0)
    renders = {synth_sample(cfg, k, seed).magnitude.tobytes() for k in range(cfg.num_classes)}
    assert len(renders) == MAX_SYNTH_CLASSES >= 12


def test_synth_class_count_above_the_maximum_is_an_error():
    with pytest.raises(ConfigFileError, match=f"'data.classes': .* at most {MAX_SYNTH_CLASSES} "
                       f"classes .*, got {MAX_SYNTH_CLASSES + 1}"):
        SynthConfig(num_classes=MAX_SYNTH_CLASSES + 1)


def test_synth_speckle_looks_must_be_an_integer_of_at_least_one():
    for looks in (0, -2, 2.5, 2.0, "2", None):
        with pytest.raises(ConfigFileError, match=f"'data.speckle_looks': must be an integer "
                           f"of at least 1, got {looks!r}"):
            SynthConfig(speckle_looks=looks)
    two = synth_sample(SynthConfig(speckle_looks=2), 0, seed=4).magnitude
    assert not np.array_equal(two, synth_sample(SynthConfig(), 0, seed=4).magnitude)


# ---------------------------------------------------------------------------
# directory loading


def test_write_and_load_synth_dir(tmp_path):
    cfg = SynthConfig(num_classes=3, per_class_test=4, seed=13)
    count = write_synth_dir(cfg, tmp_path / "d", split="test")
    assert count == 12
    assert (tmp_path / "d" / "test" / "0_disk" / "00000.pgm").is_file()
    ds = load_dataset(tmp_path / "d", "test")
    assert len(ds) == 12
    assert [img.label for img in ds.images] == [0] * 4 + [1] * 4 + [2] * 4
    # pixel data survives the PGM quantization round trip
    direct = synth_dataset(cfg, "test")
    worst = max(np.abs(a.magnitude - b.magnitude).max()
                for a, b in zip(ds.images, direct.images))
    assert worst <= 0.5 / 255.0


@pytest.mark.parametrize("num_classes", [3, 12])
def test_synth_dir_round_trip_keeps_both_splits(tmp_path, num_classes):
    cfg = SynthConfig(num_classes=num_classes, per_class_train=3, per_class_test=2, seed=13)
    for split in ("train", "test"):
        write_synth_dir(cfg, tmp_path, split)
    for split in ("train", "test"):
        loaded, direct = load_dataset(tmp_path, split), synth_dataset(cfg, split)
        assert loaded.class_names == direct.class_names and loaded.split == split
        assert [img.label for img in loaded.images] == [img.label for img in direct.images]
        worst = max(np.abs(a.magnitude - b.magnitude).max()
                    for a, b in zip(loaded.images, direct.images))
        assert worst <= 0.5 / 255.0


def test_load_class_tree_with_phoenix(tmp_path):
    from attnatr.data import write_phoenix
    root = tmp_path / "mstar"
    for cls in ("bmp2", "t72"):
        d = root / "train" / cls
        d.mkdir(parents=True)
        for i in range(2):
            mag = np.random.default_rng(hash(cls) % 100 + i).uniform(size=(6, 6))
            (d / f"chip{i}.raw").write_bytes(write_phoenix(mag))
    ds = load_dataset(root, split="train", size=4)
    assert len(ds) == 4
    assert ds.class_names == ["bmp2", "t72"]
    assert all(img.magnitude.shape == (4, 4) for img in ds.images)


def test_load_empty_class_error(tmp_path):
    (tmp_path / "train" / "empty").mkdir(parents=True)
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(tmp_path, split="train")


def test_load_unreadable_file_error(tmp_path):
    d = tmp_path / "train" / "cls"
    d.mkdir(parents=True)
    (d / "bad.raw").write_bytes(b"not a phoenix file")
    with pytest.raises(DatasetError, match="bad.raw"):
        load_dataset(tmp_path, split="train")


def test_load_missing_directory_error(tmp_path):
    with pytest.raises(DatasetError, match="does not exist"):
        load_dataset(tmp_path / "nope")


# ---------------------------------------------------------------------------
# crop / pad helper


def test_center_crop_and_pad():
    img = np.arange(36, dtype=np.float64).reshape(6, 6)
    cropped = center_crop_or_pad(img, 4)
    assert cropped.shape == (4, 4)
    assert cropped[0, 0] == img[1, 1]
    padded = center_crop_or_pad(np.ones((2, 2)), 4)
    assert padded.shape == (4, 4)
    assert padded.sum() == 4.0
    assert padded[1, 1] == 1.0


@pytest.mark.parametrize("shape", [(6, 2), (7, 3), (2, 7), (4, 4), (1, 9)])
def test_center_crop_or_pad_centers_each_axis_on_its_own(shape):
    img = (np.arange(np.prod(shape)) + 1).reshape(shape).astype(np.uint8)
    rows, cols = (min(n, 4) for n in shape)
    r0, c0 = (shape[0] - rows) // 2, (shape[1] - cols) // 2
    t0, l0 = (4 - rows) // 2, (4 - cols) // 2
    want = np.zeros((4, 4), dtype=np.uint8)
    want[t0:t0 + rows, l0:l0 + cols] = img[r0:r0 + rows, c0:c0 + cols]
    got = center_crop_or_pad(img, 4)
    assert got.dtype == np.uint8
    assert got.tobytes() == want.tobytes()
