"""Dataset plumbing: Phoenix-format radar chips, PGM/PPM images, and a
synthetic speckled stand-in dataset.

The synthetic generator renders one bright geometric template per class
(five shapes in three sizes, so at most 15 classes), a darker shadow region
displaced along a fixed offset vector, multiplicative unit-mean speckle, and
per-image jitter, all drawn from seeded splitmix streams so a config
reproduces its dataset byte for byte on one machine and one numpy build
(speckle and template rotation go through numpy's ``log``, ``cos``, ``sin``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigFileError
from .rng import SplitMix64, derive_seed


class PhoenixError(ValueError):
    """Raised on malformed Phoenix-format bytes."""


class DatasetError(ValueError):
    """Raised on unloadable dataset directories."""


@dataclass
class SarImage:
    magnitude: np.ndarray  # (H, W) float64 in [0, 1]
    label: int


@dataclass
class Dataset:
    images: list
    class_names: list
    split: str

    def __len__(self):
        return len(self.images)


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Scale into [0, 1]; a constant image maps to all zeros."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values, dtype=np.float64)
    return (values.astype(np.float64) - lo) / (hi - lo)


def center_crop_or_pad(img: np.ndarray, size: int) -> np.ndarray:
    """Center-crop larger axes, zero-pad smaller ones, to size x size: each
    axis copies its centered overlap of min(extent, size) pixels."""
    src, dst = [], []
    for n in img.shape:
        m = min(n, size)
        src.append(slice((n - m) // 2, (n - m) // 2 + m))
        dst.append(slice((size - m) // 2, (size - m) // 2 + m))
    out = np.zeros((size, size), dtype=img.dtype)
    out[tuple(dst)] = img[tuple(src)]
    return out


# ---------------------------------------------------------------------------
# Phoenix format

_SENTINEL = b"[PhoenixHeaderVer"
_END_MARK = b"[EndofPhoenixHeader]"
_REQUIRED_KEYS = ("NumberOfRows", "NumberOfColumns", "PhoenixHeaderLength")


def parse_mstar_phoenix(data: bytes):
    """Parse one Phoenix chip into (SarImage, header table).

    The payload is magnitude then phase, each rows x cols of big-endian
    float32; phase is discarded.  The magnitude plane is min-max normalized.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise PhoenixError("phoenix parser expects bytes")
    data = bytes(data)
    if not data.startswith(_SENTINEL):
        raise PhoenixError(
            f"missing Phoenix header sentinel {_SENTINEL.decode()!r} at start of data")
    end = data.find(_END_MARK)
    if end < 0:
        raise PhoenixError("header end marker [EndofPhoenixHeader] not found")

    header: dict[str, str] = {}
    text = data[:end].decode("latin-1")
    for line in text.splitlines():
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()

    for key in _REQUIRED_KEYS:
        if key not in header:
            raise PhoenixError(f"required header key {key!r} missing")
    try:
        rows = int(header["NumberOfRows"])
        cols = int(header["NumberOfColumns"])
        offset = int(header["PhoenixHeaderLength"])
    except ValueError as exc:
        raise PhoenixError(f"non-integer value in required header key: {exc}") from exc
    if rows < 1 or cols < 1:
        raise PhoenixError(f"invalid header geometry: rows={rows}, cols={cols}")
    header_end = end + len(_END_MARK)
    if offset < header_end:
        raise PhoenixError(f"header length {offset} ends before the end of "
                           f"[EndofPhoenixHeader] at byte {header_end}")

    expected = 2 * rows * cols * 4  # magnitude + phase planes, float32
    actual = len(data) - offset
    if actual < expected:
        raise PhoenixError(
            f"truncated payload: header declares {expected} bytes "
            f"({rows}x{cols} magnitude+phase) after offset {offset}, found {actual}")

    plane = rows * cols * 4
    magnitude = np.frombuffer(data[offset:offset + plane], dtype=">f4")
    # checked before the cast, which warns on a signaling NaN
    if not np.isfinite(magnitude).all():
        raise PhoenixError("magnitude plane holds a non-finite value")
    magnitude = magnitude.astype(np.float64).reshape(rows, cols)
    return SarImage(minmax_normalize(magnitude), label=-1), header


def write_phoenix(magnitude: np.ndarray, extra_header: dict | None = None) -> bytes:
    """Serialize a magnitude plane (zero phase) as Phoenix bytes."""
    magnitude = np.asarray(magnitude, dtype=np.float64)
    rows, cols = magnitude.shape
    lines = ["[PhoenixHeaderVer01.04]"]
    for key, value in (extra_header or {}).items():
        lines.append(f"{key}= {value}")
    lines.append(f"NumberOfRows= {rows}")
    lines.append(f"NumberOfColumns= {cols}")
    # header length backpatched to the actual text length
    stub = "PhoenixHeaderLength= {:>10d}"
    lines.append(stub.format(0))
    lines.append("[EndofPhoenixHeader]")
    text = "\n".join(lines) + "\n"
    header_len = len(text.encode("ascii"))
    lines[-2] = stub.format(header_len)
    text = "\n".join(lines) + "\n"
    payload = magnitude.astype(">f4").tobytes() + np.zeros((rows, cols), dtype=">f4").tobytes()
    return text.encode("ascii") + payload


# ---------------------------------------------------------------------------
# PGM / PPM

class ImageIoError(ValueError):
    pass


def write_image(kind: str, path, pixels: np.ndarray):
    """Write binary PGM (gray in [0, 1]) or PPM (RGB in [0, 255])."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if kind == "pgm":
        if pixels.ndim != 2:
            raise ImageIoError(f"pgm expects (H, W) gray pixels, got {pixels.shape}")
        payload = np.clip(np.round(pixels * 255.0), 0, 255).astype(np.uint8)
        magic = b"P5"
    elif kind == "ppm":
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ImageIoError(f"ppm expects (H, W, 3) RGB pixels, got {pixels.shape}")
        payload = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
        magic = b"P6"
    else:
        raise ImageIoError(f"unknown image kind {kind!r}, expected pgm or ppm")
    h, w = pixels.shape[:2]
    try:
        with open(path, "wb") as fh:
            fh.write(magic + b"\n" + f"{w} {h}".encode() + b"\n255\n")
            fh.write(payload.tobytes())
    except OSError as exc:
        raise ImageIoError(f"cannot write {path}: {exc}") from exc


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM into a [0, 1] float array."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ImageIoError(f"cannot read {path}: {exc}") from exc
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(raw):
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if len(tokens) != 4 or tokens[0] != b"P5":
        raise ImageIoError(f"{path}: not a binary PGM")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ImageIoError(f"{path}: bad PGM header: {exc}") from exc
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise ImageIoError(f"{path}: bad PGM geometry {w}x{h} maxval {maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ImageIoError(f"{path}: truncated PGM payload")
    if pixels.max() > maxval:
        raise ImageIoError(f"{path}: sample {pixels.max()} exceeds maxval {maxval}")
    return pixels.reshape(h, w).astype(np.float64) / float(maxval)


def read_chip(path, size: int | None) -> np.ndarray:
    """Read a PGM (by its ``.pgm`` suffix) or else a Phoenix chip as [0, 1]
    pixels, center-cropped or zero-padded to ``size`` unless it is None."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        pixels = read_pgm(path)
    else:
        pixels = parse_mstar_phoenix(path.read_bytes())[0].magnitude
    return pixels if size is None else center_crop_or_pad(pixels, size)


# ---------------------------------------------------------------------------
# synthetic speckle dataset

# name -> mask of the template in its rotated frame (u, v) at scale s, in
# pixels at 32 px; the wedge is an isoceles triangle pointing along +u
_TEMPLATES = {
    "disk": lambda u, v, s: (u * u + v * v) <= (4.5 * s) ** 2,
    "bar": lambda u, v, s: (np.abs(u) <= 8.0 * s) & (np.abs(v) <= 2.0 * s),
    "cross": lambda u, v, s: ((np.abs(u) <= 6.5 * s) & (np.abs(v) <= 1.6 * s)) |
                             ((np.abs(v) <= 6.5 * s) & (np.abs(u) <= 1.6 * s)),
    "ring": lambda u, v, s: ((r2 := u * u + v * v) >= (2.5 * s) ** 2) & (r2 <= (5.0 * s) ** 2),
    "wedge": lambda u, v, s: (u >= -3.0 * s) & (u <= 5.5 * s) & (np.abs(v) <= (5.5 * s - u) * 0.5),
}
_TEMPLATE_NAMES = tuple(_TEMPLATES)
_SIZE_STEPS = (1.0, 1.25, 1.5)  # template scale of variant 0, 1, 2
MAX_SYNTH_CLASSES = len(_TEMPLATE_NAMES) * len(_SIZE_STEPS)
BACKGROUND, TARGET_LEVEL, SHADOW_LEVEL = 0.15, 0.9, 0.03  # clean intensities
SHADOW_OFFSET = (5, 3)  # (dy, dx) pixels at 32 px scale


@dataclass
class SynthConfig:
    num_classes: int = 3
    per_class_train: int = 100
    per_class_test: int = 50
    image_size: int = 32
    speckle: bool = True
    speckle_looks: int = 1  # averaged exponentials; 1 = single-look
    jitter: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes > MAX_SYNTH_CLASSES:
            raise ConfigFileError(
                f"config key 'data.classes': the synthetic dataset has at most "
                f"{MAX_SYNTH_CLASSES} classes ({len(_TEMPLATE_NAMES)} shapes in "
                f"{len(_SIZE_STEPS)} sizes), got {self.num_classes}")
        if not isinstance(self.speckle_looks, int) or self.speckle_looks < 1:
            raise ConfigFileError("config key 'data.speckle_looks': must be an integer of "
                                  f"at least 1, got {self.speckle_looks!r}")

    def class_names(self) -> list:
        """``<id>_<template>``, the id zero-padded so that name order is id order."""
        width, kinds = len(str(self.num_classes - 1)), len(_TEMPLATE_NAMES)
        return [f"{i:0{width}d}_{_TEMPLATE_NAMES[i % kinds]}{i // kinds or ''}"
                for i in range(self.num_classes)]


def _template_mask(class_id: int, size: int, cy: float, cx: float,
                   angle: float) -> np.ndarray:
    """Rasterize the template of class k (shape k % 5 at size step k // 5)
    centered at (cy, cx), rotated by angle."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dy, dx = ys - cy, xs - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = ca * dx + sa * dy      # rotated frame
    v = -sa * dx + ca * dy
    variant, kind = divmod(class_id, len(_TEMPLATE_NAMES))
    return _TEMPLATES[_TEMPLATE_NAMES[kind]](u, v, size / 32.0 * _SIZE_STEPS[variant])


def synth_sample(cfg: SynthConfig, class_id: int, seed: int) -> SarImage:
    """Render one speckled chip for ``class_id`` from its own stream seed."""
    if not 0 <= class_id < cfg.num_classes:
        raise DatasetError(f"class_id {class_id} out of range [0, {cfg.num_classes})")
    rng = SplitMix64(seed)
    size = cfg.image_size
    scale = size / 32.0
    cy = size / 2.0 + rng.uniform((), -cfg.jitter, cfg.jitter) * scale
    cx = size / 2.0 + rng.uniform((), -cfg.jitter, cfg.jitter) * scale
    angle = rng.uniform((), 0.0, 2.0 * np.pi)

    target = _template_mask(class_id, size, cy, cx, angle)
    off_y, off_x = SHADOW_OFFSET
    shadow = _template_mask(class_id, size, cy + off_y * scale, cx + off_x * scale, angle)
    shadow &= ~target  # target occludes its own shadow

    img = np.full((size, size), BACKGROUND)
    img[shadow] = SHADOW_LEVEL
    img[target] = TARGET_LEVEL
    if cfg.speckle:
        noise = rng.exponential((cfg.speckle_looks, size, size)).mean(axis=0)
        img = img * noise
    return SarImage(np.clip(img, 0.0, 1.0), label=class_id)


def synth_dataset(cfg: SynthConfig, split: str) -> Dataset:
    """Generate the full train or test split, ordered by (class, index)."""
    if split not in ("train", "test"):
        raise DatasetError(f"unknown split {split!r}")
    per_class = cfg.per_class_train if split == "train" else cfg.per_class_test
    images = [synth_sample(cfg, class_id, derive_seed(cfg.seed, "synth", split, class_id, index))
              for class_id in range(cfg.num_classes) for index in range(per_class)]
    return Dataset(images, cfg.class_names(), split)


def write_synth_dir(cfg: SynthConfig, out_dir, split: str = "test") -> int:
    """Write a split as the chip tree ``load_dataset`` reads,
    ``<out_dir>/<split>/<class>/<index>.pgm``; returns the image count."""
    split_dir = Path(out_dir) / split
    if split_dir.exists():
        raise DatasetError(f"{split_dir} already exists; its chips would mix with new ones")
    ds = synth_dataset(cfg, split)
    for index, img in enumerate(ds.images):
        cls_dir = split_dir / ds.class_names[img.label]
        cls_dir.mkdir(parents=True, exist_ok=True)
        write_image("pgm", cls_dir / f"{index:05d}.pgm", img.magnitude)
    return len(ds)


# ---------------------------------------------------------------------------
# directory loading


def load_dataset(source, split: str = "train", size: int | None = None) -> Dataset:
    """Load a ``<split>/<class>/<chip>`` tree of Phoenix chips or PGMs, as
    ``synth-gen`` writes it.  Classes are labelled, and chips ordered, by
    lexicographic path.
    """
    root = Path(source)
    if not root.is_dir():
        raise DatasetError(f"dataset directory {root} does not exist")
    split_dir = root / split
    if not split_dir.is_dir():
        raise DatasetError(f"no {split!r} directory under {root}")
    class_dirs = sorted(p for p in split_dir.iterdir() if p.is_dir())
    if not class_dirs:
        raise DatasetError(f"no class directories under {split_dir}")
    images = []
    class_names = []
    for label, cls_dir in enumerate(class_dirs):
        class_names.append(cls_dir.name)
        files = sorted(p for p in cls_dir.iterdir() if p.is_file())
        if not files:
            raise DatasetError(f"class directory {cls_dir} is empty")
        for path in files:
            try:
                pixels = read_chip(path, size)
            except (PhoenixError, ImageIoError, OSError) as exc:
                raise DatasetError(f"unreadable file {path}: {exc}") from exc
            images.append(SarImage(pixels, label))
    return Dataset(images, class_names, split)
