"""Flat binary checkpoint files.

Layout (all integers little-endian, values little-endian IEEE float64):

    magic "ATTNATR1"
    repeat per tensor:
        u32 name length, UTF-8 name bytes
        u32 rank, u32 extent per axis
        float64 values, row-major

Records run to end of file; the byte layout is normative, so two identical
parameter sets always serialize to identical bytes.  Batchnorm running
statistics are stored alongside trainable parameters under their own names
so a reloaded model reproduces eval-mode behavior exactly.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"ATTNATR1"


class CheckpointError(ValueError):
    """Raised on malformed checkpoint bytes."""


def dump_tensors(named) -> bytes:
    """Serialize an iterable of (name, array) pairs.  The values are joined
    straight from each array's buffer, so the file is the only copy made."""
    chunks = [MAGIC]
    for name, arr in named:
        arr = np.asarray(arr, dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(memoryview(arr))
    return b"".join(chunks)


def parse_tensors(data: bytes) -> dict[str, np.ndarray]:
    """Parse checkpoint bytes back into {name: array}, validating the layout."""
    if data[:8] != MAGIC:
        raise CheckpointError(
            f"bad checkpoint magic {data[:8]!r}, expected {MAGIC!r}")
    out: dict[str, np.ndarray] = {}
    view = memoryview(data)  # slices share the buffer; astype copies each tensor once
    pos = 8
    n = len(data)

    def take(count, what):
        nonlocal pos
        if pos + count > n:
            raise CheckpointError(
                f"truncated checkpoint: needed {count} bytes for {what} "
                f"at offset {pos}, only {n - pos} left")
        chunk = view[pos:pos + count]
        pos += count
        return chunk

    while pos < n:
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name at offset {pos} is not UTF-8: {exc}") \
                from exc
        (rank,) = struct.unpack("<I", take(4, "rank"))
        extents = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        count = 1
        for e in extents:  # python ints: no overflow on hostile extents
            count *= e
        raw = take(8 * count, f"values of {name!r}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(extents)
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        out[name] = arr
    return out


def save_checkpoint(path, named):
    with open(path, "wb") as fh:
        fh.write(dump_tensors(named))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return parse_tensors(fh.read())
