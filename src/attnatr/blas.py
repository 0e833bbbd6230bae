"""numpy's OpenBLAS, read and pinned through ctypes, and the cores to split over.

The library is the OpenBLAS shared object this process has mapped (Linux
``/proc/self/maps``), opened by path.  Its entry points carry the suffix of
the build numpy ships: ``scipy_openblas_*64_`` (numpy 2), ``openblas_*64_``
or plain ``openblas_*``.  Where none is found (another BLAS or another OS),
``threads`` and ``core`` give None and evaluation never splits.

OpenBLAS's thread count is one setting for the whole process.  ``one_thread``
pins it while any caller is inside and restores it when the last one leaves.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy  # noqa: F401  (its import maps the OpenBLAS looked up below)

_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads, get_corename) of numpy's OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in _SYMBOLS:
            get = getattr(lib, symbol.format("get_num_threads"), None)
            if get is None:
                continue
            put = getattr(lib, symbol.format("set_num_threads"))
            name = getattr(lib, symbol.format("get_corename"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            name.argtypes, name.restype = [], ctypes.c_char_p
            return get, put, name
    return None


def threads() -> int | None:
    """OpenBLAS's thread count, or None when numpy's OpenBLAS is not found."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def core() -> str | None:
    """The kernel family OpenBLAS picked for this CPU (e.g. SkylakeX), or None."""
    lib = _openblas()
    return None if lib is None else lib[2]().decode()


def split_cores() -> int:
    """How many per-core chunks an evaluation batch may split into: the CPUs
    this process may run on when OpenBLAS can be pinned to one thread per
    chunk, else 1."""
    return len(os.sched_getaffinity(0)) if _openblas() is not None else 1


_lock = threading.Lock()
_inside = 0
_saved = None


@contextmanager
def one_thread():
    """Run the body with OpenBLAS at one thread, restoring the count after."""
    global _inside, _saved
    lib = _openblas()
    if lib is None:
        yield
        return
    get, put, _ = lib
    with _lock:
        if not _inside:
            _saved = get()
            put(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if not _inside:
                put(_saved)
