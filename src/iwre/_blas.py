"""Pin every loaded OpenBLAS to one thread while scoring or a fit runs.

Scoring parallelises over fixed row chunks in a thread pool
(:func:`iwre.scoring._map_row_chunks`); that pool is the only source of
parallelism. An OpenBLAS left at its default thread count would start its
own threads inside every pool worker, and on a small host they spin instead
of computing. iwre's own BLAS work runs on numpy's OpenBLAS alone; every
copy mapped into the process is pinned, so a second OpenBLAS (scipy's,
when the caller has imported scipy) is held at one thread too.

The libraries are found in ``/proc/self/maps`` and driven through
``ctypes``; on other platforms, or with no OpenBLAS loaded, the pin does
nothing. BLAS thread counts are process-wide, so the pin is too: the first
caller in saves each library's count and sets it to one, the last caller
out restores it, and nested or concurrent scoring calls share one pin.

The pin acts only while iwre computes, but OpenBLAS starts its worker
threads when numpy is imported. So :mod:`iwre.cli` also sets
``OPENBLAS_NUM_THREADS=1`` before it imports numpy, unless the caller set
it or numpy is already imported, and a CLI process starts no BLAS worker
threads. Library callers keep their own setting and get the pin alone.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager

# (getter, setter) symbol pairs, tried in order: scipy-openblas builds with a
# 64-bit and a 32-bit integer interface, then a plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved: list = []


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    if not sys.platform.startswith("linux"):
        return []
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return []
    return sorted(
        p for p in paths if p.startswith("/") and "openblas" in os.path.basename(p)
    )


def _controls() -> list[tuple]:
    """One ``(get_num_threads, set_num_threads)`` pair per loaded OpenBLAS."""
    controls = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


def thread_counts() -> list[int]:
    """Current thread count of each loaded OpenBLAS (empty when none is)."""
    return [get() for get, _ in _controls()]


@contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS at one thread.

    Re-entrant and safe from several threads at once; the previous counts
    are restored when the last caller leaves, also when the body raises.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in _controls()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
                _saved = []
