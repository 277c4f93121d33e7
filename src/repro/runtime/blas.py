"""OpenBLAS thread pools: find them, read them, drop them to one thread.

NumPy and SciPy wheels each bundle their own OpenBLAS
(``libscipy_openblas64_`` and ``libscipy_openblas``), and each runs a
helper thread per extra core for large GEMMs.  Between GEMMs those
helpers spin-wait.  That is harmless while the conv GEMMs are the only
work in the process, but once the pipelined
:class:`~repro.runtime.stage_graph.StageExecutor` runs RFBME on a second
thread, a spinning helper takes the core that thread needs.  So the
first head thread calls :func:`limit_openblas_threads`, which sets every
loaded OpenBLAS to one thread, once per process.  OpenBLAS splits a
GEMM's output among its threads, not its inner sums, so the thread
count does not change an output bit (``tests/test_inference.py`` checks
a float64 plan at one and two threads).

The pools are found in ``/proc/self/maps``.  Where that file does not
exist (not Linux), or no mapped library is an OpenBLAS (NumPy built on
MKL, Accelerate or a reference BLAS), there is nothing to limit and
every function here does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable, Dict, List, NamedTuple

__all__ = [
    "OpenBLASPool",
    "openblas_pools",
    "openblas_threads",
    "set_openblas_threads",
    "limit_openblas_threads",
]

#: name stems of the C entry points, plain and as the SciPy wheels
#: rename them (prefix ``scipy_``, ILP64 suffix ``64_``).  The Fortran
#: twins (``..._num_threads_``) take a pointer and are never bound.
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")
#: the process's memory map: one line per mapping, the path last.
_MAPS = "/proc/self/maps"


class OpenBLASPool(NamedTuple):
    """One loaded OpenBLAS and its thread-count entry points."""

    path: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


def _symbol(lib: ctypes.CDLL, stem: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def openblas_pools() -> List[OpenBLASPool]:
    """Every OpenBLAS mapped into this process, by path (may be empty)."""
    try:
        with open(_MAPS) as maps:
            paths = sorted(
                {
                    fields[5].strip()
                    for fields in (line.split(maxsplit=5) for line in maps)
                    if len(fields) == 6
                    and "openblas" in os.path.basename(fields[5])
                    and ".so" in os.path.basename(fields[5])
                }
            )
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter, getter = _symbol(lib, "set_num_threads"), _symbol(
            lib, "get_num_threads"
        )
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        pools.append(OpenBLASPool(path, setter, getter))
    return pools


def openblas_threads() -> Dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library path."""
    return {pool.path: pool.get_threads() for pool in openblas_pools()}


def set_openblas_threads(threads: int) -> int:
    """Set every loaded OpenBLAS to ``threads``; returns how many."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    pools = openblas_pools()
    for pool in pools:
        pool.set_threads(threads)
    return len(pools)


_limited = False
_limit_lock = threading.Lock()


def limit_openblas_threads() -> None:
    """Drop every loaded OpenBLAS to one thread, the first call only."""
    global _limited
    with _limit_lock:
        if not _limited:
            _limited = True
            set_openblas_threads(1)
