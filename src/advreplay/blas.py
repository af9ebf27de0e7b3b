"""The thread count of the OpenBLAS that numpy is linked to, and the CPUs
this process may use.

A run works on small matrices (at most a few hundred rows by 64 columns),
where a second BLAS thread costs more CPU than it saves wall time: it spins
after each call.  ``runner.run_benchmark`` therefore runs on one thread.
The other CPUs go to processes instead: independent runs to separate pool
workers (``runner.run_many``), and within a run, each task's replay attack
and each task's evaluation but the last to helper processes
(``train.Helper``), forked only under OpenBLAS.

OpenBLAS is found among the process's mapped libraries and driven through
``ctypes``; where it is not found (another BLAS, or no ``/proc``), the
scope does nothing and no helper is forked.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np  # noqa: F401  (loads the BLAS that the lookup searches for)

# (getter, setter) symbol pairs: numpy's bundled scipy-openblas, then a
# system OpenBLAS with 64-bit or 32-bit integers
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cpus() -> tuple[int, ...]:
    """Ids of the CPUs this process may run on: its affinity set, or every CPU
    where the platform has no affinity call."""
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except AttributeError:
        return tuple(range(os.cpu_count() or 1))


@functools.cache
def lookup():
    """``(get, set)`` thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def single_thread():
    """Run the body on one BLAS thread; the previous count is restored on exit,
    also when the body raises."""
    found = lookup()
    if found is None:
        yield
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
