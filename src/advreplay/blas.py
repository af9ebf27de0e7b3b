"""The thread count of the OpenBLAS that numpy is linked to.

A run works on small matrices (at most a few hundred rows by 64 columns),
where a second BLAS thread costs more CPU than it saves wall time: it spins
after each call.  ``runner.run_benchmark`` therefore runs on one thread,
and independent runs go to separate processes (``runner.run_many``).

OpenBLAS is found among the process's mapped libraries and driven through
``ctypes``; where it is not found (another BLAS, or no ``/proc``), the
scope does nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np  # noqa: F401  (loads the BLAS that the lookup searches for)

# (getter, setter) symbol pairs: numpy's bundled scipy-openblas, then a
# system OpenBLAS with 64-bit or 32-bit integers
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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
