"""Run the solver on one OpenBLAS thread (see `sip`): the thread-count
functions of the loaded OpenBLAS, found through ctypes, and the context
manager that `sip.solve` enters.  Kept apart from `sip` so that each module
compiles in less memory: without cached bytecode, the compile of the largest
module sets the import's peak memory."""

from __future__ import annotations

import ctypes
import functools
import threading


# (get, set) thread-count functions of numpy's bundled OpenBLAS and of a
# system OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None where
    none is loaded (Accelerate, MKL) or the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Context manager that runs its body on one OpenBLAS thread.

    The thread count is process-wide, so overlapping bodies in several
    threads share one scope: the first to enter records the count it finds
    and sets 1, the last to leave restores it.  Without OpenBLAS it does
    nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._found = 0

    def __enter__(self):
        funcs = _openblas_threads()
        if funcs is not None:
            get, set_ = funcs
            with self._lock:
                if self._depth == 0:
                    self._found = get()
                    set_(1)
                self._depth += 1

    def __exit__(self, *exc):
        funcs = _openblas_threads()
        if funcs is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    funcs[1](self._found)


one_blas_thread = _OneBlasThread()
