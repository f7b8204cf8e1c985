"""Kernel path selection: numba-jitted loops or the pure-numpy fallback.

The enumeration kernel in :mod:`hklab.kernels` exists in two versions that
compute the same thing with the same summation order (the phase-sum and
convolution kernels are numpy only).  The jitted version is used by
default; setting the environment variable ``HK_NO_NUMBA=1`` (or running on a
machine without numba) selects the numpy version.  ``benchmarks/bench_kernels.py``
times the two paths against each other.
"""

import os

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dep, but stay usable
    numba = None
    HAVE_NUMBA = False

_flag = os.environ.get("HK_NO_NUMBA", "").strip().lower()
USE_NUMBA = HAVE_NUMBA and _flag not in ("1", "true", "yes", "on")


def njit(*args, **kwargs):
    """``numba.njit`` when numba is importable, identity decorator otherwise.

    Jitted functions are still compiled even under ``HK_NO_NUMBA`` (so the
    benchmark can reach them); dispatch happens at the call sites in
    :mod:`hklab.kernels`, not here.
    """
    if not HAVE_NUMBA:
        if args and callable(args[0]):
            return args[0]
        return lambda f: f
    if args and callable(args[0]):
        return numba.njit(cache=True)(args[0])
    kwargs.setdefault("cache", True)
    return numba.njit(*args, **kwargs)
