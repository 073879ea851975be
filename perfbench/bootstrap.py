"""Prepare the interpreter before geotrack (and numpy) are imported.

Pins the process to one core and the BLAS thread pools to one thread, and
puts the checkout's ``src`` first on the import path. Call ``prepare`` before
importing numpy anywhere in the process.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The geotrack sources of this checkout are missing or shadowed."""


def _pin_threads():
    """One BLAS thread: on a few shared cores a second thread measures the
    host's scheduler, and the speed probe (speed.py) runs on one thread."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def prepare():
    """Pin to one core and one BLAS thread, import geotrack from this checkout;
    returns the environment.

    Raises CheckoutError when the checkout holds no importable geotrack.
    """
    allowed = sorted(os.sched_getaffinity(0))
    # One core: moving between cores of a shared host mixes their speeds
    # within a run, which the speed probe (speed.py) can only average.
    os.sched_setaffinity(0, {allowed[0]})
    _pin_threads()
    sys.path.insert(0, str(SRC))
    try:
        import geotrack
        from geotrack import _kernels
    except ImportError as exc:
        raise CheckoutError(f"cannot import geotrack from {SRC}: {exc}") from exc
    if SRC not in Path(geotrack.__file__).resolve().parents:
        raise CheckoutError(f"geotrack resolved to {geotrack.__file__}, outside {SRC}")
    import numpy

    return {
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "cores": len(allowed),
        "pinned_core": allowed[0],
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "geotrack": geotrack.__version__,
    }
