"""Process set-up shared by the benchmark's entry points: BLAS pinned to one
thread before numpy loads, and ``hkt4`` imported from this checkout's
``src`` and nowhere else."""

from __future__ import annotations

import os
import sys
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> Dict[str, str]:
    """Set every BLAS thread variable to 1; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_hkt4():
    """Import ``hkt4`` from ``src`` of this checkout; exit with code 2 when
    the sources are missing, so a copy of the benchmark alone never reports
    a result."""
    package = os.path.join(SRC, "hkt4", "__init__.py")
    if not os.path.isfile(package):
        sys.stderr.write(f"bench: no hkt4 sources at {package}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import hkt4

    if os.path.dirname(os.path.abspath(hkt4.__file__)) != os.path.dirname(package):
        sys.stderr.write(f"bench: hkt4 was imported from {hkt4.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return hkt4
