"""One BLAS/OpenMP thread per process, decided before numpy loads.

The LM trainer's solves are far too small to gain from threaded BLAS,
and a trained surrogate's last bits depend on the thread count, so
every process entry (``python -m repro``, the test and bench suites)
pins the count to one.  The pin is the three environment variables
below, read once by OpenBLAS/OpenMP/MKL when they load: they must be
set before numpy is first imported, and pool workers inherit them
under both fork and spawn.  This module imports nothing that loads
numpy.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Set every variable of ``THREAD_VARS`` to 1; refuse if numpy is
    already loaded with other values (the pin would not take)."""
    if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in THREAD_VARS):
        raise RuntimeError("numpy was imported before the BLAS/OpenMP thread counts were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
