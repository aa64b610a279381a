"""Tier-1 runs on one BLAS thread, as the benchmark does, unless the caller sets a count.

The thread counts are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
