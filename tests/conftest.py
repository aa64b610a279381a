"""Tier-1 runs on one BLAS thread, as the benchmark does, unless the caller sets a count.

The thread counts are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy.
"""

import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture(scope="session")
def verify_results():
    """Every ``verify`` check, run once per session, by name."""
    from noisecycle import verify

    return {r.name: r for r in verify.run_checks()}
