"""Test-session set-up shared by ``tests/`` and ``benchmarks/``.

The suite runs single-threaded, as the benchmark does: every BLAS and
OpenMP pool that ``benchmarks/provenance.py`` lists defaults to one
thread.  A root conftest is imported before any test module loads
numpy, so OpenBLAS reads these values when it starts; a value already
set in the environment still wins.  The package itself pins nothing.
"""

import os

from benchmarks.provenance import THREAD_ENV

for name in THREAD_ENV:
    os.environ.setdefault(name, "1")
