"""Same bits: both solvers on the committed inputs of ``tests/golden/``
reproduce the committed record of ``tests/make_golden.py``.

On the machine fingerprint that wrote the record every array must have
the same bytes.  On any other numpy build or CPU, SIMD dispatch and BLAS
kernels may round differently, so every block must then lie within
``REL_TOL`` of its record, relative to the record's norm, and the test
warns that it compared at a tolerance."""

import warnings

import numpy as np
import pytest

from make_golden import ALGORITHMS, CASES, RECORD, fingerprint, solve

REL_TOL = 1e-12


@pytest.fixture(scope="module")
def record():
    with np.load(RECORD) as stored:
        return {name: stored[name] for name in stored.files}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_solves_reproduce_the_record(record, case, algorithm):
    arrays = solve(case, algorithm)
    expected = {name.rpartition("/")[2]: value
                for name, value in record.items()
                if name.startswith(f"{case}/{algorithm}/")}
    assert sorted(arrays) == sorted(expected)
    for name, value in arrays.items():
        assert (value.dtype, value.shape) == (
            expected[name].dtype, expected[name].shape), name
    worst = max(np.linalg.norm(value - expected[name])
                / max(np.linalg.norm(expected[name]), 1e-300)
                for name, value in arrays.items())
    if str(record["fingerprint"]) == fingerprint():
        changed = [name for name, value in arrays.items()
                   if value.tobytes() != expected[name].tobytes()]
        assert changed == [], (f"bytes differ from the record; worst "
                               f"relative change {worst:.2e}")
    else:
        warnings.warn(f"{case}/{algorithm}: another machine wrote the "
                      f"record; compared at relative {REL_TOL:g}")
        assert worst <= REL_TOL
