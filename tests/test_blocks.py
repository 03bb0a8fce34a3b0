import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padmm.blocks import BlockVector

from oracles import (from_ravel, norm_hypot, random_like, ravel,
                     signed_zero_field)


@pytest.fixture
def pair():
    rng = np.random.default_rng(0)
    shapes = ((3, 4), (2, 3, 4), (5,))
    return (random_like(BlockVector.zeros(shapes), rng),
            random_like(BlockVector.zeros(shapes), rng))


def test_vector_space_ops(pair):
    x, y = pair
    z = 2.0 * x + y - x
    for zb, xb, yb in zip(z.blocks, x.blocks, y.blocks):
        assert np.allclose(zb, xb + yb, atol=1e-14)


def test_layout_preserved(pair):
    x, y = pair
    assert (x + y).shapes == x.shapes
    assert (-x).shapes == x.shapes


def test_norm_matches_ravel(pair):
    x, _ = pair
    assert np.isclose(x.norm(), np.linalg.norm(ravel(x)))


_block_shape = st.one_of(
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.just(2), st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 40)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_block_shape,
                          st.sampled_from(["real", "complex", "strided"])),
                min_size=1, max_size=6),
       st.integers(0, 10_000))
def test_norm_matches_hypot_reference(layout, seed):
    rng = np.random.default_rng(seed)
    x = BlockVector([10.0 ** rng.uniform(-3, 3) * signed_zero_field(rng, s, kind)
                     for s, kind in layout])
    ref = norm_hypot(x)
    assert abs(x.norm() - ref) <= 1e-15 * ref


def test_norm_overflow_is_inf():
    # the solvers report an overflowed residual as divergence and
    # silence the overflow warning in Solver.iterates, as here
    x = BlockVector([np.ones(3), np.full((2, 2, 2), 1e200 + 1e200j)])
    with np.errstate(over="ignore"):
        assert x.norm() == float("inf")


def test_inner_conjugate_symmetry(pair):
    x, y = pair
    assert np.isclose(x.inner(y), np.conj(y.inner(x)))


def test_ravel_round_trip(pair):
    x, _ = pair
    back = from_ravel(ravel(x), x.shapes)
    for a, b in zip(back.blocks, x.blocks):
        assert np.array_equal(a, b)


def test_zeros_and_isfinite(pair):
    x, _ = pair
    z = BlockVector.zeros(x.shapes)
    assert z.norm() == 0
    assert z.isfinite()
    bad = BlockVector([np.array([[np.nan]])])
    assert not bad.isfinite()


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_isfinite_sees_either_part(part, bad):
    # isfinite reads the float64 view, where the parts are interleaved
    block = np.zeros((3, 4), dtype=np.complex128)
    x = BlockVector([np.ones(5), block])
    assert x.isfinite()
    getattr(block, part)[2, 3] = bad
    assert not x.isfinite()
    assert x.isfinite() == all(np.isfinite(b).all() for b in x.blocks)


def test_isfinite_on_strided_and_scalar_blocks():
    wide = np.full((2, 6), 1 + 1j)
    wide[0, 1] = complex(0.0, np.nan)  # outside the strided view
    assert BlockVector([wide[:, ::2], np.array(2j)]).isfinite()
    assert not BlockVector([wide[:, 1::2]]).isfinite()
    assert not BlockVector([np.array(complex(np.inf, 0.0))]).isfinite()
