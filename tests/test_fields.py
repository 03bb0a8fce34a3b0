import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padmm.fields import dft2, grad, grad_adjoint, grad_normal, idft2

from oracles import (bit_identical, grad_adjoint_slices, grad_map, grad_slices,
                     materialize, random_field, random_gradient,
                     signed_zero_field)


class TestGrad:
    def test_constant_field_has_zero_gradient(self):
        g = grad(np.full((5, 6), 2.3 + 1j))
        assert np.all(g == 0)

    def test_single_pixel_field(self):
        assert np.all(grad(np.array([[3.0 + 1j]])) == 0)

    def test_column_ramp(self):
        # img[i, j] = j on 3x3: dx = 1 except last column, dy = 0
        img = np.tile(np.arange(3.0), (3, 1))
        g = grad(img)
        assert np.allclose(g[0][:, :2], 1.0)
        assert np.all(g[0][:, 2] == 0)
        assert np.all(g[1] == 0)

    def test_boundary_rows_zero(self):
        rng = np.random.default_rng(0)
        g = grad(random_field(rng, 7, 5))
        assert np.all(g[0][:, -1] == 0)
        assert np.all(g[1][-1, :] == 0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = random_field(rng, 8, 8), random_field(rng, 8, 8)
        a, b = 1.7 - 0.3j, -0.2 + 2j
        assert np.allclose(grad(a * x + b * y), a * grad(x) + b * grad(y),
                           atol=1e-12)


class TestGradAdjoint:
    def test_zero_input(self):
        assert np.all(grad_adjoint(np.zeros((2, 4, 4))) == 0)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 7), (32, 32), (1, 5)])
    def test_adjoint_identity(self, shape):
        rng = np.random.default_rng(42)
        u = random_field(rng, *shape)
        g = random_gradient(rng, *shape)
        lhs = np.vdot(g, grad(u))
        rhs = np.vdot(grad_adjoint(g), u)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_matches_dense_matrix_on_impulse(self):
        mat = materialize(grad_map(3, 3))
        imp = np.zeros((3, 3), dtype=np.complex128)
        imp[1, 1] = 1.0
        g = grad(imp)
        expected = (mat.conj().T @ (mat @ imp.ravel())).reshape(3, 3)
        assert np.allclose(grad_adjoint(g), expected, atol=1e-12)


class TestDft:
    def test_impulse_gives_flat_spectrum(self):
        imp = np.zeros((4, 6), dtype=np.complex128)
        imp[0, 0] = 1.0
        k = dft2(imp)
        assert np.allclose(k, 1.0 / np.sqrt(24), atol=1e-12)

    def test_two_by_two(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        assert np.allclose(dft2(x), 0.5, atol=1e-14)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = random_field(rng, 16, 16)
        norm = np.linalg.norm
        assert abs(norm(dft2(x)) - norm(x)) <= 1e-10 * norm(x)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        x = random_field(rng, 9, 13)
        assert np.allclose(idft2(dft2(x)), x, atol=1e-10)

    def test_dft_adjoint_is_inverse(self):
        rng = np.random.default_rng(5)
        x, y = random_field(rng, 8, 8), random_field(rng, 8, 8)
        assert abs(np.vdot(y, dft2(x)) - np.vdot(idft2(y), x)) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 10_000))
def test_grad_adjoint_property(h, w, seed):
    rng = np.random.default_rng(seed)
    u = random_field(rng, h, w)
    g = random_gradient(rng, h, w)
    lhs = np.vdot(g, grad(u))
    rhs = np.vdot(grad_adjoint(g), u)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


_shapes = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_shapes, st.sampled_from(["real", "complex", "strided"]),
       st.integers(0, 10_000))
def test_flat_kernels_match_slice_references_bit_for_bit(shape, kind, seed):
    rng = np.random.default_rng(seed)
    img = signed_zero_field(rng, shape, kind)
    g = signed_zero_field(rng, (2,) + shape, kind)
    out = grad(img)
    assert out.dtype == np.complex128
    assert bit_identical(out, grad_slices(img))
    div = grad_adjoint(g)
    assert div.dtype == np.complex128
    assert bit_identical(div, grad_adjoint_slices(g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_shapes, st.sampled_from(["real", "complex", "strided"]),
       st.integers(0, 10_000))
def test_grad_normal_matches_the_composition_bit_for_bit(shape, kind, seed):
    # garbage in the buffers (NaN, -0.0) must not reach the result
    rng = np.random.default_rng(seed)
    img = signed_zero_field(rng, shape, kind)
    size = shape[0] * shape[1]
    out = np.full(shape, np.nan + 1j * np.nan)
    scratch = (np.where(rng.integers(0, 2, size), np.nan, -0.0)
               + 1j * np.where(rng.integers(0, 2, size), np.nan, -0.0))
    got = grad_normal(img, out, scratch)
    assert got is out
    assert bit_identical(got, grad_adjoint(grad(img)))


def test_grad_normal_refuses_an_out_without_a_flat_view():
    img = np.ones((3, 4), dtype=np.complex128)
    out = np.empty((3, 8), dtype=np.complex128)[:, :4]
    with pytest.raises(ValueError):
        grad_normal(img, out, np.empty(12, dtype=np.complex128))
