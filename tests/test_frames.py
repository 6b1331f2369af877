import numpy as np
import pytest

from kweave.errors import InvalidInput, ShapeMismatch
from kweave.frames import (
    BoundsPair,
    Frame,
    frame_bounds,
    frame_operator,
    is_frame,
    require_same_shape,
)


def basis_frame(dim, indices):
    """Columns e_k for 1-based indices; 0 marks a zero column."""
    m = np.zeros((dim, len(indices)), dtype=complex)
    for j, k in enumerate(indices):
        if k:
            m[k - 1, j] = 1.0
    return Frame(m)


class TestFrameType:
    def test_shape_properties(self):
        f = Frame(np.ones((3, 5)))
        assert f.dim == 3
        assert f.count == 5

    def test_zero_columns_allowed(self):
        f = basis_frame(4, [0, 2, 0, 3])
        assert np.all(f.matrix[:, 0] == 0)

    def test_matrix_is_readonly(self):
        f = Frame(np.eye(2))
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 5.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Frame(np.ones((0, 3)))
        with pytest.raises(ValueError):
            Frame(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            Frame(np.ones(4))


def test_frame_operator_orthonormal_basis_is_identity():
    np.testing.assert_allclose(frame_operator(basis_frame(3, [1, 2, 3])), np.eye(3))


def test_frame_operator_accumulates_repeats():
    s = frame_operator(basis_frame(2, [1, 2, 1]))
    np.testing.assert_allclose(s, np.diag([2.0, 1.0]))


def test_frame_operator_doubled_shifted_family():
    # {0, e2, e2, e3, e3, e4, e4} in C^4: each of e2..e4 hit twice.
    s = frame_operator(basis_frame(4, [0, 2, 2, 3, 3, 4, 4]))
    np.testing.assert_allclose(s, 2.0 * np.diag([0.0, 1.0, 1.0, 1.0]))


def test_frame_bounds_examples():
    assert frame_bounds(basis_frame(3, [1, 2, 3])) == pytest.approx((1.0, 1.0))
    assert frame_bounds(basis_frame(2, [1, 2, 1])) == pytest.approx((1.0, 2.0))
    lo, hi = frame_bounds(basis_frame(3, [2, 3]))
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(1.0)


def test_is_frame_classification():
    assert is_frame(frame_bounds(basis_frame(3, [1, 2, 3])))
    assert not is_frame(frame_bounds(basis_frame(3, [2, 3])))
    assert not is_frame(BoundsPair(0.0, 0.0))


def test_frame_bounds_scale_quadratically():
    rng = np.random.RandomState(9)
    f = Frame(rng.randn(4, 7) + 1j * rng.randn(4, 7))
    base = frame_bounds(f)
    scaled = frame_bounds(Frame(3.0 * f.matrix))
    np.testing.assert_allclose(scaled.lower, 9.0 * base.lower, rtol=1e-9)
    np.testing.assert_allclose(scaled.upper, 9.0 * base.upper, rtol=1e-9)


def test_frame_operator_additive_under_concatenation():
    rng = np.random.RandomState(13)
    a = Frame(rng.randn(3, 4) + 1j * rng.randn(3, 4))
    b = Frame(rng.randn(3, 6) + 1j * rng.randn(3, 6))
    joined = Frame(np.concatenate([a.matrix, b.matrix], axis=1))
    np.testing.assert_allclose(
        frame_operator(joined), frame_operator(a) + frame_operator(b), atol=1e-12
    )


def test_analysis_energy_matches_quadratic_form():
    rng = np.random.RandomState(21)
    f = Frame(rng.randn(5, 9) + 1j * rng.randn(5, 9))
    s = frame_operator(f)
    for _ in range(100):
        v = rng.randn(5) + 1j * rng.randn(5)
        energy = np.sum(np.abs(f.matrix.conj().T @ v) ** 2)
        quad = np.real(np.vdot(v, s @ v))
        np.testing.assert_allclose(energy, quad, rtol=1e-9)


def test_synthesis_of_analysis_is_frame_operator():
    rng = np.random.RandomState(31)
    f = Frame(rng.randn(4, 6) + 1j * rng.randn(4, 6))
    v = rng.randn(4) + 1j * rng.randn(4)
    direct = frame_operator(f) @ v
    roundtrip = f.matrix @ (f.matrix.conj().T @ v)
    np.testing.assert_allclose(roundtrip, direct, atol=1e-10)


def test_frame_operator_refuses_overflow():
    # ||f||^2 = 1e400 is past binary64; S must not come back inf or NaN.
    with pytest.raises(InvalidInput, match="overflows binary64"):
        frame_operator(Frame(1e200 * np.eye(2)))
    with pytest.raises(InvalidInput, match="overflows binary64"):
        frame_operator(np.stack([np.eye(2), 1e200 * np.eye(2)]).astype(complex))


def test_frame_bounds_refuse_underflow():
    # ||f||^2 = 1e-340 is below binary64, so S reads 0, though this is a
    # tight frame.  Only frame_bounds refuses it: a pencil row reads a
    # bound of 0, which no positive threshold passes, as the true 1e-340 would not.
    tiny = Frame(1e-170 * np.eye(3))
    np.testing.assert_array_equal(frame_operator(tiny), 0.0)
    with pytest.raises(InvalidInput, match=r"S = FF\* underflows binary64"):
        frame_bounds(tiny)
    assert frame_bounds(Frame(np.zeros((3, 2)))) == (0.0, 0.0)


def test_frame_operator_is_psd():
    rng = np.random.RandomState(17)
    for _ in range(20):
        f = Frame(rng.randn(4, 3) + 1j * rng.randn(4, 3))
        w = np.linalg.eigvalsh(frame_operator(f))
        assert w[0] >= -1e-9 * (1.0 + w[-1])


def test_require_same_shape():
    a = basis_frame(3, [1, 2])
    b = basis_frame(3, [2, 3])
    assert require_same_shape([a, b]) == (3, 2)
    with pytest.raises(ShapeMismatch):
        require_same_shape([a, basis_frame(3, [1, 2, 3])])
    with pytest.raises(ShapeMismatch):
        require_same_shape([])
