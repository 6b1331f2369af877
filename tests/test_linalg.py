import numpy as np
import pytest

from kweave import linalg
from kweave.errors import NotHermitian, NotSquare, ZeroOperator
from kweave.linalg import (
    numerical_rank,
    operator_norm,
    pseudo_inverse,
    single_threaded_blas,
    smallest_positive_singular,
    spectral_bounds,
)

from oracles import charpoly_eigs


def test_spectral_bounds_identity():
    lo, hi = spectral_bounds(np.eye(3))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(1.0)


def test_spectral_bounds_diagonal():
    lo, hi = spectral_bounds(np.diag([2.0, 1.0]))
    assert (lo, hi) == pytest.approx((1.0, 2.0))


def test_spectral_bounds_random_frame_operator_matches_charpoly():
    rng = np.random.RandomState(42)
    t = rng.randn(4, 9) + 1j * rng.randn(4, 9)
    s = t @ t.conj().T
    roots = charpoly_eigs(s)
    lo, hi = spectral_bounds(s)
    np.testing.assert_allclose(lo, roots[0], rtol=1e-10)
    np.testing.assert_allclose(hi, roots[-1], rtol=1e-10)


def test_spectral_bounds_scales_linearly():
    rng = np.random.RandomState(3)
    a = rng.randn(5, 5) + 1j * rng.randn(5, 5)
    h = a + a.conj().T
    base = spectral_bounds(h)
    scaled = spectral_bounds(2.5 * h)
    np.testing.assert_allclose(scaled.lambda_min, 2.5 * base.lambda_min, rtol=1e-12)
    np.testing.assert_allclose(scaled.lambda_max, 2.5 * base.lambda_max, rtol=1e-12)


def test_spectral_bounds_rejects_non_square():
    with pytest.raises(NotSquare):
        spectral_bounds(np.ones((2, 3)))


def test_spectral_bounds_rejects_asymmetric():
    h = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        spectral_bounds(h)


def test_spectral_bounds_accepts_roundoff_asymmetry():
    h = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
    lo, hi = spectral_bounds(h)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(3.0, abs=1e-9)


def test_operator_norm_trivial():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert operator_norm(2 * np.eye(4)) == pytest.approx(2.0)


def test_operator_norm_matches_gram_spectrum():
    rng = np.random.RandomState(7)
    m = rng.randn(3, 5) + 1j * rng.randn(3, 5)
    expected = np.sqrt(spectral_bounds(m @ m.conj().T).lambda_max)
    np.testing.assert_allclose(operator_norm(m), expected, rtol=1e-10)


def test_pseudo_inverse_trivial():
    np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3))
    np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))
    np.testing.assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pseudo_inverse_moore_penrose_conditions():
    rng = np.random.RandomState(11)
    for rows, cols in [(2, 2), (5, 3), (3, 7), (16, 16), (16, 4)]:
        m = rng.randn(rows, cols) + 1j * rng.randn(rows, cols)
        if rows >= 3 and cols >= 3:
            # knock the rank down to exercise the cutoff
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            s[-1] = 0.0
            m = (u * s) @ vh
        p = pseudo_inverse(m)
        scale = 1.0 + np.abs(m).max()
        assert np.abs(m @ p @ m - m).max() <= 1e-9 * scale
        assert np.abs(p @ m @ p - p).max() <= 1e-9 * scale
        assert np.abs((m @ p) - (m @ p).conj().T).max() <= 1e-9 * scale
        assert np.abs((p @ m) - (p @ m).conj().T).max() <= 1e-9 * scale


def test_smallest_positive_singular_trivial():
    assert smallest_positive_singular(np.eye(3)) == pytest.approx(1.0)
    assert smallest_positive_singular(np.diag([3.0, 0.0])) == pytest.approx(3.0)


def test_smallest_positive_singular_projection_is_one():
    rng = np.random.RandomState(5)
    for r in (1, 2, 4):
        q, _ = np.linalg.qr(rng.randn(6, r) + 1j * rng.randn(6, r))
        p = q @ q.conj().T
        assert smallest_positive_singular(p) == pytest.approx(1.0, rel=1e-10)


def test_smallest_positive_singular_zero_rejected():
    with pytest.raises(ZeroOperator):
        smallest_positive_singular(np.zeros((4, 4)))


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.diag([1.0, 1e-20])) == 1


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_single_threaded_blas_restores_the_thread_count():
    _, get_threads = linalg._openblas_threads()
    before = get_threads()
    if before is None:
        pytest.skip("numpy does not use the OpenBLAS of its wheel here")
    with single_threaded_blas():
        assert get_threads() == 1
    assert get_threads() == before
    with pytest.raises(ZeroOperator), single_threaded_blas():
        smallest_positive_singular(np.zeros((2, 2)))
    assert get_threads() == before


def test_single_threaded_blas_leaves_another_blas_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: (calls.append, lambda: None))
    with single_threaded_blas():
        assert calls == [1]
    assert calls == [1, None]
