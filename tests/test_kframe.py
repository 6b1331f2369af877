import math

import numpy as np
import pytest

from kweave.errors import NearSingularWarning, ShapeMismatch, ZeroK
from kweave.frames import Frame, frame_bounds, frame_operator
from kweave.kframe import (
    PSD_TOL_SCALE,
    CERTIFICATE_STEP,
    KOperator,
    douglas_check,
    is_kframe,
    kframe_lower_bound,
)

from oracles import pencil_supremum_closed_form, quotient_minimum


def basis_frame(dim, indices):
    m = np.zeros((dim, len(indices)), dtype=complex)
    for j, k in enumerate(indices):
        if k:
            m[k - 1, j] = 1.0
    return Frame(m)


def projection_onto_tail(dim, first):
    p = np.zeros((dim, dim), dtype=complex)
    for i in range(first - 1, dim):
        p[i, i] = 1.0
    return KOperator(p)


def random_frame(rng, d, n):
    return Frame(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))


def random_k(rng, d):
    return KOperator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


class TestKOperator:
    def test_caches(self):
        k = projection_onto_tail(4, 2)
        assert k.rank == 3
        assert k.sigma_min_pos == pytest.approx(1.0)
        np.testing.assert_allclose(k.gram, k.matrix)

    def test_zero_k_representable(self):
        k = KOperator(np.zeros((3, 3)))
        assert k.rank == 0
        assert k.sigma_min_pos == 0.0

    def test_near_singular_warns(self):
        m = np.diag([1.0, 1e-8])
        with pytest.warns(NearSingularWarning):
            KOperator(m)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            KOperator(m, warn_near_singular=False)

    def test_rejects_rectangular(self):
        from kweave.errors import NotSquare
        with pytest.raises(NotSquare):
            KOperator(np.ones((2, 3)))


def test_lower_bound_orthonormal_identity():
    f = basis_frame(3, [1, 2, 3])
    assert kframe_lower_bound(f, KOperator(np.eye(3))) == pytest.approx(1.0, abs=1e-8)


def test_lower_bound_sparse_family_is_one():
    # {0, e2, 0, e3, 0, e4, 0} against the projection onto span{e2..e4}:
    # S equals the projection itself.
    f = basis_frame(4, [0, 2, 0, 3, 0, 4, 0])
    k = projection_onto_tail(4, 2)
    a = kframe_lower_bound(f, k)
    assert a == pytest.approx(1.0, abs=1e-8)
    oracle = pencil_supremum_closed_form(frame_operator(f), np.asarray(k.gram))
    assert a == pytest.approx(oracle, abs=1e-8)


def test_lower_bound_doubled_family_is_two():
    f = basis_frame(4, [0, 2, 2, 3, 3, 4, 4])
    k = projection_onto_tail(4, 2)
    assert kframe_lower_bound(f, k) == pytest.approx(2.0, abs=1e-8)


def test_lower_bound_zero_when_k_sees_uncovered_direction():
    f = basis_frame(3, [1, 2])
    k = projection_onto_tail(3, 2)  # range includes e3, never covered
    assert kframe_lower_bound(f, k) == pytest.approx(0.0, abs=1e-10)


def test_zero_k_rejected():
    with pytest.raises(ZeroK):
        kframe_lower_bound(basis_frame(2, [1, 2]), KOperator(np.zeros((2, 2))))


def test_dim_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        kframe_lower_bound(basis_frame(3, [1, 2, 3]), KOperator(np.eye(4)))


def test_two_sided_certificate_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2 * d, 3 * d + 1))
        f = random_frame(rng, d, n)
        k = random_k(rng, d)
        a = kframe_lower_bound(f, k)
        s = frame_operator(f)
        eps = PSD_TOL_SCALE * (1.0 + float(np.linalg.eigvalsh(s)[-1]))
        assert np.linalg.eigvalsh(s - a * k.gram)[0] >= -eps
        if a > 0:
            bumped = a * (1.0 + CERTIFICATE_STEP)
            assert np.linalg.eigvalsh(s - bumped * k.gram)[0] < -eps


def test_lower_bound_matches_closed_form_oracle():
    rng = np.random.default_rng(99)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        f = random_frame(rng, d, int(rng.integers(d, 2 * d + 1)))
        k = random_k(rng, d)
        a = kframe_lower_bound(f, k)
        oracle = pencil_supremum_closed_form(frame_operator(f), np.asarray(k.gram))
        np.testing.assert_allclose(a, oracle, rtol=1e-7, atol=1e-10)


def test_appending_vectors_never_decreases_bound():
    rng = np.random.default_rng(777)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        f = random_frame(rng, d, int(rng.integers(d, 2 * d)))
        k = random_k(rng, d)
        base = kframe_lower_bound(f, k)
        extra = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        bigger = Frame(np.concatenate([f.matrix, extra], axis=1))
        assert kframe_lower_bound(bigger, k) >= base - 1e-9 * (1.0 + base)


def test_identity_k_reduces_to_frame_lower_bound():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        f = random_frame(rng, d, 2 * d)
        a = kframe_lower_bound(f, KOperator(np.eye(d)))
        np.testing.assert_allclose(a, frame_bounds(f).lower, rtol=1e-8)


def test_sampled_quotients_respect_bound():
    rng = np.random.default_rng(31415)
    f = random_frame(rng, 3, 7)
    k = random_k(rng, 3)
    a = kframe_lower_bound(f, k)
    s = frame_operator(f)
    q = quotient_minimum(s, np.asarray(k.matrix), rng, samples=1000)
    assert q >= a - 1e-6


def test_dense_sampling_approaches_bound_in_low_dimension():
    rng = np.random.default_rng(2718)
    f = random_frame(rng, 2, 5)
    k = random_k(rng, 2)
    a = kframe_lower_bound(f, k)
    q = quotient_minimum(frame_operator(f), np.asarray(k.matrix), rng, samples=4000)
    assert a - 1e-6 <= q <= a * 1.05 + 1e-9


class TestIsKFrame:
    def test_orthonormal_with_identity(self):
        report = is_kframe(basis_frame(3, [1, 2, 3]), KOperator(np.eye(3)), 0.5)
        assert report.is_kframe
        assert report.lower == pytest.approx(1.0, abs=1e-8)
        assert report.upper == pytest.approx(1.0, abs=1e-12)
        assert report.witness is None

    def test_orthogonal_ranges_fail_with_witness(self):
        f = basis_frame(2, [1])
        k = KOperator(np.diag([0.0, 1.0]).astype(complex))
        report = is_kframe(f, k, 1e-8)
        assert not report.is_kframe
        w = report.witness
        assert w is not None
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert abs(w[1]) == pytest.approx(1.0, abs=1e-9)

    def test_dropped_column_weaving_fails_at_e2(self):
        # {e1, 0, 0, e3, e4}: mixing the two 5-column families so that
        # only column 2 switches loses e2 entirely.
        f = basis_frame(4, [1, 0, 0, 3, 4])
        k = projection_onto_tail(4, 2)
        report = is_kframe(f, k, 1e-8)
        assert not report.is_kframe
        assert report.lower == pytest.approx(0.0, abs=1e-10)
        e2 = np.zeros(4)
        e2[1] = 1.0
        assert min(
            np.linalg.norm(report.witness - e2), np.linalg.norm(report.witness + e2)
        ) < 1e-6


class TestDouglas:
    def test_identity_pair(self):
        report = douglas_check(np.eye(3), np.eye(3))
        assert report.range_included
        np.testing.assert_allclose(report.factor_c, np.eye(3), atol=1e-12)
        assert report.factor_norm_sq == pytest.approx(1.0, rel=1e-9)
        assert report.lambda_sq == pytest.approx(1.0, rel=1e-6)

    def test_zero_l2_excludes(self):
        l1 = np.diag([1.0, 0.0]).astype(complex)
        report = douglas_check(l1, np.zeros((2, 2)))
        assert not report.range_included
        assert math.isinf(report.lambda_sq)
        assert report.factor_c is None

    def test_constructed_inclusion(self):
        rng = np.random.default_rng(4242)
        l2 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        c = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        l1 = l2 @ c
        report = douglas_check(l1, l2)
        assert report.range_included
        assert np.linalg.norm(l2 @ report.factor_c - l1, 2) <= 1e-8 * np.linalg.norm(l1, 2)
        # minimal factor never beats the construction
        assert report.factor_norm_sq <= np.linalg.norm(c, 2) ** 2 + 1e-6
        np.testing.assert_allclose(report.factor_norm_sq, report.lambda_sq, rtol=1e-6)
        # Douglas: ||C||^2 is the least mu with L1 L1^* <= mu L2 L2^*.
        sup = pencil_supremum_closed_form(l2 @ l2.conj().T, l1 @ l1.conj().T)
        assert report.lambda_sq == pytest.approx(1.0 / sup, rel=1e-6)

    def test_non_inclusion_detected(self):
        rng = np.random.default_rng(8888)
        for _ in range(10):
            l2 = np.zeros((4, 2), dtype=complex)
            l2[:2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            l1 = np.zeros((4, 1), dtype=complex)
            l1[3, 0] = 1.0 + rng.standard_normal()
            report = douglas_check(l1, l2)
            assert not report.range_included
            assert math.isinf(report.lambda_sq)

    def test_rank_route_agrees_with_pencil_route(self):
        rng = np.random.default_rng(1357)
        for trial in range(30):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, d + 1))
            l2 = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)))
            if trial % 2 == 0:
                c = rng.standard_normal((r, 3)) + 1j * rng.standard_normal((r, 3))
                l1 = l2 @ c
            else:
                l1 = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
            report = douglas_check(l1, l2)
            assert report.range_included == math.isfinite(report.lambda_sq)
            if report.range_included:
                sup = pencil_supremum_closed_form(l2 @ l2.conj().T, l1 @ l1.conj().T)
                assert report.lambda_sq == pytest.approx(1.0 / sup, rel=1e-6)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            douglas_check(np.eye(3), np.eye(4))
