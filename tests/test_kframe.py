import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import kweave.kframe

from kweave.errors import InvalidInput, NearSingularWarning, ShapeMismatch, ZeroK
from kweave.frames import Frame, frame_bounds, frame_operator
from kweave.kframe import (
    PSD_TOL_SCALE,
    CERTIFICATE_STEP,
    NOISE_FLOOR_SCALE,
    KOperator,
    douglas_check,
    is_kframe,
    kframe_lower_bound,
    passes_threshold,
    pencil_lower_bounds,
    proved_below,
    proved_psd,
    _summation_error,
)

from oracles import charpoly_eigs, pencil_supremum_closed_form, quotient_minimum


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

    def test_zero_k_refused_at_construction(self):
        # Every Bessel family meets the lower inequality against K = 0, so
        # no bound computation can use it; it is refused once, here.
        with pytest.raises(ZeroK, match="numerically zero"):
            KOperator(np.zeros((3, 3)))

    def test_overflowing_gram_refused(self):
        with pytest.raises(InvalidInput, match="overflows binary64"):
            KOperator(1e200 * np.eye(2))

    def test_underflowing_gram_refused(self):
        # sigma_max(K)^2 = 1e-400: KK^* would read 0, and so would every bound.
        with pytest.raises(InvalidInput, match=r"KK\^\* underflows binary64"):
            KOperator(1e-200 * np.eye(3))
        KOperator(2.0 ** -511 * np.eye(3))  # sigma_max(K)^2 is the smallest normal

    def test_near_singular_warns(self):
        m = np.diag([1.0, 1e-8])
        with pytest.warns(NearSingularWarning):
            KOperator(m)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            KOperator(np.diag([1.0, 1e-5]))

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


def test_tiny_frame_gets_its_exact_bound():
    # S = 1e-22 against KK^* = 1e-6: the bound is exactly 1e-16, so the
    # family fails a 1e-8 threshold.  An absolute feasibility floor of
    # order 1e-13 once returned 1e-7 here and passed it.
    f = Frame([[1e-11]])
    k = KOperator([[1e-3]])
    assert kframe_lower_bound(f, k) == pytest.approx(1e-16, rel=1e-12, abs=0)
    assert not is_kframe(f, k, 1e-8).is_kframe


def test_overflowing_bound_refused():
    # The bound is 1e300 / 1e-10 = 1e310, past binary64.
    s = frame_operator(Frame(1e150 * np.eye(3)))[None]
    with pytest.raises(InvalidInput,
                       match=r"1/lambda_max\(K\^\* S\^\+ K\) overflows binary64"):
        pencil_lower_bounds(s, KOperator(1e-5 * np.eye(3)))
    # 1e300 / 1e-8 = 1e308 still fits.
    lower, _ = pencil_lower_bounds(s, KOperator(1e-4 * np.eye(3)))
    assert lower[0] == pytest.approx(1e308, rel=1e-12)


@pytest.mark.parametrize("scale, k_scale, lower", [
    (1e154, 1.0, 1e308),  # S = 1e308 * I: the shift's trace sum, 3e308, overflows.
    (1e80, 1e80, 1.0),  # KK^* = 1e160 * I: ||KK^*||_F overflows inside the norm.
])
def test_shift_overflow_sends_the_row_to_the_direct_check(scale, k_scale, lower):
    # Under the suite's RuntimeWarning filter a warning would raise here.
    assert is_kframe(Frame(scale * np.eye(3)), KOperator(k_scale * np.eye(3))).lower == lower


def test_small_frame_bound_is_not_overestimated():
    # S = 1e-6 * I against K = I: the bound is lambda_min(S) = 1e-6 exactly.
    f = Frame(1e-3 * np.eye(2))
    assert kframe_lower_bound(f, KOperator(np.eye(2))) == pytest.approx(1e-6, rel=1e-12, abs=0)


@pytest.mark.parametrize("frame, k", [
    # S = diag(1, 0) while K reaches e2 with weight 1e-5: A*||K^* e2||^2
    # is 1e-10 at A = 1, under a 1e-9 certificate slack but far above
    # eigensolver noise.
    ([[1.0], [0.0]], np.diag([1.0, 1e-5])),
    # The same leak at a scale where every quantity is below 1e-9.
    ([[1e-5], [0.0]], np.eye(2)),
])
def test_range_of_k_leaking_into_null_s_gives_zero(frame, k):
    f, k = Frame(frame), KOperator(k)
    assert kframe_lower_bound(f, k) == 0.0
    assert not is_kframe(f, k, 1e-2).is_kframe


class TestPencilRoutes:
    """Known answers of the two routes to A and of the check that follows them."""

    def test_only_rows_well_above_the_floor_take_the_solve_route(self):
        # K = I, so A = lambda_min(S) when no eigenvalue of S is null.
        # diag(1, 1e-6) takes the solve route.  1e-14 lies below the
        # floor NOISE_FLOOR_SCALE * lambda_max(S), so it counts as null and
        # R(K) leaks into it: A = 0, where inverting it would give 1e-14.
        # An exactly singular S would make the linear solve raise.
        s = np.array([np.diag([1.0, 1e-6]), np.diag([1.0, 1e-14]), np.diag([1.0, 0.0])])
        lower, upper = pencil_lower_bounds(s.astype(complex), KOperator(np.eye(2)))
        assert lower[0] == pytest.approx(1e-6, rel=1e-12, abs=0)
        assert lower[1] == 0.0 and lower[2] == 0.0
        np.testing.assert_array_equal(upper, [1.0, 1.0, 1.0])

    def test_the_closed_form_factors_nothing(self):
        # Every row spans and the shifted Cholesky proves every check, so
        # the one factorization is the proof's; the closed form is a solve.
        rng = np.random.default_rng(7)
        k = random_k(rng, 4)
        s = np.stack([frame_operator(random_frame(rng, 4, 9)) for _ in range(6)])
        gufunc = kweave.kframe._umath_linalg
        with mock.patch.object(gufunc, "cholesky_lo", wraps=gufunc.cholesky_lo) as factor, \
                mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            lower, _ = pencil_lower_bounds(s, k)
        assert np.all(lower > 0.0)
        assert eigvalsh.call_count == 2
        assert factor.call_count == 1
        assert factor.call_args.args[0].shape == s.shape

    # S = I and K = [[1, 0], [1, 0]]: KK^* = [[1, 1], [1, 1]] exactly, and
    # S - A*KK^* has eigenvalues 1 and 1 - 2A, so A = 1/2 is the supremum.
    # With A = 1/2 + excess*eps/2, 1 - 2A = -excess*eps is exact.  The floor
    # is NOISE_FLOOR_SCALE = 450.4*eps, and the shift c is about 12*eps here.
    @pytest.mark.parametrize("excess, direct_rows, infeasible", [
        # 1 - 2A = 0: the Cholesky factorization of T proves the row.
        (0, 0, False),
        # 1 - 2A = -444 eps lies within the floor, but by less than c: T is
        # indefinite, so only eigvalsh(S - A*KK^*) can keep the row.
        (444, 1, False),
        # 1 - 2A = -900 eps lies beyond the floor: both tests reject it.
        (900, 1, True),
    ])
    def test_check_outcomes(self, excess, direct_rows, infeasible):
        lower = np.array([0.5 + excess * np.finfo(float).eps / 2])
        s = np.eye(2, dtype=complex)[None]
        floor = np.array([NOISE_FLOOR_SCALE])
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as direct:
            result = kweave.kframe._infeasible_rows(s, lower, floor, KOperator([[1, 0], [1, 0]]))
        assert sum(call.args[0].shape[0] for call in direct.call_args_list) == direct_rows
        assert result.tolist() == [infeasible]

    def test_a_row_failing_the_shifted_cholesky_leaves_its_neighbours_alone(self):
        # numpy's batched Cholesky raises for the whole stack when one row
        # fails.  The middle row has d - 1 vectors, so R(K) leaks out of
        # R(S); its shifted matrix has a positive diagonal but is indefinite.
        rng = np.random.default_rng(1)
        k = random_k(rng, 3)
        frames = [random_frame(rng, 3, n) for n in (5, 5, 2, 5, 5)]
        s = np.stack([frame_operator(f) for f in frames])
        outcomes = []
        factor = kweave.kframe._cholesky_succeeds

        def recorded(t):
            outcomes.append(factor(t))
            return outcomes[-1]

        with mock.patch.object(kweave.kframe, "_cholesky_succeeds", recorded):
            lower, upper = pencil_lower_bounds(s, k)
        assert [True, True, False, True, True] in [row.tolist() for row in outcomes]
        assert lower[2] == 0.0 and np.all(lower[[0, 1, 3, 4]] > 0.0)
        for row in range(len(s)):
            alone = pencil_lower_bounds(s[row:row + 1], k)
            assert (alone[0][0], alone[1][0]) == (lower[row], upper[row])

    def test_a_stack_with_many_failing_rows_takes_one_factorization(self):
        # Each row's least eigenvalue is moved to between -0.5 and 0.5, so
        # about half the rows, scattered through the stack, are indefinite.
        # Each row's outcome is its own factorization's, and the stack
        # takes one call however many rows fail.
        rng = np.random.default_rng(3)
        s = np.stack([frame_operator(random_frame(rng, 4, 9)) for _ in range(64)])
        s /= np.linalg.eigvalsh(s)[:, :1, None]
        t = s - rng.uniform(0.5, 1.5, len(s))[:, None, None] * np.eye(4)

        def alone(row):
            try:
                np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                return False
            return True

        expected = [alone(row) for row in t]
        assert 16 < sum(expected) < 48
        gufunc = kweave.kframe._umath_linalg
        with mock.patch.object(gufunc, "cholesky_lo", wraps=gufunc.cholesky_lo) as factor:
            outcome = kweave.kframe._cholesky_succeeds(t)
        assert outcome.tolist() == expected
        assert factor.call_count == 1


    def test_one_eigvalsh_of_s_gives_the_upper_bound_bit_for_bit(self):
        # A weaving table takes the upper bound of a row that only its
        # upper proof leaves open from one eigvalsh(S), clamped at 0, and
        # no pencil: that must be the pencil's upper bound, bit for bit.
        rng = np.random.default_rng(8)
        k = random_k(rng, 4)
        frames = [random_frame(rng, 4, n) for n in (6, 3, 9, 4, 7)]
        s = np.stack([frame_operator(f) for f in frames])
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            lower, upper = pencil_lower_bounds(s, k)
        stacked = [call.args[0] for call in eigvalsh.call_args_list]
        assert sum(a is s or np.array_equal(a, s) for a in stacked) == 1
        for row in range(len(s)):
            alone = pencil_lower_bounds(s[row:row + 1], k)
            assert (alone[0].tobytes(), alone[1].tobytes()) == (lower[row:row + 1].tobytes(),
                                                                upper[row:row + 1].tobytes())
        assert upper.tobytes() == np.maximum(np.linalg.eigvalsh(s)[:, -1], 0.0).tobytes()


class TestProvedPsd:
    """The shifted Cholesky proof, at the pencil's floor and at floor 0."""

    # S = I and K = I: the bound is exactly 1, and S - a*I = (1 - a)*I.
    @pytest.mark.parametrize("a, floor, proved", [
        (0.999, 0.0, True),  # slack 1e-3, far above the shift
        (1.0, 0.0, False),  # slack 0: at floor 0 nothing is left to absorb the shift
        (1.0 + 1e-3, 0.0, False),
        (1.0, NOISE_FLOOR_SCALE, True),  # at the pencil's floor the bound itself is proved
        (1.0 + 1e-3, NOISE_FLOOR_SCALE, False),
    ])
    def test_outcomes_at_the_identity(self, a, floor, proved):
        s = np.eye(3, dtype=complex)[None]
        assert proved_psd(s, np.array([a]), np.array([floor]), KOperator(np.eye(3))).tolist() \
            == [proved]

    def test_a_proof_at_floor_0_places_the_bound_above_the_level(self):
        rng = np.random.default_rng(11)
        k = random_k(rng, 4)
        s = np.stack([frame_operator(random_frame(rng, 4, 7)) for _ in range(40)])
        lower, _ = pencil_lower_bounds(s, k)
        for scale in (0.5, 0.999, 1.0 + CERTIFICATE_STEP, 2.0):
            level = scale * lower
            proved = proved_psd(s, level, np.zeros(len(s)), k)
            assert np.all(lower[proved] >= level[proved])
            if scale < 1.0:
                assert proved.all()
            else:
                assert not proved.any()

    def test_an_overflowing_level_proves_nothing_and_warns_nothing(self):
        s = frame_operator(Frame(np.eye(2)))[None]
        assert not proved_psd(s, np.array([1e308]), np.zeros(1), KOperator(1e10 * np.eye(2)))[0]


class TestProvedBelow:
    """The shifted Cholesky proof of lambda_max(S) <= level."""

    # S = [[1/2, 1/2], [1/2, 1/2]] has lambda_max(S) = 1 exactly, so
    # level*I - S is singular at level 1.
    @pytest.mark.parametrize("level, proved", [
        (1.0 + 1e-3, True),
        (1.0 + 1e-12, True),  # far above the shift, about 4e-15 here
        (1.0, False),  # singular: nothing is left to absorb the shift
        (1.0 - 1e-3, False),
    ])
    def test_outcomes_at_a_singular_level(self, level, proved):
        s = np.full((1, 2, 2), 0.5, dtype=complex)
        assert proved_below(s, np.array([level])).tolist() == [proved]

    # level*I - S is indefinite by less than rounding: level lies below
    # lambda_max(S) by a few units in the last place.
    @pytest.mark.parametrize("a, b, c, level", [
        ("0x1.442d8a5aba70ap-1", "-0x1.6ce3ab645335dp-1", "0x1.858df09711c00p-2",
         "0x1.3b07827a54c92p+0"),
        ("0x1.002eb7d4b75f7p-1", "-0x1.17c7ece61b09ap-1", "0x1.3bbc3b48f99d0p-4",
         "0x1.bfdb248135c92p-1"),
        ("0x1.b1ec3fd914760p-6", "0x1.ec9f893bf453bp-2", "0x1.c989559c83c94p-2",
         "0x1.85f4409617ec6p-1"),
    ])
    def test_a_level_below_lambda_max_by_rounding_is_refused(self, a, b, c, level):
        a, b, c, level = (float.fromhex(x) for x in (a, b, c, level))
        s = np.array([[[a, b], [b, c]]], dtype=complex)
        # Exactly, level*I - S has a negative determinant: lambda_max(S) > level.
        x, z = Fraction(level) - Fraction(a), Fraction(level) - Fraction(c)
        assert x > 0 and z > 0 and x * z < Fraction(b) ** 2
        np.linalg.cholesky(level * np.eye(2) - s[0])  # completes: only the shift refuses it
        assert not proved_below(s, np.array([level]))[0]

    def test_a_proof_places_lambda_max_below_the_level(self):
        rng = np.random.default_rng(12)
        s = np.stack([frame_operator(random_frame(rng, 4, 7)) for _ in range(40)])
        top = np.linalg.eigvalsh(s)[:, -1]
        for scale in (0.5, 1.0 - CERTIFICATE_STEP, 1.0 + CERTIFICATE_STEP, 2.0):
            proved = proved_below(s, scale * top)
            assert proved.all() if scale > 1.0 else not proved.any()

    def test_an_overflowing_diagonal_proves_nothing_and_warns_nothing(self):
        s = np.diag([1e308, 1e308, 1.0]).astype(complex)[None]
        assert not proved_below(s, np.array([1.5e308]))[0]


class TestSummationTerm:
    """A proof on a sum of n terms holds for every S within the summation bound of it."""

    # S = 1 in C^1, summed from n = 14 terms.  frame_operator's sum of the
    # same terms may lie up to sigma = 3*gamma_29, about 87 units of
    # roundoff u, away; one 70u away crosses a level 60u from S, which the
    # shift without sigma (about 19u above S, 11u below) would prove.
    ULP = 2.0 ** -52  # 2u

    def test_the_upper_proof_counts_the_summation_error(self):
        s, level = np.ones((1, 1, 1), dtype=complex), np.array([1.0 + 30 * self.ULP])
        other = 1.0 + 35 * self.ULP
        assert other - 1.0 <= _summation_error(np.ones(1), 1, 14)[0] and other > level[0]
        assert proved_below(s, level).tolist() == [True]  # true of S itself
        assert proved_below(s, level, 14).tolist() == [False]

    def test_the_lower_proof_counts_the_summation_error(self):
        s, a, k = np.ones((1, 1, 1), dtype=complex), np.array([1.0 - 30 * self.ULP]), \
            KOperator(np.eye(1))
        other = 1.0 - 35 * self.ULP
        assert 1.0 - other <= _summation_error(np.ones(1), 1, 14)[0] and other < a[0]
        assert proved_psd(s, a, np.zeros(1), k).tolist() == [True]
        assert proved_psd(s, a, np.zeros(1), k, 14).tolist() == [False]


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


def test_is_kframe_bounds_on_random_pairs():
    # The 40 families of test_two_sided_certificate_on_random_pairs.
    rng = np.random.default_rng(1234)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2 * d, 3 * d + 1))
        f = random_frame(rng, d, n)
        k = random_k(rng, d)
        report = is_kframe(f, k, 1.0)
        assert report.lower == kframe_lower_bound(f, k)
        np.testing.assert_allclose(report.upper, charpoly_eigs(frame_operator(f))[-1],
                                   rtol=1e-10)


def test_default_threshold_scales_with_the_upper_bound():
    f = Frame(np.diag([3.0, 1e-4]).astype(complex))  # lower bound 1e-8 for K = I
    report = is_kframe(f, KOperator(np.eye(2)))
    assert report.threshold == pytest.approx(1e-8 * (1.0 + 9.0), rel=1e-14)
    assert report.upper == pytest.approx(9.0, rel=1e-14)
    assert not report.is_kframe
    assert report.witness is not None
    given = is_kframe(f, KOperator(np.eye(2)), 1e-9)
    assert given.is_kframe and given.threshold == 1e-9


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
def test_threshold_must_be_finite_and_positive(threshold):
    f = basis_frame(2, [1])  # spans only e1, so no K-frame for K = I
    k = KOperator(np.eye(2))
    with pytest.raises(InvalidInput, match="threshold"):
        is_kframe(f, k, threshold)
    with pytest.raises(InvalidInput, match="threshold"):
        passes_threshold(np.zeros(3), threshold)


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

    def test_witness_when_threshold_times_gram_overflows(self):
        # threshold * KK^* overflows (5e308); the witness used to read NaN.
        threshold = 1e308
        k = KOperator([[2.0, -1.0], [0.0, 2.0]])
        report = is_kframe(Frame(np.eye(2)), k, threshold)
        assert not report.is_kframe
        w = report.witness
        assert np.isfinite(w).all()
        assert np.linalg.norm(w) == pytest.approx(1.0)
        energy = np.vdot(w, w).real  # <S w, w> with S = I
        assert energy / threshold < np.linalg.norm(k.matrix.conj().T @ w) ** 2

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

    def test_overflowing_factor_is_named(self):
        # R(L1) is inside R(L2), but C = L2^+ L1 = 1e400 * I is not a binary64 matrix.
        with pytest.raises(InvalidInput, match="minimal factor"):
            douglas_check(1e200 * np.eye(2), 1e-200 * np.eye(2))

    def test_overflowing_factor_norm_is_named(self):
        # C = 1e200 * I is a binary64 matrix, but ||C||^2 = 1e400 is not.
        with pytest.raises(InvalidInput, match=r"\|\|C\|\|\^2 .* overflows binary64"):
            douglas_check(1e200 * np.eye(2), np.eye(2))
