import math

import numpy as np
import pytest

from kweave.errors import HypothesesViolated, ShapeMismatch
from kweave.frames import Frame, frame_bounds
from kweave.kframe import KOperator, kframe_lower_bound
from kweave.perturbation import (
    check_orthogonal_alpha,
    perturbation_certify,
    perturbation_condition,
)


def identity_frame(d, scale=1.0):
    return Frame(scale * np.eye(d, dtype=complex))


class TestParams:
    def test_validation(self):
        f, k = identity_frame(2), KOperator(np.eye(2))
        perturbation_condition(f, f, k, 0.0)
        # -0.0 is accepted and read as 0.0, so lhs_27 is not printed as -0.
        assert math.copysign(1.0, perturbation_condition(f, f, k, -0.0).lhs_27) == 1.0
        for lam in (-0.1, math.nan):  # a NaN lam would read as a failed premise
            with pytest.raises(ValueError, match="nonnegative"):
                perturbation_condition(f, f, k, lam)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf-lam", "nan-lam"])
    def test_non_finite_value_is_named(self, value):
        # Checked before the hypotheses: F1 here is not orthogonal.
        f = Frame(np.ones((2, 2)))
        with pytest.raises(ValueError, match="^lam must be finite"):
            perturbation_condition(f, f, KOperator(np.eye(2)), value)


class TestOrthogonality:
    def test_orthonormal_basis(self):
        chk = check_orthogonal_alpha(identity_frame(4))
        assert chk.orthogonal
        assert chk.alpha_max == pytest.approx(1.0)

    def test_alpha_max_is_smallest_squared_norm(self):
        m = np.diag([2.0, 0.5, 3.0]).astype(complex)
        chk = check_orthogonal_alpha(Frame(m))
        assert chk.orthogonal
        assert chk.alpha_max == pytest.approx(0.25)

    def test_zero_column_fails(self):
        m = np.zeros((3, 2), dtype=complex)
        m[0, 0] = 1.0
        chk = check_orthogonal_alpha(Frame(m))
        assert not chk.orthogonal
        assert chk.alpha_max == pytest.approx(1.0)

    def test_oblique_columns_fail(self):
        m = np.zeros((3, 2), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 1.0
        m[1, 1] = 1.0
        assert not check_orthogonal_alpha(Frame(m)).orthogonal


class TestSynthesisGap:
    """The premise holds exactly when lam >= ||T1 - T2||."""

    def test_zero_for_identical(self):
        f = identity_frame(3)
        r = perturbation_condition(f, f, KOperator(np.eye(3)), 0.0)
        assert r.hypotheses_ok
        assert r.verification_mode == "exact"

    def test_rank_one_difference(self):
        f1 = identity_frame(3)
        m = np.eye(3, dtype=complex)
        m[1, 0] += 0.25  # ||T1 - T2|| = 0.25
        k = KOperator(np.eye(3))
        for lam, holds in ((0.25, True), (0.25 * (1 - 1e-6), False)):
            r = perturbation_condition(f1, Frame(m), k, lam)
            assert r.hypotheses_ok is holds
            assert r.verification_mode == "exact"


def test_unperturbed_pair_certifies():
    f = identity_frame(4)
    k = KOperator(np.eye(4))
    cert = perturbation_certify(f, f, k, 0.0)
    r = cert.report
    assert r.hypotheses_ok and r.condition_27_ok
    assert r.verification_mode == "exact"
    assert r.lhs_27 == pytest.approx(0.0, abs=1e-12)
    assert r.rhs_27 == pytest.approx(1.0, abs=1e-9)
    assert r.predicted_lower == pytest.approx(0.5, abs=1e-8)
    assert r.predicted_upper == pytest.approx(2.0, abs=1e-9)
    # every weaving of the pair is F itself
    assert cert.measured.woven
    assert cert.measured.universal_lower == pytest.approx(1.0, abs=1e-7)
    assert cert.consistent


def test_condition_pieces_match_hand_formula():
    f1 = identity_frame(3)
    m = np.eye(3, dtype=complex)
    m[1, 0] += 0.2  # bump one column off-axis
    f2 = Frame(m)
    k = KOperator(np.eye(3))
    gap = np.linalg.norm(f1.matrix - f2.matrix, 2)
    r = perturbation_condition(f1, f2, k, gap)
    b1 = frame_bounds(f1).upper
    b2 = frame_bounds(f2).upper
    assert r.lhs_27 == pytest.approx((math.sqrt(b1) + math.sqrt(b2)) * gap, rel=1e-9)
    a1 = kframe_lower_bound(f1, k)
    assert r.rhs_27 == pytest.approx(math.sqrt(r.alpha * a1), rel=1e-8)
    assert r.condition_27_ok
    assert r.predicted_lower == pytest.approx(
        (r.rhs_27 - r.lhs_27) ** 2 / (b1 + b2), rel=1e-9
    )
    assert r.predicted_upper == pytest.approx(b1 + b2, rel=1e-9)


def test_alpha_is_the_smallest_squared_column_norm():
    f1 = Frame(np.diag([2.0, 0.5, 3.0]).astype(complex))
    r = perturbation_condition(f1, f1, KOperator(np.eye(3)), 0.0)
    assert r.alpha == check_orthogonal_alpha(f1).alpha_max == 0.25
    assert r.rhs_27 == pytest.approx(math.sqrt(0.25 * kframe_lower_bound(f1, KOperator(np.eye(3)))))


def test_oversized_lam_fails_condition_but_not_hypotheses():
    f = identity_frame(3)
    k = KOperator(np.eye(3))
    # premise trivially holds (gap 0 <= 50) but the condition cannot
    r = perturbation_condition(f, f, k, 50.0)
    assert r.hypotheses_ok
    assert not r.condition_27_ok
    assert r.predicted_lower is None
    cert = perturbation_certify(f, f, k, 50.0)
    assert cert.consistent  # vacuously: the bound predicts nothing


def test_premise_failure_is_reported_not_raised():
    f1 = identity_frame(3)
    f2 = Frame(3.0 * np.eye(3, dtype=complex))
    k = KOperator(np.eye(3))
    # true gap is 2 but lam claims 0.1
    r = perturbation_condition(f1, f2, k, 0.1)
    assert not r.hypotheses_ok
    assert r.verification_mode == "exact"


@pytest.mark.xfail(reason="ROADMAP item 2", raises=AssertionError)
def test_prediction_for_a_non_spanning_first_frame_is_consistent():
    # F1 = [e1] does not span C^2.  The premise is proved with lam = 0.01,
    # condition (27) holds and predicted_lower is 0.480175501237, yet the
    # weaving [e1 + 0.01 e2] is not a K-frame: R(K) = span(e1) is not in
    # its span, so the exact universal lower bound is 0.
    f1 = Frame(np.array([[1.0], [0.0]]))
    f2 = Frame(np.array([[1.0], [0.01]]))
    k = KOperator(np.diag([1.0, 0.0]))
    cert = perturbation_certify(f1, f2, k, 0.01)
    assert cert.consistent


class TestStructuralHypotheses:
    def test_non_orthogonal_first_frame(self):
        m = np.zeros((3, 2), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 1.0
        m[1, 1] = 1.0
        with pytest.raises(HypothesesViolated, match="orthogonal"):
            perturbation_condition(Frame(m), Frame(m), KOperator(np.eye(3)), 0.0)

    def test_first_frame_must_be_a_kframe(self):
        f = Frame(np.array([[1.0], [0.0]], dtype=complex))  # only e1
        k = KOperator(np.diag([0.0, 1.0]).astype(complex))  # range = e2
        with pytest.raises(HypothesesViolated, match="lower bound is 0"):
            perturbation_condition(f, f, k, 0.0)

    def test_dimension_mismatches(self):
        f = identity_frame(3)
        with pytest.raises(ShapeMismatch):
            perturbation_condition(f, identity_frame(4), KOperator(np.eye(3)), 0.0)
        with pytest.raises(ShapeMismatch):
            perturbation_condition(f, f, KOperator(np.eye(4)), 0.0)


def test_condition_flips_once_as_lam_grows():
    rng = np.random.default_rng(6021)
    d = 3
    f1 = Frame(np.diag([2.0, 2.5, 2.25]).astype(complex))
    f2 = Frame(f1.matrix + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    k = KOperator(np.eye(d))
    gap = np.linalg.norm(f1.matrix - f2.matrix, 2)
    oks = []
    for lam in np.linspace(gap, 20 * gap, 25):
        r = perturbation_condition(f1, f2, k, float(lam))
        assert r.hypotheses_ok  # lam only grows past the true gap
        oks.append(r.condition_27_ok)
    assert oks[0]
    assert not oks[-1]
    flips = sum(1 for a, b in zip(oks, oks[1:]) if a != b)
    assert flips == 1


def test_certified_perturbation_respects_measured_bounds():
    rng = np.random.default_rng(2026)
    d = 3
    f1 = Frame(2.0 * np.eye(d, dtype=complex))
    f2 = Frame(f1.matrix + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    k = KOperator(np.eye(d))
    gap = np.linalg.norm(f1.matrix - f2.matrix, 2)
    cert = perturbation_certify(f1, f2, k, gap)
    assert cert.report.condition_27_ok
    assert cert.report.hypotheses_ok
    assert cert.consistent
    assert cert.measured.woven
    assert cert.measured.universal_lower >= cert.report.predicted_lower - 1e-6
    assert cert.measured.universal_upper <= cert.report.predicted_upper + 1e-6


class TestExactPremise:
    """Invariances of the premise verdict that the theory guarantees.

    The premise ||(T1 - T2)a|| <= lam||a|| is homogeneous under
    (c*T1, c*T2, c*lam), invariant under a unitary applied to both
    frames, and monotone in lam.
    """

    @staticmethod
    def cases():
        """Seeded (T1, T2, lam) with orthogonal T1 and lam below or above ||T1 - T2||."""
        out = []
        for i in range(60):
            rng = np.random.default_rng([2027, i])
            d = 2 + i % 3
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            t1 = q * np.sqrt(rng.uniform(1.0, 4.0, d))
            t2 = t1 + rng.uniform(0.05, 1.0) * (rng.standard_normal((d, d))
                                               + 1j * rng.standard_normal((d, d)))
            lam = rng.uniform(0.0, 1.5) * np.linalg.norm(t1 - t2, 2)
            out.append((t1, t2, float(lam)))
        return out

    @staticmethod
    def verdict(t1, t2, lam):
        f1 = Frame(t1)
        r = perturbation_condition(f1, Frame(t2), KOperator(np.eye(f1.dim)), lam)
        return r.hypotheses_ok, r.verification_mode

    def test_cases_reach_every_outcome(self):
        outcomes = {self.verdict(*case) for case in self.cases()}
        assert outcomes == {(True, "exact"), (False, "exact")}

    def test_scaling_keeps_the_verdict(self):
        for t1, t2, lam in self.cases():
            expected = self.verdict(t1, t2, lam)
            for c in (1e-3, 0.3, 5.0, 1e3):
                assert self.verdict(c * t1, c * t2, c * lam) == expected

    def test_unitary_keeps_the_verdict(self):
        rng = np.random.default_rng(31)
        for t1, t2, lam in self.cases():
            d = t1.shape[0]
            u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            assert self.verdict(u @ t1, u @ t2, lam) == self.verdict(t1, t2, lam)

    def test_raising_a_coefficient_keeps_a_proof(self):
        for t1, t2, lam in self.cases():
            if self.verdict(t1, t2, lam) == (True, "exact"):
                assert self.verdict(t1, t2, lam + 0.5 * (1.0 + lam)) == (True, "exact")

    def test_proved_premises_hold_on_random_vectors(self):
        rng = np.random.default_rng(4242)
        for t1, t2, lam in self.cases():
            if self.verdict(t1, t2, lam) != (True, "exact"):
                continue
            n = t1.shape[1]
            a = rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            gap = np.linalg.norm(a @ (t1 - t2).T, axis=1)
            assert np.all(gap <= lam + 1e-9 * (1.0 + lam))
