import math

import numpy as np
import pytest

from kweave.errors import HypothesesViolated, ShapeMismatch
from kweave.frames import Frame, frame_bounds
from kweave.kframe import KOperator, kframe_lower_bound
from kweave.perturbation import (
    PerturbationParams,
    check_orthogonal_alpha,
    perturbation_certify,
    perturbation_condition,
)


def identity_frame(d, scale=1.0):
    return Frame(scale * np.eye(d, dtype=complex))


class TestParams:
    def test_validation(self):
        PerturbationParams(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PerturbationParams(-0.1, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PerturbationParams(0.0, 0.0, -1.0, 1.0)
        for nan_at in range(3):  # a NaN coefficient would drop out of the premise
            with pytest.raises(ValueError, match="nonnegative"):
                PerturbationParams(*[math.nan if i == nan_at else 0.1 for i in range(3)], 1.0)
        with pytest.raises(ValueError):
            PerturbationParams(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["lam", "mu", "nu", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_value_is_named(self, name, value):
        values = {"lam": 0.1, "mu": 0.1, "nu": 0.1, "alpha": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PerturbationParams(**values)


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
    """With mu = nu = 0 the premise holds exactly when lam >= ||T1 - T2||."""

    def test_zero_for_identical(self):
        f = identity_frame(3)
        r = perturbation_condition(f, f, KOperator(np.eye(3)),
                                   PerturbationParams(0.0, 0.0, 0.0, 1.0))
        assert r.hypotheses_ok
        assert r.verification_mode == "exact"

    def test_rank_one_difference(self):
        f1 = identity_frame(3)
        m = np.eye(3, dtype=complex)
        m[1, 0] += 0.25  # ||T1 - T2|| = 0.25
        k = KOperator(np.eye(3))
        for lam, holds in ((0.25, True), (0.25 * (1 - 1e-6), False)):
            r = perturbation_condition(f1, Frame(m), k, PerturbationParams(lam, 0.0, 0.0, 1.0))
            assert r.hypotheses_ok is holds
            assert r.verification_mode == "exact"


def test_unperturbed_pair_certifies():
    f = identity_frame(4)
    k = KOperator(np.eye(4))
    params = PerturbationParams(0.0, 0.0, 0.0, 1.0)
    cert = perturbation_certify(f, f, k, params)
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
    params = PerturbationParams(gap, 0.0, 0.0, 1.0)
    r = perturbation_condition(f1, f2, k, params)
    b1 = frame_bounds(f1).upper
    b2 = frame_bounds(f2).upper
    assert r.lhs_27 == pytest.approx((math.sqrt(b1) + math.sqrt(b2)) * gap, rel=1e-9)
    a1 = kframe_lower_bound(f1, k)
    assert r.rhs_27 == pytest.approx(math.sqrt(params.alpha * a1), rel=1e-8)
    assert r.condition_27_ok
    assert r.predicted_lower == pytest.approx(
        (r.rhs_27 - r.lhs_27) ** 2 / (b1 + b2), rel=1e-9
    )
    assert r.predicted_upper == pytest.approx(b1 + b2, rel=1e-9)


def test_oversized_lam_fails_condition_but_not_hypotheses():
    f = identity_frame(3)
    k = KOperator(np.eye(3))
    # premise trivially holds (gap 0 <= 50) but the condition cannot
    r = perturbation_condition(f, f, k, PerturbationParams(50.0, 0.0, 0.0, 1.0))
    assert r.hypotheses_ok
    assert not r.condition_27_ok
    assert r.predicted_lower is None
    cert = perturbation_certify(f, f, k, PerturbationParams(50.0, 0.0, 0.0, 1.0))
    assert cert.consistent  # vacuously: the bound predicts nothing


def test_premise_failure_is_reported_not_raised():
    f1 = identity_frame(3)
    f2 = Frame(3.0 * np.eye(3, dtype=complex))
    k = KOperator(np.eye(3))
    # true gap is 2 but lam claims 0.1
    r = perturbation_condition(f1, f2, k, PerturbationParams(0.1, 0.0, 0.0, 1.0))
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
    cert = perturbation_certify(f1, f2, k, PerturbationParams(0.01, 0.0, 0.0, 1.0))
    assert cert.consistent


class TestStructuralHypotheses:
    def test_non_orthogonal_first_frame(self):
        m = np.zeros((3, 2), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 1.0
        m[1, 1] = 1.0
        with pytest.raises(HypothesesViolated, match="orthogonal"):
            perturbation_condition(
                Frame(m), Frame(m), KOperator(np.eye(3)),
                PerturbationParams(0.0, 0.0, 0.0, 1.0),
            )

    def test_alpha_above_smallest_norm(self):
        f = Frame(np.diag([1.0, 0.5]).astype(complex))
        with pytest.raises(HypothesesViolated, match="smallest squared"):
            perturbation_condition(
                f, f, KOperator(np.eye(2)), PerturbationParams(0.0, 0.0, 0.0, 0.5)
            )

    def test_first_frame_must_be_a_kframe(self):
        f = Frame(np.array([[1.0], [0.0]], dtype=complex))  # only e1
        k = KOperator(np.diag([0.0, 1.0]).astype(complex))  # range = e2
        with pytest.raises(HypothesesViolated, match="lower bound is 0"):
            perturbation_condition(f, f, k, PerturbationParams(0.0, 0.0, 0.0, 1.0))

    def test_dimension_mismatches(self):
        f = identity_frame(3)
        with pytest.raises(ShapeMismatch):
            perturbation_condition(
                f, identity_frame(4), KOperator(np.eye(3)),
                PerturbationParams(0.0, 0.0, 0.0, 1.0),
            )
        with pytest.raises(ShapeMismatch):
            perturbation_condition(
                f, f, KOperator(np.eye(4)), PerturbationParams(0.0, 0.0, 0.0, 1.0)
            )


def test_condition_flips_once_as_lam_grows():
    rng = np.random.default_rng(6021)
    d = 3
    f1 = Frame(np.diag([2.0, 2.5, 2.25]).astype(complex))
    f2 = Frame(f1.matrix + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    k = KOperator(np.eye(d))
    gap = np.linalg.norm(f1.matrix - f2.matrix, 2)
    oks = []
    for lam in np.linspace(gap, 20 * gap, 25):
        r = perturbation_condition(
            f1, f2, k, PerturbationParams(float(lam), 0.0, 0.0, 1.0)
        )
        assert r.hypotheses_ok  # lam only grows past the true gap
        oks.append(r.condition_27_ok)
    assert oks[0]
    assert not oks[-1]
    flips = sum(1 for a, b in zip(oks, oks[1:]) if a != b)
    assert flips == 1


class TestSampledPremise:
    def test_mu_term_covers_the_gap(self):
        f1 = identity_frame(3)
        f2 = Frame(2.0 * np.eye(3, dtype=complex))
        k = KOperator(np.eye(3))
        # ||(T1-T2)a|| = ||a|| while mu*||T1 a|| = 1.1*||a||
        r = perturbation_condition(f1, f2, k, PerturbationParams(0.0, 1.1, 0.0, 1.0))
        assert r.verification_mode == "exact"
        assert r.hypotheses_ok

    def test_undersized_mu_detected(self):
        f1 = identity_frame(3)
        f2 = Frame(2.0 * np.eye(3, dtype=complex))
        k = KOperator(np.eye(3))
        r = perturbation_condition(f1, f2, k, PerturbationParams(0.0, 0.5, 0.0, 1.0))
        assert r.verification_mode == "exact"
        assert not r.hypotheses_ok


def test_unresolved_premise_is_not_reported_as_holding(unresolved_triple):
    r = perturbation_condition(*unresolved_triple)
    assert r.verification_mode == "unresolved"
    assert not r.hypotheses_ok


def premise_gap(t1, t2, coeffs, a):
    """||(T1 - T2)a|| - (lam||a|| + mu||T1 a|| + nu||T2 a||), evaluated directly."""
    lam, mu, nu = coeffs
    return (np.linalg.norm((t1 - t2) @ a) - lam * np.linalg.norm(a)
            - mu * np.linalg.norm(t1 @ a) - nu * np.linalg.norm(t2 @ a))


class TestPremiseKnownAnswers:
    """Diagonal triples whose premise is false along a known basis vector."""

    @pytest.mark.parametrize("t2_weak, coeffs", [(1e-8, (0.0, 0.0, 1.0)),
                                                 (-2e-5, (0.0, 1.0, 0.0))])
    def test_violation_along_a_weak_column_is_refuted(self, t2_weak, coeffs):
        # At e2 the premise's right-hand side is 1e-8 (nu) or 4e-5 (mu) while
        # ||D e2|| is about 4e-5 or 6e-5: false by a factor of 4,000 or 1.5,
        # though both sides squared differ by under 2e-9 * ||Sigma||.
        t1 = np.diag([1.0, 4e-5]).astype(complex)
        t2 = np.diag([1.0, t2_weak]).astype(complex)
        assert premise_gap(t1, t2, coeffs, np.array([0.0, 1.0])) > 1e-5
        r = perturbation_condition(Frame(t1), Frame(t2), KOperator(np.eye(2)),
                                   PerturbationParams(*coeffs, 1.6e-9))
        assert not r.hypotheses_ok
        assert r.verification_mode == "exact"

    def test_only_an_interior_weight_refutes(self):
        # The premise fails at e1 (1.6 > 1 + 20 * 0.025) and holds at e2
        # (10.9 <= 1 + 20 * 0.5).  M(w) = D^*D - I/w_lam - 400 T1^*T1/w_mu is
        # diagonal with top eigenvector e1 only for w_mu < 99.75/116.25 ~ 0.86:
        # grid points up to w_mu = 13/16 find it, the weight proportional to
        # (lam, mu||T1||) = (1, 10)/11 does not, nor does any grid point if
        # M(w) took mu instead of mu^2 or w instead of 1/w.
        t1 = np.diag([0.025, 0.5]).astype(complex)
        t2 = t1 - np.diag([1.6, 10.9])
        coeffs = (1.0, 20.0, 0.0)
        assert premise_gap(t1, t2, coeffs, np.array([1.0, 0.0])) > 0.09
        assert premise_gap(t1, t2, coeffs, np.array([0.0, 1.0])) < 0
        r = perturbation_condition(Frame(t1), Frame(t2), KOperator(np.eye(2)),
                                   PerturbationParams(*coeffs, 0.025 ** 2))
        assert not r.hypotheses_ok
        assert r.verification_mode == "exact"

    def test_premise_holding_with_equality_is_not_refuted(self):
        # T1 = U, T2 = -U: ||2Ua|| = ||a|| + ||Ua|| for every a, so the premise
        # holds with equality and must not be refuted; D^*D = 4I exceeds the
        # squared relaxation 2I, so it cannot be proved either.
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        r = perturbation_condition(Frame(u), Frame(-u), KOperator(np.eye(4)),
                                   PerturbationParams(1.0, 1.0, 0.0, 0.5))
        assert not r.hypotheses_ok
        assert r.verification_mode == "unresolved"


def test_certified_perturbation_respects_measured_bounds():
    rng = np.random.default_rng(2026)
    d = 3
    f1 = Frame(2.0 * np.eye(d, dtype=complex))
    f2 = Frame(f1.matrix + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    k = KOperator(np.eye(d))
    gap = np.linalg.norm(f1.matrix - f2.matrix, 2)
    cert = perturbation_certify(
        f1, f2, k, PerturbationParams(gap, 0.0, 0.0, 4.0)
    )
    assert cert.report.condition_27_ok
    assert cert.report.hypotheses_ok
    assert cert.consistent
    assert cert.measured.woven
    assert cert.measured.universal_lower >= cert.report.predicted_lower - 1e-6
    assert cert.measured.universal_upper <= cert.report.predicted_upper + 1e-6


class TestExactPremise:
    """Invariances of the premise verdict that the theory guarantees.

    The premise ||(T1 - T2)a|| <= lam||a|| + mu||T1 a|| + nu||T2 a||
    is homogeneous under (c*T1, c*T2, c*lam), invariant under a unitary
    applied to both frames, and monotone in lam, mu and nu.
    """

    @staticmethod
    def cases():
        """Seeded (T1, T2, (lam, mu, nu)) with orthogonal T1; some coefficients 0."""
        out = []
        for i in range(60):
            rng = np.random.default_rng([2027, i])
            d = 2 + i % 3
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            t1 = q * np.sqrt(rng.uniform(1.0, 4.0, d))
            t2 = t1 + rng.uniform(0.05, 1.0) * (rng.standard_normal((d, d))
                                               + 1j * rng.standard_normal((d, d)))
            coeffs = rng.uniform(0.0, 1.0, 3) * (rng.uniform(size=3) < 0.7)
            coeffs[0] *= 1.5 * np.linalg.norm(t1 - t2, 2)
            out.append((t1, t2, tuple(float(c) for c in coeffs)))
        return out

    @staticmethod
    def verdict(t1, t2, coeffs):
        f1 = Frame(t1)
        params = PerturbationParams(*coeffs, check_orthogonal_alpha(f1).alpha_max)
        r = perturbation_condition(f1, Frame(t2), KOperator(np.eye(f1.dim)), params)
        return r.hypotheses_ok, r.verification_mode

    def test_cases_reach_every_outcome(self):
        outcomes = {self.verdict(*case) for case in self.cases()}
        assert outcomes == {(True, "exact"), (False, "exact"), (False, "unresolved")}

    def test_scaling_keeps_the_verdict(self):
        for t1, t2, (lam, mu, nu) in self.cases():
            expected = self.verdict(t1, t2, (lam, mu, nu))
            for c in (1e-3, 0.3, 5.0, 1e3):
                assert self.verdict(c * t1, c * t2, (c * lam, mu, nu)) == expected

    def test_unitary_keeps_the_verdict(self):
        rng = np.random.default_rng(31)
        for t1, t2, coeffs in self.cases():
            d = t1.shape[0]
            u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            assert self.verdict(u @ t1, u @ t2, coeffs) == self.verdict(t1, t2, coeffs)

    def test_raising_a_coefficient_keeps_a_proof(self):
        for t1, t2, coeffs in self.cases():
            if self.verdict(t1, t2, coeffs) != (True, "exact"):
                continue
            for i in range(3):
                raised = list(coeffs)
                raised[i] += 0.5 * (1.0 + raised[i])
                assert self.verdict(t1, t2, tuple(raised)) == (True, "exact")

    def test_proved_premises_hold_on_random_vectors(self):
        rng = np.random.default_rng(4242)
        for t1, t2, (lam, mu, nu) in self.cases():
            if self.verdict(t1, t2, (lam, mu, nu)) != (True, "exact"):
                continue
            n = t1.shape[1]
            a = rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            gap = np.linalg.norm(a @ (t1 - t2).T, axis=1)
            allowed = (lam + mu * np.linalg.norm(a @ t1.T, axis=1)
                       + nu * np.linalg.norm(a @ t2.T, axis=1))
            assert np.all(gap <= allowed + 1e-9 * (1.0 + allowed))
