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
    synthesis_gap,
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
        with pytest.raises(ValueError):
            PerturbationParams(0.0, 0.0, 0.0, 0.0)


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
    def test_zero_for_identical(self):
        f = identity_frame(3)
        assert synthesis_gap(f, f) == 0.0

    def test_rank_one_difference(self):
        f1 = identity_frame(3)
        m = np.eye(3, dtype=complex)
        m[1, 0] += 0.25
        assert synthesis_gap(f1, Frame(m)) == pytest.approx(0.25, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            synthesis_gap(identity_frame(3), identity_frame(4))


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
    gap = synthesis_gap(f1, f2)
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
    gap = synthesis_gap(f1, f2)
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
        r = perturbation_condition(
            f1, f2, k, PerturbationParams(0.0, 1.1, 0.0, 1.0), seed=11
        )
        assert r.verification_mode == "sampled"
        assert r.hypotheses_ok

    def test_undersized_mu_detected(self):
        f1 = identity_frame(3)
        f2 = Frame(2.0 * np.eye(3, dtype=complex))
        k = KOperator(np.eye(3))
        r = perturbation_condition(
            f1, f2, k, PerturbationParams(0.0, 0.5, 0.0, 1.0), seed=11
        )
        assert r.verification_mode == "sampled"
        assert not r.hypotheses_ok

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(404)
        f1 = Frame(np.diag([1.0, 1.5, 2.0]).astype(complex))
        f2 = Frame(f1.matrix + 0.1 * rng.standard_normal((3, 3)))
        k = KOperator(np.eye(3))
        params = PerturbationParams(0.05, 0.2, 0.0, 1.0)
        r1 = perturbation_condition(f1, f2, k, params, seed=99)
        r2 = perturbation_condition(f1, f2, k, params, seed=99)
        assert r1 == r2


def test_certified_perturbation_respects_measured_bounds():
    rng = np.random.default_rng(2026)
    d = 3
    f1 = Frame(2.0 * np.eye(d, dtype=complex))
    f2 = Frame(f1.matrix + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    k = KOperator(np.eye(d))
    gap = synthesis_gap(f1, f2)
    cert = perturbation_certify(
        f1, f2, k, PerturbationParams(gap, 0.0, 0.0, 4.0)
    )
    assert cert.report.condition_27_ok
    assert cert.report.hypotheses_ok
    assert cert.consistent
    assert cert.measured.woven
    assert cert.measured.universal_lower >= cert.report.predicted_lower - 1e-6
    assert cert.measured.universal_upper <= cert.report.predicted_upper + 1e-6
