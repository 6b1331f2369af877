"""Perturbation sufficiency bound for K-woven families.

The paper's premise is the Casazza-Christensen form: for all
coefficient sequences a,

    || sum_j a_j (f_1j - f_2j) ||
        <= lam*||a|| + mu*||sum_j a_j f_1j|| + nu*||sum_j a_j f_2j||.

Every Bessel sequence has ||T_i a|| <= sqrt(B_i)*||a||, so a premise
that holds for (lam, mu, nu) also holds for

    lam' = lam + mu*sqrt(B1) + nu*sqrt(B2),      mu = nu = 0,

and condition (27)'s left-hand side is the same number for both.  So
every input the (lam, mu, nu) form admits is admitted by lam' alone.
This module checks the premise in its mu = nu = 0 form, which is not
the paper's statement of it; a (lam, mu, nu) claim is checked by
passing lam'.  That form holds exactly when ||T1 - T2|| <= lam, so it
is always decided.

Starting from a frame F1 whose columns form an orthogonal set with
squared norms at least alpha > 0, and a perturbed frame F2 with
||T1 - T2|| <= lam, the pair is K-woven whenever

    (sqrt(B1) + sqrt(B2)) * lam / sigma_min_pos(K)  <  sqrt(alpha * A1),

with predicted universal bounds

    lower: (rhs - lhs)^2 / (B1 + B2),      upper: B1 + B2.

Here A1 is F1's optimal lower K-frame bound, alpha is F1's smallest
squared column norm (the largest admissible alpha, so the strongest
condition), and B1, B2 are the upper frame bounds.  This module
evaluates the condition, the predicted bounds, and (optionally)
cross-validates them against the exhaustive certifier.

This module also requires R(F2) to lie in V = span(F1).  That
hypothesis is added here; it is not the paper's.  Without it the
prediction can be false when F1 does not span H: F1 = [e1],
F2 = [e1 + 0.01 e2], K = diag(1, 0) and lam = 0.01 meet the premise
and condition (27) and predict a lower bound of 0.48, yet the weaving
[e1 + 0.01 e2] is not a K-frame, so the true bound is 0.  With the
hypothesis the theorem reduces to the case where F1 spans:

- A1 > 0 forces R(K) into V: for f orthogonal to V the K-frame
  inequality reads A1 ||K^* f||^2 <= 0, so K^* f = 0.
- Every vector of every weaving lies in V, and K^* w = 0 for w
  orthogonal to V.  So each side of each frame inequality at
  f = v + w (v in V, w orthogonal to V) depends on v alone, and the
  theorem applies on V with K replaced by (K K^*)^(1/2) restricted
  to V, which maps V into R(K) and has ||(K K^*)^(1/2) v|| = ||K^* v||.
  That operator has the same nonzero singular values as K, so
  sigma_min_pos(K) is unchanged, and so are A1, alpha, B1, B2 and
  ||T1 - T2||.

The check is the rank rule of :func:`kweave.kframe.douglas_check`:
rank [F1 | F2] = rank F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesesViolated, InvalidInput, ShapeMismatch
from .frames import Frame, frame_bounds, require_same_shape
from .kframe import KOperator, kframe_lower_bound
from .linalg import numerical_rank, operator_norm
from .weaving import WeavingReport, certify_woven

#: The premise counts as proved when ||T1 - T2|| <= lam*(1 + PREMISE_REL)
#: + PREMISE_ABS, which absorbs the rounding of the computed norm.
PREMISE_REL = 1e-9
PREMISE_ABS = 1e-12
#: The condition must clear its right-hand side by this relative margin.
STRICTNESS_REL = 1e-12


@dataclass(frozen=True)
class OrthogonalityCheck:
    """orthogonal: pairwise-orthogonal columns, none of them zero.

    alpha_max is the largest admissible alpha: the minimum squared
    norm over nonzero columns (0.0 when every column is zero).
    """

    orthogonal: bool
    alpha_max: float


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of the sufficiency condition on one (F1, F2, K) triple.

    ``hypotheses_ok`` is True exactly when the premise
    ||T1 - T2|| <= lam is proved; the structural hypotheses
    (orthogonality, R(F2) inside span(F1), A1 > 0) raise instead of
    reporting.
    ``verification_mode`` is always "exact", since the premise is always
    decided; the field stays because ``bench/workloads.py`` reads it.
    ``alpha`` is F1's smallest squared column norm, the alpha in rhs_27.
    ``predicted_lower`` is None when the condition fails — the bound is
    sufficient only, so a failed condition predicts nothing.
    """

    hypotheses_ok: bool
    condition_27_ok: bool
    predicted_lower: float | None
    predicted_upper: float
    lhs_27: float
    rhs_27: float
    verification_mode: str
    alpha: float


@dataclass(frozen=True, eq=False)
class PerturbationCertification:
    report: PerturbationReport
    measured: WeavingReport
    consistent: bool


def check_orthogonal_alpha(f1: Frame) -> OrthogonalityCheck:
    """Check F1's columns form an orthogonal set of nonzero vectors.

    A column is zero only when every entry is 0, and a zero column fails
    the check outright: no alpha > 0 can sit below its squared norm.
    Columns i and j count as orthogonal when |<f_i, f_j>| <= 1e-9 *
    ||f_i|| * ||f_j||, each pair on its own scale, so columns of widely
    different norms are judged alike.  Raises InvalidInput when the Gram
    matrix F1^* F1 overflows binary64, or when a nonzero column's
    squared norm underflows to 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = f1.matrix.conj().T @ f1.matrix
    if not np.isfinite(g).all():
        raise InvalidInput("the Gram matrix F1^* F1 overflows binary64")
    norms_sq = np.abs(np.diag(g))
    nonzero = f1.matrix.any(axis=0)
    if np.any((norms_sq == 0) & nonzero):
        raise InvalidInput("a squared column norm of F1 underflows binary64")
    norms = np.sqrt(norms_sq)
    off = np.abs(g - np.diag(np.diag(g)))
    pairwise = bool((off <= np.outer(1e-9 * norms, norms)).all())
    orthogonal = pairwise and bool(nonzero.all())
    alpha_max = float(norms_sq[nonzero].min()) if nonzero.any() else 0.0
    return OrthogonalityCheck(orthogonal=orthogonal, alpha_max=alpha_max)


def perturbation_condition(f1: Frame, f2: Frame, k: KOperator,
                           lam: float) -> PerturbationReport:
    """Evaluate the sufficiency condition and its predicted bounds.

    A1 is F1's optimal lower K-frame bound and alpha its smallest squared
    column norm, the tightest legitimate choices.  Raises ValueError
    unless lam is finite and nonnegative, and InvalidInput when the
    premise's right-hand side overflows binary64.  Raises
    HypothesesViolated — naming the failed hypothesis — when F1 is not
    an orthogonal set of nonzero vectors, when R(F2) is not contained in
    span(F1) (the hypothesis this module adds; see the module
    docstring), or when F1 is not a K-frame.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    lam += 0.0  # -0.0 becomes 0.0, so lhs_27 is never -0
    if require_same_shape([f1, f2])[0] != k.dim:
        raise ShapeMismatch(f"frame dim {f1.dim} != operator dim {k.dim}")
    ortho = check_orthogonal_alpha(f1)
    if not ortho.orthogonal:
        raise HypothesesViolated("F1 is not an orthogonal set of nonzero vectors")
    if numerical_rank(np.concatenate([f1.matrix, f2.matrix], axis=1)) != numerical_rank(f1.matrix):
        raise HypothesesViolated("R(F2) is not contained in span(F1)")
    a1 = kframe_lower_bound(f1, k)
    if a1 <= 0:
        raise HypothesesViolated("F1 is not a K-frame (its lower bound is 0)")
    b1, b2 = frame_bounds(f1).upper, frame_bounds(f2).upper
    lhs = (math.sqrt(b1) + math.sqrt(b2)) * lam / k.sigma_min_pos
    rhs = math.sqrt(ortho.alpha_max * a1)
    ok = lhs < rhs - STRICTNESS_REL * rhs
    allowed = lam * (1.0 + PREMISE_REL) + PREMISE_ABS
    if not math.isfinite(allowed):
        raise InvalidInput(f"lam={lam:g} makes its premise term overflow binary64")
    return PerturbationReport(
        hypotheses_ok=operator_norm(f1.matrix - f2.matrix) <= allowed,
        condition_27_ok=ok,
        predicted_lower=((rhs - lhs) ** 2 / (b1 + b2)) if ok else None,
        predicted_upper=b1 + b2,
        lhs_27=lhs,
        rhs_27=rhs,
        verification_mode="exact",
        alpha=ortho.alpha_max,
    )


def perturbation_certify(f1: Frame, f2: Frame, k: KOperator,
                         lam: float) -> PerturbationCertification:
    """Cross-validate the predicted bounds against exhaustive truth.

    ``consistent`` is vacuously true when the condition (or premise)
    fails — the bound is one-directional — and otherwise requires the
    measured universal bounds to respect the prediction.
    """
    report = perturbation_condition(f1, f2, k, lam)
    measured = certify_woven([f1, f2], k)
    if not (report.condition_27_ok and report.hypotheses_ok):
        consistent = True
    else:
        consistent = bool(
            measured.woven
            and measured.universal_lower >= report.predicted_lower - 1e-6
            and measured.universal_upper <= report.predicted_upper + 1e-6
        )
    return PerturbationCertification(report=report, measured=measured, consistent=consistent)
