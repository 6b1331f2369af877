"""Perturbation sufficiency bound for K-woven families.

Starting from a frame F1 whose columns form an orthogonal set with
squared norms above some alpha > 0, and a perturbed frame F2 whose
synthesis operators satisfy

    || sum_j a_j (f_1j - f_2j) ||
        <= lam*||a|| + mu*||sum_j a_j f_1j|| + nu*||sum_j a_j f_2j||

for all coefficient sequences a, the pair is K-woven whenever

    (sqrt(B1) + sqrt(B2)) * (lam + mu*sqrt(B1) + nu*sqrt(B2))
        / sigma_min_pos(K)  <  sqrt(alpha * A1),

with predicted universal bounds

    lower: (rhs - lhs)^2 / (B1 + B2),      upper: B1 + B2.

Here A1 is F1's optimal lower K-frame bound and B1, B2 are the upper
frame bounds.  This module evaluates the condition, the predicted
bounds, and (optionally) cross-validates them against the exhaustive
certifier.  With D = T1 - T2 the premise is proved when ||D R^-1|| <= 1
for [lam*I; mu*T1; nu*T2] = QR, i.e. D^*D <= lam^2*I + mu^2*T1^*T1 +
nu^2*T2^*T2, since (x+y+z)^2 >= x^2+y^2+z^2; refuted when the top
eigenvector of D^*D - lam^2/w1*I - mu^2/w2*T1^*T1 - nu^2/w3*T2^*T2, for
w on a simplex grid (nonzero terms only), violates it directly, since
(sum x_i)^2 = min_w sum x_i^2/w_i; else unresolved.  With one term both
tests compare ||D|| with lam, so a lam-only premise is always decided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesesViolated, InvalidInput, ShapeMismatch
from .frames import Frame, frame_bounds, require_same_shape
from .kframe import KOperator, kframe_lower_bound
from .linalg import operator_norm
from .weaving import WeavingReport, certify_woven

#: "Proved" grows lam, mu, nu by the factor 1 + PREMISE_REL and lam by
#: PREMISE_ABS (||D|| <= lam*(1 + PREMISE_REL) + PREMISE_ABS if mu = nu = 0);
#: testing R, not R^*R, keeps rounding at eps*||R|| in the premise's units.
#: A refuting vector must break the premise by (PREMISE_REL*||R|| + PREMISE_ABS)/2.
PREMISE_REL = 1e-9
PREMISE_ABS = 1e-12
#: Refutation weights lie on the simplex grid of step 1/PREMISE_GRID.
PREMISE_GRID = 16
#: The condition must clear its right-hand side by this relative margin.
STRICTNESS_REL = 1e-12


@dataclass(frozen=True)
class PerturbationParams:
    """(lam, mu, nu, alpha), all finite, with lam, mu, nu >= 0 and alpha > 0."""

    lam: float
    mu: float
    nu: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "nu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and strictly positive, got {self.alpha!r}")


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

    ``hypotheses_ok`` is True only when the premise inequality is
    proved.  ``verification_mode`` is "exact" when the premise was
    proved or refuted and "unresolved" when neither; the structural
    hypotheses (orthogonality, alpha, A1 > 0) raise instead of
    reporting.  ``predicted_lower`` is None when the condition fails —
    the bound is sufficient only, so a failed condition predicts
    nothing.
    """

    hypotheses_ok: bool
    condition_27_ok: bool
    predicted_lower: float | None
    predicted_upper: float
    lhs_27: float
    rhs_27: float
    verification_mode: str


@dataclass(frozen=True, eq=False)
class PerturbationCertification:
    report: PerturbationReport
    measured: WeavingReport
    consistent: bool


def check_orthogonal_alpha(f1: Frame) -> OrthogonalityCheck:
    """Check F1's columns form an orthogonal set of nonzero vectors.

    A zero column fails the check outright: no alpha > 0 can sit below
    its squared norm.  Off-diagonal inner products up to 1e-9 times the
    largest squared column norm count as zero.  Raises InvalidInput
    when the Gram matrix F1^* F1 overflows binary64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = f1.matrix.conj().T @ f1.matrix
    if not np.isfinite(g).all():
        raise InvalidInput("the Gram matrix F1^* F1 overflows binary64")
    norms_sq = np.abs(np.diag(g))
    scale = float(norms_sq.max()) if norms_sq.size else 0.0
    off = g - np.diag(np.diag(g))
    pairwise = bool(np.abs(off).max() <= 1e-9 * scale) if scale > 0 else True
    nonzero = norms_sq > 1e-9 * scale if scale > 0 else np.zeros(f1.count, dtype=bool)
    orthogonal = pairwise and bool(nonzero.all())
    alpha_max = float(norms_sq[nonzero].min()) if nonzero.any() else 0.0
    return OrthogonalityCheck(orthogonal=orthogonal, alpha_max=alpha_max)


def _simplex_grid(k: int) -> np.ndarray:
    """(p, k) weights w > 0 with sum 1 and step 1/PREMISE_GRID; w = (1,) if k = 1."""
    if k <= 1:
        return np.ones((1, k))
    steps = itertools.product(range(1, PREMISE_GRID), repeat=k - 1)
    rows = [c + (PREMISE_GRID - sum(c),) for c in steps if sum(c) < PREMISE_GRID]
    return np.array(rows, dtype=float) / PREMISE_GRID


def _refuse_overflow(values: np.ndarray, terms) -> np.ndarray:
    """``values`` if finite, else InvalidInput naming the parameter of the largest term.

    ``terms`` holds (name, value, scaled term) triples.
    """
    if np.isfinite(values).all():
        return values
    sizes = [np.nan_to_num(np.abs(t), nan=np.inf).max(initial=0.0) for _, _, t in terms]
    name, value, _ = terms[int(np.argmax(sizes))]
    raise InvalidInput(f"{name}={value:g} makes its premise term overflow binary64")


def _premise_verdict(f1: Frame, f2: Frame, params: PerturbationParams) -> bool | None:
    """True if the premise is proved, False if refuted, None if unresolved.

    Raises InvalidInput naming lam, mu or nu when its term overflows binary64.
    """
    d, eye, grow = f1.matrix - f2.matrix, np.eye(f1.count), 1.0 + PREMISE_REL
    with np.errstate(over="ignore", invalid="ignore"):
        g = [("lam", params.lam, (grow * params.lam + PREMISE_ABS) * eye),
             ("mu", params.mu, grow * params.mu * f1.matrix),
             ("nu", params.nu, grow * params.nu * f2.matrix)]
        stacked = _refuse_overflow(np.vstack([term for _, _, term in g]), g)
        r = _refuse_overflow(np.linalg.qr(stacked, mode="r"), g)
    if operator_norm(np.linalg.solve(r.T, d.T)) <= 1.0:
        return True
    terms = [(name, c, q) for name, c, q in (("lam", params.lam, eye), ("mu", params.mu, f1.matrix),
                                             ("nu", params.nu, f2.matrix)) if c > 0]
    weights = _simplex_grid(len(terms))
    with np.errstate(over="ignore", invalid="ignore"):
        grams = [(name, c, c * c * (q.conj().T @ q)) for name, c, q in terms]
        stack = np.array([gram for _, _, gram in grams]).reshape(-1, *eye.shape)
        pencils = d.conj().T @ d - np.einsum("pk,kij->pij", 1.0 / weights, stack)
    _, vecs = np.linalg.eigh(_refuse_overflow(pencils, grams))
    a = vecs[:, :, -1]
    allowed = sum(c * np.linalg.norm(a @ q.T, axis=1) for _, c, q in terms)
    margin = 0.5 * (PREMISE_REL * operator_norm(r) + PREMISE_ABS)
    return False if np.any(np.linalg.norm(a @ d.T, axis=1) > allowed + margin) else None


def perturbation_condition(f1: Frame, f2: Frame, k: KOperator,
                           params: PerturbationParams) -> PerturbationReport:
    """Evaluate the sufficiency condition and its predicted bounds.

    A1 is F1's optimal lower K-frame bound, the tightest legitimate
    choice.  Raises HypothesesViolated — naming the failed hypothesis —
    when F1 is not an orthogonal set with ||f_1j||^2 >= alpha, or when
    F1 is not a K-frame at all.
    """
    if require_same_shape([f1, f2])[0] != k.dim:
        raise ShapeMismatch(f"frame dim {f1.dim} != operator dim {k.dim}")
    ortho = check_orthogonal_alpha(f1)
    if not ortho.orthogonal:
        raise HypothesesViolated("F1 is not an orthogonal set of nonzero vectors")
    if params.alpha > ortho.alpha_max:
        raise HypothesesViolated(
            f"alpha={params.alpha:g} exceeds the smallest squared column norm "
            f"{ortho.alpha_max:g}"
        )
    a1 = kframe_lower_bound(f1, k)
    if a1 <= 0:
        raise HypothesesViolated("F1 is not a K-frame (its lower bound is 0)")
    b1, b2 = frame_bounds(f1).upper, frame_bounds(f2).upper
    lhs = (math.sqrt(b1) + math.sqrt(b2)) * (
        params.lam + params.mu * math.sqrt(b1) + params.nu * math.sqrt(b2)
    ) / k.sigma_min_pos
    rhs = math.sqrt(params.alpha * a1)
    ok = lhs < rhs - STRICTNESS_REL * rhs
    premise = _premise_verdict(f1, f2, params)
    return PerturbationReport(
        hypotheses_ok=premise is True,
        condition_27_ok=ok,
        predicted_lower=((rhs - lhs) ** 2 / (b1 + b2)) if ok else None,
        predicted_upper=b1 + b2,
        lhs_27=lhs,
        rhs_27=rhs,
        verification_mode="unresolved" if premise is None else "exact",
    )


def perturbation_certify(f1: Frame, f2: Frame, k: KOperator,
                         params: PerturbationParams) -> PerturbationCertification:
    """Cross-validate the predicted bounds against exhaustive truth.

    ``consistent`` is vacuously true when the condition (or premise)
    fails — the bound is one-directional — and otherwise requires the
    measured universal bounds to respect the prediction.
    """
    report = perturbation_condition(f1, f2, k, params)
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
