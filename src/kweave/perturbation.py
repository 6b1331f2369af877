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
certifier.  The premise inequality is checked exactly (an operator
norm) when mu = nu = 0 and by seeded sampling otherwise, and reports
record which kind of verification ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesesViolated, ShapeMismatch
from .frames import Frame, frame_bounds
from .kframe import KOperator, kframe_lower_bound
from .linalg import operator_norm
from .weaving import DEFAULT_PARTITION_CAP, WeavingReport, certify_woven

#: Sample count for the stochastic premise check when mu or nu > 0.
PREMISE_SAMPLES = 10_000
#: The condition must clear its right-hand side by this relative margin.
STRICTNESS_REL = 1e-12


@dataclass(frozen=True)
class PerturbationParams:
    """(lam, mu, nu, alpha) with lam, mu, nu >= 0 and alpha > 0."""

    lam: float
    mu: float
    nu: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "nu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.alpha > 0:
            raise ValueError("alpha must be strictly positive")


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

    ``hypotheses_ok`` records whether the premise inequality held
    under ``verification_mode`` ("exact" or "sampled"); the structural
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
    largest squared column norm count as zero.
    """
    g = f1.matrix.conj().T @ f1.matrix
    norms_sq = np.abs(np.diag(g))
    scale = float(norms_sq.max()) if norms_sq.size else 0.0
    off = g - np.diag(np.diag(g))
    pairwise = bool(np.abs(off).max() <= 1e-9 * scale) if scale > 0 else True
    nonzero = norms_sq > 1e-9 * scale if scale > 0 else np.zeros(f1.count, dtype=bool)
    orthogonal = pairwise and bool(nonzero.all())
    alpha_max = float(norms_sq[nonzero].min()) if nonzero.any() else 0.0
    return OrthogonalityCheck(orthogonal=orthogonal, alpha_max=alpha_max)


def synthesis_gap(f1: Frame, f2: Frame) -> float:
    """||T1 - T2||: the minimal exact lam when mu = nu = 0."""
    if (f1.dim, f1.count) != (f2.dim, f2.count):
        raise ShapeMismatch(
            f"frames have shapes {(f1.dim, f1.count)} and {(f2.dim, f2.count)}"
        )
    return operator_norm(f1.matrix - f2.matrix)


def _premise_holds(f1: Frame, f2: Frame, params: PerturbationParams,
                   seed: int | None) -> tuple[bool, str]:
    """Verify the premise inequality; returns (ok, mode)."""
    if params.mu == 0.0 and params.nu == 0.0:
        gap = synthesis_gap(f1, f2)
        return gap <= params.lam * (1 + 1e-9) + 1e-12, "exact"
    rng = np.random.default_rng(seed)
    n = f1.count
    a = rng.standard_normal((PREMISE_SAMPLES, n)) + 1j * rng.standard_normal((PREMISE_SAMPLES, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    diff = np.linalg.norm((f1.matrix - f2.matrix) @ a.T, axis=0)
    t1 = np.linalg.norm(f1.matrix @ a.T, axis=0)
    t2 = np.linalg.norm(f2.matrix @ a.T, axis=0)
    allowed = params.lam + params.mu * t1 + params.nu * t2
    slack = 1e-9 * (1.0 + allowed)
    return bool(np.all(diff <= allowed + slack)), "sampled"


def perturbation_condition(f1: Frame, f2: Frame, k: KOperator,
                           params: PerturbationParams, *,
                           seed: int | None = 0) -> PerturbationReport:
    """Evaluate the sufficiency condition and its predicted bounds.

    A1 is F1's optimal lower K-frame bound, the tightest legitimate
    choice.  Raises HypothesesViolated — naming the failed hypothesis —
    when F1 is not an orthogonal set with ||f_1j||^2 >= alpha, or when
    F1 is not a K-frame at all.
    """
    if (f1.dim, f1.count) != (f2.dim, f2.count):
        raise ShapeMismatch(
            f"frames have shapes {(f1.dim, f1.count)} and {(f2.dim, f2.count)}"
        )
    if f1.dim != k.dim:
        raise ShapeMismatch(f"frame dim {f1.dim} != operator dim {k.dim}")
    ortho = check_orthogonal_alpha(f1)
    if not ortho.orthogonal:
        raise HypothesesViolated(
            "F1 is not an orthogonal set of nonzero vectors"
        )
    if params.alpha > ortho.alpha_max:
        raise HypothesesViolated(
            f"alpha={params.alpha:g} exceeds the smallest squared column norm "
            f"{ortho.alpha_max:g}"
        )
    a1 = kframe_lower_bound(f1, k)
    if a1 <= 0:
        raise HypothesesViolated("F1 is not a K-frame (its lower bound is 0)")
    b1 = frame_bounds(f1).upper
    b2 = frame_bounds(f2).upper
    lhs = (math.sqrt(b1) + math.sqrt(b2)) * (
        params.lam + params.mu * math.sqrt(b1) + params.nu * math.sqrt(b2)
    ) / k.sigma_min_pos
    rhs = math.sqrt(params.alpha * a1)
    ok = lhs < rhs - STRICTNESS_REL * rhs
    premise_ok, mode = _premise_holds(f1, f2, params, seed)
    return PerturbationReport(
        hypotheses_ok=premise_ok,
        condition_27_ok=ok,
        predicted_lower=((rhs - lhs) ** 2 / (b1 + b2)) if ok else None,
        predicted_upper=b1 + b2,
        lhs_27=lhs,
        rhs_27=rhs,
        verification_mode=mode,
    )


def perturbation_certify(f1: Frame, f2: Frame, k: KOperator,
                         params: PerturbationParams, *,
                         seed: int | None = 0,
                         partition_cap: int = DEFAULT_PARTITION_CAP,
                         threads: int | None = None) -> PerturbationCertification:
    """Cross-validate the predicted bounds against exhaustive truth.

    ``consistent`` is vacuously true when the condition (or premise)
    fails — the bound is one-directional — and otherwise requires the
    measured universal bounds to respect the prediction.
    """
    report = perturbation_condition(f1, f2, k, params, seed=seed)
    measured = certify_woven([f1, f2], k, "exhaustive",
                             partition_cap=partition_cap, threads=threads)
    if not (report.condition_27_ok and report.hypotheses_ok):
        consistent = True
    else:
        consistent = bool(
            measured.woven
            and measured.universal_lower >= report.predicted_lower - 1e-6
            and measured.universal_upper <= report.predicted_upper + 1e-6
        )
    return PerturbationCertification(report=report, measured=measured, consistent=consistent)
