"""K-frame verification and range-factorization checks.

The central computation is the optimal lower K-frame bound

    A_opt = sup{ A >= 0 : S - A * KK^* is positive semidefinite },

where S is a frame operator.  KK^* is singular whenever K is not
surjective, which rules out generalized eigensolvers; instead A_opt is
found by bisecting A against a tolerance-relaxed PSD test.  Because
lambda_min(S - A*G) is nonincreasing in A for PSD G, feasibility is
monotone and the bisection returns a two-sided certificate: the
returned A is feasible, and A*(1 + 1e-6) is infeasible whenever
A > 0.

The same machinery runs either on a single operator or on a stack of
thousands (the weaving module certifies every partition in one batched
sweep), through one shared routine so both paths agree exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NearSingularWarning, NotSquare, ShapeMismatch, ZeroK
from .frames import Frame, frame_operator

#: The certificate tolerance: S - A*G counts as PSD when
#: lambda_min >= -PSD_TOL_SCALE * (1 + lambda_max(S)).
PSD_TOL_SCALE = 1e-9
#: The bisection itself tests feasibility at a much tighter noise
#: floor, just above eigensolver backward error.  Bisecting at the
#: certificate tolerance would overshoot the exact supremum by about
#: PSD_TOL_SCALE * (1 + lambda_max) / slope, which for K = identity
#: is a relative error of 1e-9 * (1 + lambda_max) / lambda_min — far
#: worse than the 1e-8 relative accuracy the K = identity
#: specialization is held to.  The noise floor keeps the returned A
#: within ~1e-12 relative of the exact supremum while every returned
#: value still clears the (looser) certificate test by construction.
NOISE_FLOOR_SCALE = 1e-13
#: Bisection stops when the bracket's relative width drops below this.
BISECT_REL_WIDTH = 1e-9
BISECT_MAX_ITER = 200
#: Relative step used by the infeasibility half of the certificate.
CERTIFICATE_STEP = 1e-6
#: Warn when sigma_min_pos(K) < NEAR_SINGULAR_REL * sigma_max(K).
NEAR_SINGULAR_REL = 1e-6


class KOperator:
    """A d x d operator K with cached gram = KK^*, rank, sigma_min_pos.

    The caches are computed once at construction and never mutated, so
    instances are safe to share across threads.  A numerically zero K
    is representable (rank 0) but every bound computation refuses it.
    """

    __slots__ = ("matrix", "gram", "rank", "sigma_min_pos")

    def __init__(self, matrix, *, warn_near_singular: bool = True) -> None:
        a = linalg.as_complex_matrix(matrix, "K")
        if a.shape[0] != a.shape[1]:
            raise NotSquare(f"K must be square, got shape {a.shape}")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        gram = a @ a.conj().T
        gram.setflags(write=False)
        s = np.linalg.svd(a, compute_uv=False)
        keep = s > linalg._rank_cutoff(s, a.shape)
        rank = int(np.count_nonzero(keep))
        sigma_min_pos = float(s[keep][-1]) if rank else 0.0
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "sigma_min_pos", sigma_min_pos)
        if warn_near_singular and 0 < rank and sigma_min_pos < NEAR_SINGULAR_REL * float(s[0]):
            warnings.warn(
                f"K is nearly rank-deficient (sigma_min_pos={sigma_min_pos:.3e}, "
                f"sigma_max={float(s[0]):.3e}); lower bounds may be unstable",
                NearSingularWarning,
                stacklevel=2,
            )

    def __setattr__(self, name, value):
        raise AttributeError("KOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"KOperator(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class KFrameReport:
    """Verdict of an is-this-a-K-frame check at a given threshold."""

    is_kframe: bool
    lower: float
    upper: float
    witness: np.ndarray | None


@dataclass(frozen=True, eq=False)
class DouglasReport:
    """Range inclusion R(L1) subseteq R(L2) with the minimal factor.

    ``range_included`` comes from a rank test on [L2 | L1] against L2.
    When included, ``factor_c`` is the minimal factor C = L2^+ L1, so
    L2 @ factor_c = L1, and ``factor_norm_sq`` is ||C||^2.  By Douglas'
    lemma ||C||^2 is exactly the least mu with L1 L1^* <= mu L2 L2^*,
    so ``lambda_sq`` is that same number.  When the range is not
    included no finite mu exists: ``lambda_sq`` and ``factor_norm_sq``
    are math.inf and ``factor_c`` is None.
    """

    range_included: bool
    lambda_sq: float
    factor_c: np.ndarray | None
    factor_norm_sq: float


def pencil_lower_bounds(
    s_stack: np.ndarray,
    gram: np.ndarray,
    gram_min_pos: float,
    *,
    lam_max: np.ndarray | None = None,
) -> np.ndarray:
    """sup{a >= 0 : S_i - a*gram PSD} for every S_i in a (p, d, d) stack.

    ``gram_min_pos`` must be the smallest positive eigenvalue of
    ``gram``; it fixes the provably infeasible end of the initial
    bracket [0, lambda_max(S_i)/gram_min_pos + 1].  The bracket is
    still verified (with a doubling fallback) before bisecting, so the
    returned values always satisfy the two-sided certificate.  Callers
    that already know lambda_max(S_i) can pass it to skip one sweep.
    """
    s_stack = np.asarray(s_stack, dtype=np.complex128)
    if s_stack.ndim != 3:
        raise ValueError("expected a (p, d, d) stack")
    if gram_min_pos <= 0.0:
        raise ZeroK("gram has no positive eigenvalue above the rank threshold")
    p = s_stack.shape[0]
    if p == 0:
        return np.empty(0)
    if lam_max is None:
        lam_max = np.linalg.eigvalsh(s_stack)[:, -1]
    lam_max = np.maximum(np.asarray(lam_max, dtype=np.float64), 0.0)
    eps = NOISE_FLOOR_SCALE * (1.0 + lam_max)
    lo = np.zeros(p)
    hi = lam_max / gram_min_pos + 1.0
    for _ in range(64):
        w = np.linalg.eigvalsh(s_stack - hi[:, None, None] * gram)[:, 0]
        still_feasible = w >= -eps
        if not still_feasible.any():
            break
        hi[still_feasible] *= 2.0
    else:
        raise RuntimeError("could not bracket the pencil supremum (gram ~ 0?)")
    # Rows whose bound is indistinguishable from 0 stop refining at the
    # floor; lo is already exact there and extra sweeps would be waste.
    floor = 1e-15 * (1.0 + lam_max)
    for _ in range(BISECT_MAX_ITER):
        active = (hi - lo > BISECT_REL_WIDTH * hi) & (hi > floor)
        if not active.any():
            break
        mid = 0.5 * (lo[active] + hi[active])
        w = np.linalg.eigvalsh(s_stack[active] - mid[:, None, None] * gram)[:, 0]
        feasible = w >= -eps[active]
        lo[active] = np.where(feasible, mid, lo[active])
        hi[active] = np.where(feasible, hi[active], mid)
    # A supremum at or below the noise tolerance only "held" by eating
    # the feasibility slack; the honest answer there is exactly 0.
    lo[lo <= eps] = 0.0
    return lo


def passes_threshold(lower, threshold):
    """The pass rule for a (stack of) lower bound(s): lower >= threshold."""
    return lower >= threshold


def _check_pair(frame: Frame, k: KOperator) -> None:
    if frame.dim != k.dim:
        raise ShapeMismatch(f"frame dim {frame.dim} != operator dim {k.dim}")
    if k.rank == 0:
        raise ZeroK("K is numerically zero; every Bessel family satisfies the "
                    "lower inequality vacuously, refusing to certify")


def kframe_lower_bound(frame: Frame, k: KOperator) -> float:
    """Optimal A with A*||K^* f||^2 <= sum_k |<f, f_k>|^2 for all f."""
    _check_pair(frame, k)
    s = frame_operator(frame)
    return float(pencil_lower_bounds(s[None, :, :], k.gram, k.sigma_min_pos ** 2)[0])


def is_kframe(frame: Frame, k: KOperator, threshold: float) -> KFrameReport:
    """Check the lower K-frame inequality at a caller-chosen threshold.

    On failure the witness is a unit eigenvector for the most negative
    eigenvalue of S - threshold*KK^* (first in eigensolver order on
    ties); it satisfies <S f, f> < threshold * ||K^* f||^2.
    """
    lower = kframe_lower_bound(frame, k)
    s = frame_operator(frame)
    upper = linalg.spectral_bounds(s).lambda_max
    ok = passes_threshold(lower, threshold)
    witness = None
    if not ok:
        _, vecs = np.linalg.eigh(linalg.hermitian_part(s - threshold * k.gram))
        w = vecs[:, 0]
        witness = w / np.linalg.norm(w)
    return KFrameReport(is_kframe=ok, lower=lower, upper=max(0.0, upper), witness=witness)


def douglas_check(l1, l2) -> DouglasReport:
    """Decide R(L1) subseteq R(L2) and produce the minimal factor.

    See :class:`DouglasReport` for what each field certifies.
    """
    a1 = linalg.as_complex_matrix(l1, "L1")
    a2 = linalg.as_complex_matrix(l2, "L2")
    if a1.shape[0] != a2.shape[0]:
        raise ShapeMismatch(
            f"L1 and L2 must share their row dimension, got {a1.shape} and {a2.shape}"
        )
    included = linalg.numerical_rank(np.concatenate([a2, a1], axis=1)) == linalg.numerical_rank(a2)
    if not included:
        return DouglasReport(False, math.inf, None, math.inf)
    c = linalg.pseudo_inverse(a2) @ a1
    lambda_sq = linalg.operator_norm(c) ** 2
    return DouglasReport(True, lambda_sq, c, lambda_sq)
