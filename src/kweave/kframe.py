"""K-frame verification and range-factorization checks.

The central computation is the optimal lower K-frame bound

    A_opt = sup{ A >= 0 : S - A * KK^* is positive semidefinite },

where S is a frame operator.  By Douglas' factorization it has a
closed form: A_opt = 1 / lambda_max(K^* S^+ K) when R(K) is contained
in R(S), and 0 otherwise.  The bound is computed that way from one
eigendecomposition of S and then verified: a row with
lambda_min(S - A*KK^*) < -NOISE_FLOOR_SCALE * lambda_max(S) is set to
A = 0, which is always feasible.  That test is relative to S alone and
just above eigensolver noise, so it catches every row where R(K) leaks
into the null space of S by more than about sqrt(NOISE_FLOOR_SCALE)
relative, at any scale, and every returned A also passes the looser
certificate test lambda_min(S - A*KK^*) >= -PSD_TOL_SCALE *
(1 + lambda_max(S)).  Rounding in the closed form grows with the
condition number of S, so a row whose S is too ill-conditioned to pass
the check (seen from about 1e10 on) reports 0 rather than an
unverified bound.  On well-conditioned rows
A*(1 + CERTIFICATE_STEP) fails the certificate test, but that side is
not promised on ill-conditioned ones.

The same routine runs either on a single operator or on a stack of
thousands (the weaving module certifies every partition in one batched
call), so both paths agree exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NearSingularWarning, NotSquare, ShapeMismatch, ZeroK
from .frames import Frame, frame_operator

#: The certificate tolerance: S - A*G counts as PSD when
#: lambda_min >= -PSD_TOL_SCALE * (1 + lambda_max(S)).
PSD_TOL_SCALE = 1e-9
#: Eigenvalues of S at or below NOISE_FLOOR_SCALE * lambda_max(S) count
#: as null, and a bound whose PSD slack falls below minus that much is
#: set to 0: just above eigensolver backward error, and relative to S
#: alone so that the bound scales exactly with S and with K.
NOISE_FLOOR_SCALE = 1e-13
#: On well-conditioned rows A*(1 + CERTIFICATE_STEP) fails the PSD test;
#: the library does not promise that on ill-conditioned rows.
CERTIFICATE_STEP = 1e-6
#: Warn when sigma_min_pos(K) < NEAR_SINGULAR_REL * sigma_max(K).
NEAR_SINGULAR_REL = 1e-6
#: The default threshold is WOVEN_THRESHOLD_SCALE * (1 + upper bound),
#: for a single frame and for the universal bounds of a family alike.
WOVEN_THRESHOLD_SCALE = 1e-8


class KOperator:
    """A d x d operator K with cached gram = KK^*, rank, sigma_min_pos.

    The caches are computed once at construction and never mutated, so
    instances are safe to share across threads.  A numerically zero K
    is representable (rank 0) but every bound computation refuses it.
    A nearly rank-deficient K warns with NearSingularWarning; filter it with
    :func:`warnings.catch_warnings` where that is expected.
    """

    __slots__ = ("matrix", "gram", "rank", "sigma_min_pos")

    def __init__(self, matrix) -> None:
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
        if 0 < rank and sigma_min_pos < NEAR_SINGULAR_REL * float(s[0]):
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
    """Verdict of an is-this-a-K-frame check at ``threshold``."""

    is_kframe: bool
    lower: float
    upper: float
    threshold: float
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


def pencil_lower_bounds(s_stack: np.ndarray, k: KOperator) -> tuple[np.ndarray, np.ndarray]:
    """sup{a >= 0 : S_i - a*KK^* PSD} and lambda_max(S_i) for a (p, d, d) stack.

    Closed form A = 1 / lambda_max(M^* M) with M = Lambda_+^{-1/2} V^* K
    from S = V Lambda V^*, so M^* M = K^* S^+ K.  Each A is then checked:
    a row with lambda_min(S - A*KK^*) < -NOISE_FLOOR_SCALE * lambda_max(S)
    becomes 0, so every row passes the PSD_TOL_SCALE certificate test;
    that A*(1 + CERTIFICATE_STEP) fails it is not promised on
    ill-conditioned rows.  Three batched eigensolver calls, whatever the
    stack holds; lambda_max comes from the first, so callers need no
    sweep of their own.
    """
    s_stack = np.asarray(s_stack, dtype=np.complex128)
    if s_stack.ndim != 3:
        raise ValueError("expected a (p, d, d) stack")
    if k.rank == 0:
        raise ZeroK("K is numerically zero; the pencil supremum is unbounded")
    w, v = np.linalg.eigh(s_stack)
    lam_max = np.maximum(w[:, -1], 0.0)
    floor = NOISE_FLOOR_SCALE * lam_max
    keep = w > floor[:, None]
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    m = np.conj(np.swapaxes(v, 1, 2)) @ k.matrix
    m *= inv_sqrt[:, :, None]
    top = np.linalg.eigvalsh(np.conj(np.swapaxes(m, 1, 2)) @ m)[:, -1]
    lower = np.where(top > 0.0, 1.0 / np.where(top > 0.0, top, 1.0), 0.0)
    slack = np.linalg.eigvalsh(s_stack - lower[:, None, None] * k.gram)[:, 0]
    lower[slack < -floor] = 0.0
    return lower, lam_max


def require_threshold(threshold: float) -> float:
    """Return ``threshold`` if it is finite and > 0, else raise InvalidInput.

    At 0 or below every Bessel family passes, so a verdict would certify nothing.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise InvalidInput(f"threshold must be finite and > 0, got {threshold!r}")
    return threshold


def passes_threshold(lower, threshold):
    """The pass rule for a (stack of) lower bound(s): lower >= threshold."""
    return lower >= require_threshold(threshold)


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
    lower, _ = pencil_lower_bounds(s[None, :, :], k)
    return float(lower[0])


def is_kframe(frame: Frame, k: KOperator, threshold: float | None = None) -> KFrameReport:
    """Check the lower K-frame inequality at a threshold.

    ``lower`` and ``upper`` = lambda_max(S) come from one
    :func:`pencil_lower_bounds` call, so ``lower`` equals
    :func:`kframe_lower_bound` exactly.  The threshold defaults to
    WOVEN_THRESHOLD_SCALE * (1 + upper).  On failure the witness is a
    unit eigenvector for the most negative eigenvalue of
    S - threshold*KK^* (first in eigensolver order on ties); it
    satisfies <S f, f> < threshold * ||K^* f||^2.
    """
    _check_pair(frame, k)
    s = frame_operator(frame)
    lowers, lam_max = pencil_lower_bounds(s[None, :, :], k)
    lower, upper = float(lowers[0]), float(lam_max[0])
    if threshold is None:
        threshold = WOVEN_THRESHOLD_SCALE * (1.0 + upper)
    ok = passes_threshold(lower, threshold)
    witness = None
    if not ok:
        _, vecs = np.linalg.eigh(linalg.hermitian_part(s - threshold * k.gram))
        w = vecs[:, 0]
        witness = w / np.linalg.norm(w)
    return KFrameReport(is_kframe=ok, lower=lower, upper=upper, threshold=float(threshold),
                        witness=witness)


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
