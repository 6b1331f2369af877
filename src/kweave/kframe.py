"""K-frame verification and range-factorization checks.

The central computation is the optimal lower K-frame bound

    A_opt = sup{ A >= 0 : S - A * KK^* is positive semidefinite },

where S is a frame operator.  By Douglas' factorization it has a
closed form: A_opt = 1 / lambda_max(K^* S^+ K) when R(K) is contained
in R(S), and 0 otherwise.  The bound is computed that way, through
one linear solve with S when S is far from singular and through its
eigendecomposition otherwise, and then verified: a row with
lambda_min(S - A*KK^*) < -NOISE_FLOOR_SCALE * lambda_max(S) is set to
A = 0, which is always feasible.  A shifted Cholesky factorization
proves that most rows pass, so only the rest need an eigensolver (see
:func:`proved_psd`).  The test is relative to S alone and
just above eigensolver noise, so it catches every row where R(K) leaks
into the null space of S by more than about sqrt(NOISE_FLOOR_SCALE)
relative, at any scale, and every returned A also passes the looser
certificate test lambda_min(S - A*KK^*) >= -PSD_TOL_SCALE *
(1 + lambda_max(S)).  Rounding in the closed form grows with the
condition number of S, so a row whose S is too ill-conditioned to pass
the check (seen from about 1e10 on) reports 0 rather than an
unverified bound.  On well-conditioned rows
A*(1 + CERTIFICATE_STEP) fails the certificate test, but that side is
not promised on ill-conditioned ones.  The same factorization at
floor 0 proves A_opt >= a for a given level a without computing A_opt,
which lets the weaving module skip the closed form of weavings that
cannot decide its verdict, and a factorization of level*I - S proves
lambda_max(S) <= level without an eigensolver (:func:`proved_below`).

The same routine runs either on a single operator or on a stack of
thousands (the weaving module certifies a chunk of partitions in one
batched call), so both paths agree exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
#: A row of the pencil takes the solve route when lambda_min(S) >
#: SPANNING_SCALE * lambda_max(S).  That is five orders of magnitude
#: above NOISE_FLOOR_SCALE: no eigenvalue of such a row is near the
#: floor, so S^{-1} = S^+ and both routes compute K^* S^+ K.  The rows
#: are nonsingular by a relative margin of 1e-8, so the solve cannot
#: meet a singular pivot.
SPANNING_SCALE = 1e-8
#: On well-conditioned rows A*(1 + CERTIFICATE_STEP) fails the PSD test;
#: the library does not promise that on ill-conditioned rows.
CERTIFICATE_STEP = 1e-6
#: Warn when sigma_min_pos(K) < NEAR_SINGULAR_REL * sigma_max(K).
NEAR_SINGULAR_REL = 1e-6
#: The default threshold, :func:`resolve_threshold`, is WOVEN_THRESHOLD_SCALE *
#: (1 + upper bound) for a single frame and for a family's universal bounds alike.
WOVEN_THRESHOLD_SCALE = 1e-8
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
_TINY = float(np.finfo(np.float64).tiny)
#: The least lambda_max(K^* S^+ K) whose reciprocal, the lower bound, is finite.
_TOP_MIN = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))


class KOperator:
    """A d x d operator K with cached gram = KK^*, rank, sigma_min_pos.

    The caches are computed once at construction and never mutated, so
    instances are safe to share across threads.  A numerically zero K
    raises ZeroK, since every Bessel family satisfies the lower K-frame
    inequality against it vacuously.  A K with sigma_max(K)^2 below the
    smallest normal binary64 raises InvalidInput: its KK^* would
    underflow, and the bounds computed from it would be wrong.  A
    nearly rank-deficient K warns with NearSingularWarning; filter it
    with :func:`warnings.catch_warnings` where that is expected.
    """

    __slots__ = ("matrix", "gram", "rank", "sigma_min_pos")

    def __init__(self, matrix) -> None:
        a = linalg.as_complex_matrix(matrix, "K")
        if a.shape[0] != a.shape[1]:
            raise NotSquare(f"K must be square, got shape {a.shape}")
        s = np.linalg.svd(a, compute_uv=False)
        rank = int(np.count_nonzero(s > linalg._rank_cutoff(s, a.shape)))
        if rank == 0:
            raise ZeroK("K is numerically zero; refusing to certify against it")
        sigma_max = float(s[0])
        if sigma_max * sigma_max < _TINY:
            raise InvalidInput("KK^* underflows binary64")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = a @ a.conj().T
        if not np.isfinite(gram).all():
            raise InvalidInput("KK^* overflows binary64")
        gram.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "sigma_min_pos", float(s[rank - 1]))
        if self.sigma_min_pos < NEAR_SINGULAR_REL * sigma_max:
            warnings.warn(
                f"K is nearly rank-deficient (sigma_min_pos={self.sigma_min_pos:.3e}, "
                f"sigma_max={sigma_max:.3e}); lower bounds may be unstable",
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

    One eigvalsh(S) per row, :func:`spectrum_ends`, gives lambda_max(S),
    clamped at 0, which is the upper bound and sets the floor
    NOISE_FLOOR_SCALE * lambda_max(S), and lambda_min(S), which picks the
    row's route to the closed form A = 1 / lambda_max(K^* S^+ K):

    - lambda_min(S) > SPANNING_SCALE * lambda_max(S): one linear solve
      Y = S^{-1} K and A = 1 / lambda_max(K^* Y);
    - every other row: S = V Lambda V^* by eigh, eigenvalues at or
      below the floor count as null, and A = 1 / lambda_max(M^* M) with
      M = Lambda_+^{-1/2} V^* K.

    No eigenvalue of a solve row is near the floor, so both routes
    compute the same quantity; one eigvalsh call takes the top
    eigenvalues of both.  Each A > 0 is then checked: a row keeps A iff
    lambda_min(S - A*KK^*) >= -floor, and otherwise gets 0, which is
    always feasible.  So every row passes the PSD_TOL_SCALE certificate
    test; that A*(1 + CERTIFICATE_STEP) fails it is not promised on
    ill-conditioned rows.  A shifted Cholesky factorization proves the
    check for most rows (see :func:`proved_psd`); only the rest take
    eigvalsh(S - A*KK^*).

    A stack with a row whose bound 1/top overflows binary64 (0 < top
    < 1/max) raises InvalidInput before the check multiplies it by KK^*.

    Every step treats each row on its own, so a row gets bitwise the
    same bounds in any stack.  At most four batched eigensolver calls,
    whatever the stack holds.  The bounds can differ in the last bits
    from those of a single eigendecomposition route.
    """
    s_stack = np.ascontiguousarray(s_stack, dtype=np.complex128)
    if s_stack.ndim != 3:
        raise ValueError("expected a (p, d, d) stack")
    lam_min, lam_max = spectrum_ends(s_stack)
    floor = NOISE_FLOOR_SCALE * lam_max
    spanning = lam_min > SPANNING_SCALE * lam_max
    top = np.linalg.eigvalsh(_top_gram(s_stack, spanning, floor, k))[:, -1]
    if ((top > 0.0) & (top < _TOP_MIN)).any():
        raise InvalidInput("the lower K-frame bound 1/lambda_max(K^* S^+ K) overflows binary64")
    lower = np.where(top > 0.0, 1.0 / np.where(top > 0.0, top, 1.0), 0.0)
    lower[_infeasible_rows(s_stack, lower, floor, k)] = 0.0
    return lower, lam_max


def spectrum_ends(s_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min(S) and the upper bound lambda_max(S), clamped at 0, from one eigvalsh(S)."""
    eigs = np.linalg.eigvalsh(s_stack)
    return eigs[:, 0], np.maximum(eigs[:, -1], 0.0)


def _top_gram(s_stack: np.ndarray, spanning: np.ndarray, floor: np.ndarray,
              k: KOperator) -> np.ndarray:
    """K^* S^+ K for each row, as K^* S^{-1} K on the solve route, M^* M on the other."""
    if spanning.all():
        return _solve_gram(s_stack, k)
    if not spanning.any():
        return _eigh_gram(s_stack, floor, k)
    gram = np.empty_like(s_stack)
    gram[spanning] = _solve_gram(s_stack[spanning], k)
    gram[~spanning] = _eigh_gram(s_stack[~spanning], floor[~spanning], k)
    return gram


def _solve_gram(s_stack: np.ndarray, k: KOperator) -> np.ndarray:
    """K^* S^{-1} K from one batched solve Y = S^{-1} K."""
    return k.matrix.conj().T @ np.linalg.solve(s_stack, k.matrix)


def _eigh_gram(s_stack: np.ndarray, floor: np.ndarray, k: KOperator) -> np.ndarray:
    """M^* M with M = Lambda_+^{-1/2} V^* K, S = V Lambda V^*."""
    w, v = np.linalg.eigh(s_stack)
    keep = w > floor[:, None]
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    m = np.conj(np.swapaxes(v, 1, 2)) @ k.matrix
    m *= inv_sqrt[:, :, None]
    return np.conj(np.swapaxes(m, 1, 2)) @ m


def _infeasible_rows(s_stack: np.ndarray, lower: np.ndarray, floor: np.ndarray,
                     k: KOperator) -> np.ndarray:
    """Rows with lower > 0 and lambda_min(S - lower*KK^*) < -floor.

    A row is first tried by :func:`proved_psd`.  Only rows it does not
    prove take the direct test eigvalsh(S - A*KK^*)[:, 0] >= -floor.
    """
    unproved = lower > 0.0
    if unproved.all():
        unproved = ~proved_psd(s_stack, lower, floor, k)
    else:
        unproved[unproved] = ~proved_psd(s_stack[unproved], lower[unproved], floor[unproved], k)
    rows = np.flatnonzero(unproved)
    infeasible = np.zeros_like(unproved)
    if rows.size:
        slack = np.linalg.eigvalsh(s_stack[rows] - lower[rows, None, None] * k.gram)[:, 0]
        infeasible[rows[slack < -floor[rows]]] = True
    return infeasible


def proved_psd(s_stack: np.ndarray, a: np.ndarray, floor: np.ndarray,
               k: KOperator) -> np.ndarray:
    """Rows where a shifted Cholesky factorization proves lambda_min(S - a*KK^*) >= -floor.

    The factorization runs on T = S - a*KK^* + (floor - c)*I, formed in
    binary64, and its success proves the inequality for the binary64 S
    and KK^* (as LAPACK reads them: the lower triangle, real diagonal).
    A row whose T has a nonpositive diagonal entry fails for certain, so
    it is not factored; that includes every row whose c, or a*KK^*,
    overflows.  At a positive floor a row with c >= floor/2 is not
    factored either: there ``a`` is the pencil's own bound, on the edge
    of feasibility, and the shift floor - c would leave the factorization
    too little room.  At a floor of 0 or below every other row is
    factored: the caller asks about a level below the row's bound, and
    a negative floor asks for the margin -floor.  A failure proves nothing.

    X = S - a*KK^* rounds a*g_ij by at most u*a*|g_ij| (u = eps/2), an
    error of 2-norm at most u*a*||KK^*||_F, and the difference by at most
    u*|x_ij|; x_ii rounds s_ii - a*g_ii <= |s_ii|.  So c is
    :func:`_rump_proved`'s with extra = a*||KK^*||_F.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = s_stack - a[:, None, None] * k.gram
        return _rump_proved(t, s_stack, floor, a * np.linalg.norm(k.gram))


def proved_below(s_stack: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Rows where a shifted Cholesky factorization proves lambda_max(S) <= level.

    The factorization runs on T = level*I - S - c*I, formed as -S with
    level - c added to its diagonal, for the binary64 S as LAPACK reads
    it.  Negation is exact and -s_ii <= |s_ii|, so :func:`_rump_proved`
    applies with X = -S, floor = level and extra = 0.  Checked for this
    T: rounding level - c costs u*level (a factored row has c < level/2)
    and adding it to -s_ii u*|t_ii|, within ||F||_2 <= theta*||R||_F^2 +
    2u*level; and tr(T) <= (1 + u) * (sum_i |s_ii| + d*level).
    """
    return _rump_proved(-s_stack, s_stack, level, np.zeros_like(level))


def _rump_proved(x: np.ndarray, s_stack: np.ndarray, floor: np.ndarray,
                 extra: np.ndarray) -> np.ndarray:
    """Rows of a stack X where Cholesky of X + (floor - c)*I proves lambda_min(X0) >= -floor.

    ``x``, overwritten, is the binary64 X of the caller's X0: |X - X0| <=
    u*|X| + E entrywise, ||E||_2 <= u*extra, and each x_ii rounds a number
    at most |s_ii|, whose sum over i is trace.  The shift c follows Rump
    ("Verification of positive definiteness", BIT 46, 2006) for complex
    entries.  With u = eps/2 and gamma_n = n*u / (1 - n*u):

    - If Cholesky runs to completion on T, R^*R = T + dT with
      |dT| <= theta' |R|^T |R| entrywise and R nonsingular (Higham,
      Accuracy and Stability of Numerical Algorithms, Thm 10.3).  In
      complex arithmetic the real or imaginary part of an entry of
      R^*R is a sum of at most 2d - 1 real products and one entry of
      T, so in any summation order it carries at most 2d + 1 roundings,
      and theta' = sqrt(2) * gamma_{2d+1} bounds the modulus.
    - Forming X and the diagonal shift rounds by at most 2u*|t_ij| with
      |T| <= (1 + theta') |R|^T |R|, plus E, plus 2u*|floor - c| (for
      floor - c itself, and for x_ii beside it).  So R^*R = X0 +
      (floor - c)*I + F with ||F||_2 <= theta ||R||_F^2 + u*extra
      + 2u*|floor - c|, theta = sqrt(2) * gamma_{2d+4}.
    - ||R||_F^2 <= tr(T) / (1 - theta), and tr(T) <= (1 + u) *
      (trace + d*|floor|): rounding is monotone.

    Hence lambda_min(X0) >= -floor whenever

        c = theta / (1 - 3*theta) * (trace + d*|floor|)
            + 2u * (extra + |floor|) + 2d(d + 3) * eta,

    raised by the factor 1 + 4u at a floor of 0 or below, where
    |floor - c| = |floor| + c (at a positive floor only rows with
    c < floor/2 are factored).  The denominator 1 - 3*theta leaves a
    relative margin above 2*theta >= (5.6d + 11)*u for the factor 1 + u
    and the at most d + 13 roundings in evaluating c; 2u on ``extra``
    covers reading KK^* from its lower triangle and rounding its norm;
    the last term, with eta the smallest subnormal, bounds underflow.
    """
    d = x.shape[1]
    n = 2 * d + 4
    theta = math.sqrt(2.0) * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    margin = np.abs(floor)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.abs(_diagonals(s_stack).real).sum(axis=1)
        c = (theta / (1.0 - 3.0 * theta) * (trace + d * margin)
             + 2.0 * _UNIT_ROUNDOFF * (extra + margin)
             + 2.0 * d * (d + 3) * _SMALLEST_SUBNORMAL)
        c = np.where(floor > 0.0, c, c * (1.0 + 4.0 * _UNIT_ROUNDOFF))
        diagonals = _diagonals(x)
        diagonals += (floor - c)[:, None]
    tried = ((floor <= 0.0) | (c < 0.5 * floor)) & (diagonals.real > 0.0).all(axis=1)
    proved = np.zeros(len(x), dtype=bool)
    proved[tried] = _cholesky_succeeds(x if tried.all() else x[tried])
    return proved


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """The (q, d) diagonals of a C-contiguous (q, d, d) stack, as a writable view."""
    q, d, _ = stack.shape
    return stack.reshape(q, d * d)[:, ::d + 1]


def _cholesky_succeeds(t: np.ndarray) -> np.ndarray:
    """Which rows of a (q, d, d) stack LAPACK's Cholesky factorization completes on.

    numpy.linalg.cholesky raises for the whole stack when one row fails;
    the gufunc it wraps factors each row on its own and fills a failing
    row's factor with NaN.  So one call decides every row, however many
    fail, and a row's outcome is its own factorization's.
    """
    with np.errstate(all="ignore"):
        factors = _umath_linalg.cholesky_lo(t, signature="D->D")
    return ~np.isnan(factors[:, 0, 0].real)


def require_threshold(threshold: float) -> float:
    """Return ``threshold`` if it is finite and > 0, else raise InvalidInput.

    At 0 or below every Bessel family passes, so a verdict would certify nothing.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise InvalidInput(f"threshold must be finite and > 0, got {threshold!r}")
    return threshold


def resolve_threshold(threshold: float | None, upper: float) -> float:
    """``threshold``, or the default WOVEN_THRESHOLD_SCALE * (1 + upper) when it is None."""
    return WOVEN_THRESHOLD_SCALE * (1.0 + upper) if threshold is None else threshold


def passes_threshold(lower, threshold):
    """The pass rule for a (stack of) lower bound(s): lower >= threshold."""
    return lower >= require_threshold(threshold)


def _single_pencil(frame: Frame, k: KOperator) -> tuple[np.ndarray, float, float]:
    """S with its lower K-frame bound and lambda_max(S), from one pencil row.

    Raises InvalidInput when a nonzero frame's S underflows to lambda_max(S) = 0.
    """
    if frame.dim != k.dim:
        raise ShapeMismatch(f"frame dim {frame.dim} != operator dim {k.dim}")
    s = frame_operator(frame)
    lower, lam_max = pencil_lower_bounds(s[None, :, :], k)
    if lam_max[0] == 0.0 and frame.matrix.any():
        raise InvalidInput("the frame operator S = FF* underflows binary64")
    return s, float(lower[0]), float(lam_max[0])


def kframe_lower_bound(frame: Frame, k: KOperator) -> float:
    """Optimal A with A*||K^* f||^2 <= sum_k |<f, f_k>|^2 for all f."""
    return _single_pencil(frame, k)[1]


def _witness_pencil(s: np.ndarray, threshold: float, k: KOperator) -> np.ndarray:
    """S - threshold*KK^*, or S/threshold - KK^* (same eigenvectors) where that overflows.

    threshold*KK^* overflows only for threshold > 1, so S/threshold does not.
    """
    with np.errstate(over="ignore"):
        pencil = s - threshold * k.gram
    return pencil if np.isfinite(pencil).all() else s / threshold - k.gram


def is_kframe(frame: Frame, k: KOperator, threshold: float | None = None) -> KFrameReport:
    """Check the lower K-frame inequality at a threshold.

    ``lower`` and ``upper`` = lambda_max(S) come from one
    :func:`pencil_lower_bounds` row, so they equal :func:`kframe_lower_bound`
    and ``frames.frame_bounds``' upper exactly.  The threshold defaults
    to :func:`resolve_threshold` of ``upper``.  On failure the witness is the
    unit eigenvector eigh gives for the most negative eigenvalue of
    S - threshold*KK^* (first in eigensolver order on ties), taken from
    S/threshold - KK^* when threshold*KK^* overflows; it satisfies
    <S f, f> < threshold * ||K^* f||^2.
    """
    s, lower, upper = _single_pencil(frame, k)
    threshold = resolve_threshold(threshold, upper)
    ok = passes_threshold(lower, threshold)
    witness = None if ok else np.linalg.eigh(_witness_pencil(s, threshold, k))[1][:, 0]
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
    with np.errstate(over="ignore", invalid="ignore"):
        c = linalg.pseudo_inverse(a2) @ a1
    if not np.isfinite(c).all():
        raise InvalidInput("the minimal factor C = L2^+ L1 overflows binary64")
    try:
        lambda_sq = linalg.operator_norm(c) ** 2
    except OverflowError:
        raise InvalidInput("||C||^2 of the minimal factor C = L2^+ L1 overflows binary64") from None
    return DouglasReport(True, lambda_sq, c, lambda_sq)
