"""Finite frames as matrices.

A frame for C^d is stored as a d x n complex matrix whose columns are
the frame vectors f_1 .. f_n.  Column order is significant — partition
digits in the weaving module index into it — and zero columns are
allowed (several of the bundled example families contain them).

The synthesis operator T maps coefficients c to sum_k c_k f_k, its
adjoint T* produces the analysis coefficients <f, f_k>, and the frame
operator S = T T* = sum_k f_k f_k* carries both classical frame bounds
as its extremal eigenvalues.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidInput, ShapeMismatch

#: lower < NOT_A_FRAME_REL * upper classifies a family as Bessel-only.
NOT_A_FRAME_REL = 1e-10


class BoundsPair(NamedTuple):
    """A (lower, upper) pair of frame-type bounds, both >= 0."""

    lower: float
    upper: float


class Frame:
    """An immutable d x n matrix of frame vectors (columns)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        a = linalg.as_complex_matrix(matrix, "frame matrix")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"frame needs dim >= 1 and count >= 1, got shape {a.shape}")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self) -> str:
        return f"Frame(dim={self.dim}, count={self.count})"


def require_same_shape(frames) -> tuple[int, int]:
    """Common (dim, count) of a nonempty family, or ShapeMismatch."""
    frames = list(frames)
    if not frames:
        raise ShapeMismatch("need at least one frame")
    shape = (frames[0].dim, frames[0].count)
    for i, f in enumerate(frames):
        if (f.dim, f.count) != shape:
            raise ShapeMismatch(
                f"frame {i + 1} has shape {(f.dim, f.count)}, expected {shape}"
            )
    return shape


def frame_operator(frame) -> np.ndarray:
    """S = W W* = sum_k f_k f_k*, a d x d Hermitian PSD matrix.

    ``frame`` is a Frame or a C-contiguous (b, d, n) stack of weaving
    matrices: one product on one layout gives a weaving the same S, bit
    for bit, either way.  Raises InvalidInput when S overflows binary64.
    """
    w = frame.matrix if isinstance(frame, Frame) else frame
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(w @ np.conj(np.swapaxes(w, -1, -2)))


def require_finite(s: np.ndarray) -> np.ndarray:
    """``s``, an S or a stack of S however summed, or InvalidInput when it overflowed."""
    if not np.isfinite(s).all():
        raise InvalidInput("the frame operator S = FF* overflows binary64")
    return s


def spectrum_ends(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min(S) and the upper bound lambda_max(S), clamped at 0, of an S or a stack of S."""
    eigs = np.linalg.eigvalsh(s)
    return eigs[..., 0], np.maximum(eigs[..., -1], 0.0)


def require_resolved(frame: Frame, upper: float) -> None:
    """Raise InvalidInput when a nonzero frame's S underflows to lambda_max(S) = 0."""
    if upper == 0.0 and frame.matrix.any():
        raise InvalidInput("the frame operator S = FF* underflows binary64")


def frame_bounds(frame: Frame) -> BoundsPair:
    """Optimal classical bounds: the extremal eigenvalues of S.

    Both come from :func:`spectrum_ends` of :func:`frame_operator`'s S,
    as in the K-frame pencil, so ``upper`` equals ``is_kframe``'s bit for
    bit.  A lower bound of 0 signals a Bessel family that is not a frame
    (the columns do not span C^d); tiny negative eigenvalues from
    roundoff are clamped to 0.  Raises InvalidInput when a nonzero
    frame's S underflows to lambda_max(S) = 0.
    """
    lam_min, upper = spectrum_ends(frame_operator(frame))
    bounds = BoundsPair(max(0.0, float(lam_min)), float(upper))
    require_resolved(frame, bounds.upper)
    return bounds


def is_frame(bounds: BoundsPair) -> bool:
    """Classify a BoundsPair: spanning frame vs Bessel-only."""
    return bounds.upper > 0.0 and bounds.lower >= NOT_A_FRAME_REL * bounds.upper
