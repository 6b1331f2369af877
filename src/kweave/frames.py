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
from .errors import DimensionMismatch, ShapeMismatch

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

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]

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


def frame_operator(frame: Frame) -> np.ndarray:
    """S = sum_k f_k f_k*, a d x d Hermitian PSD matrix."""
    t = frame.matrix
    return t @ t.conj().T


def frame_bounds(frame: Frame) -> BoundsPair:
    """Optimal classical bounds: the extremal eigenvalues of S.

    A lower bound of 0 signals a Bessel family that is not a frame
    (the columns do not span C^d); tiny negative eigenvalues from
    roundoff are clamped to 0.
    """
    lam = linalg.spectral_bounds(frame_operator(frame))
    return BoundsPair(max(0.0, lam.lambda_min), max(0.0, lam.lambda_max))


def is_frame(bounds: BoundsPair) -> bool:
    """Classify a BoundsPair: spanning frame vs Bessel-only."""
    return bounds.upper > 0.0 and bounds.lower >= NOT_A_FRAME_REL * bounds.upper


def analysis_coefficients(frame: Frame, f) -> np.ndarray:
    """The n coefficients <f, f_k> in column order (T* f)."""
    v = np.asarray(f, dtype=np.complex128).reshape(-1)
    if v.shape[0] != frame.dim:
        raise DimensionMismatch(f"vector has length {v.shape[0]}, frame dim is {frame.dim}")
    return frame.matrix.conj().T @ v


def synthesis(frame: Frame, coefficients) -> np.ndarray:
    """T c = sum_k c_k f_k."""
    c = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if c.shape[0] != frame.count:
        raise DimensionMismatch(
            f"got {c.shape[0]} coefficients, frame has {frame.count} vectors"
        )
    return frame.matrix @ c
