"""Dense complex linear-algebra primitives.

Hermitian matrices the library forms itself (frame operators, pencil
rows) go straight to LAPACK, which reads their lower triangle; only
:func:`spectral_bounds`, whose input comes from outside, checks and
symmetrizes.  Pseudo-inverses and rank tests share the numerical-rank
cutoff ``sigma > max(rows, cols) * eps * sigma_max``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import NamedTuple

import numpy as np

from .errors import NotHermitian, NotSquare, ZeroOperator

#: Relative tolerance for accepting a matrix as Hermitian.
EPS_HERMITIAN = 1e-9


class SpectralSummary(NamedTuple):
    """Extremal eigenvalues of a Hermitian matrix."""

    lambda_min: float
    lambda_max: float


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and normalize input to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def hermitian_part(h: np.ndarray) -> np.ndarray:
    """(H + H*) / 2 — the symmetrization :func:`spectral_bounds` applies to outside input."""
    return 0.5 * (h + h.conj().T)


def spectral_bounds(h) -> SpectralSummary:
    """Smallest and largest eigenvalues of a (near-)Hermitian matrix.

    The input must be square and Hermitian up to ``EPS_HERMITIAN``
    relative to its largest absolute entry; it is symmetrized before
    the eigensolve so roundoff-level asymmetry never reaches LAPACK.
    """
    a = as_complex_matrix(h, "H")
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + (np.abs(a).max() if a.size else 0.0)
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > EPS_HERMITIAN * scale:
        raise NotHermitian(
            f"symmetry deviation {dev:.3e} exceeds tolerance {EPS_HERMITIAN * scale:.3e}"
        )
    w = np.linalg.eigvalsh(hermitian_part(a))
    return SpectralSummary(float(w[0]), float(w[-1]))


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (0.0 for an empty matrix)."""
    a = as_complex_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _rank_cutoff(sigmas: np.ndarray, shape: tuple[int, int]) -> float:
    if sigmas.size == 0:
        return 0.0
    return max(shape) * np.finfo(np.float64).eps * float(sigmas[0])


def numerical_rank(m) -> int:
    """Count of singular values above the rank cutoff."""
    a = as_complex_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > _rank_cutoff(s, a.shape)))


def smallest_positive_singular(m) -> float:
    """Smallest singular value strictly above the rank cutoff.

    Raises ZeroOperator when every singular value sits below the
    cutoff, i.e. the matrix is numerically zero.
    """
    a = as_complex_matrix(m)
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.empty(0)
    keep = s > _rank_cutoff(s, a.shape) if a.size else np.empty(0, dtype=bool)
    if not np.any(keep):
        raise ZeroOperator("all singular values lie below the rank threshold")
    return float(s[keep][-1])


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff.

    Singular values at or below the cutoff are treated as exact zeros,
    so the zero matrix maps to the zero matrix.
    """
    a = as_complex_matrix(m)
    if a.size == 0:
        return a.conj().T.copy()
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = _rank_cutoff(s, a.shape)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


@functools.cache
def _openblas_threads():
    """(set, get) for the thread count of the OpenBLAS in numpy's Linux or
    Windows wheel, or no-ops when numpy uses another BLAS."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads"):
            if hasattr(lib, name.format("set")):
                return getattr(lib, name.format("set")), getattr(lib, name.format("get"))
    return (lambda n: None), (lambda: None)


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with OpenBLAS on one thread, then restore the count.

    At d in the tens its worker threads save little but spin ~0.1 s after
    each threaded call, keeping a second CPU busy; the worker processes
    of :mod:`kweave.weaving` parallelise instead.
    """
    set_threads, get_threads = _openblas_threads()
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
