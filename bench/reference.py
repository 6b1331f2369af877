"""Closed-form references the benchmark checks kweave's outputs against.

Nothing here imports kweave.  Pencil suprema use the S^{-1/2} G S^{-1/2}
route (one eigendecomposition of S, then the largest eigenvalue of the
whitened Gram operator), never the library's bisection, so a bug in
the library's pencil cannot hide in the reference.  Weavings are built
by fancy indexing of the stacked frames rather than the library's
one-hot assembly.
"""

from __future__ import annotations

import json

import numpy as np

#: Eigenvalues of S at or below this share of max(lambda_max, 1) count as 0.
NULL_TOL = 1e-10
#: G "leaks" into null(S) when ||G v|| exceeds this share of the scale.
LEAK_TOL = 1e-8
#: Partitions per block when assembling weaving operators.
BLOCK = 4096


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def pencil_sup(s_stack: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sup{a >= 0 : S_i - a*G PSD} for each S_i of a (p, d, d) stack.

    0 where G acts on null(S_i); inf where G vanishes on range(S_i).
    """
    w, v = np.linalg.eigh(_herm(np.asarray(s_stack, dtype=np.complex128)))
    scale = np.maximum(w[:, -1], 1.0)
    keep = w > NULL_TOL * scale[:, None]
    col_norms = np.linalg.norm(g @ v, axis=1)
    leak = np.where(keep, 0.0, col_norms).max(axis=1) > LEAK_TOL * scale
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    whiten = (v * inv_sqrt[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    lam = np.linalg.eigvalsh(_herm(whiten @ g @ whiten))[:, -1]
    out = np.where(lam > NULL_TOL, 1.0 / np.where(lam > NULL_TOL, lam, 1.0), np.inf)
    out[leak | ~keep.any(axis=1)] = 0.0
    return out


def frame_operator(f: np.ndarray) -> np.ndarray:
    return f @ f.conj().T


def spectrum(s: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(_herm(s))


def partition_digits(m: int, n: int) -> np.ndarray:
    """All m^n partitions, column 1 varying slowest (kweave's order)."""
    idx = np.arange(m ** n)
    return np.stack([(idx // m ** (n - 1 - j)) % m for j in range(n)], axis=1)


def digit_string(row, m: int) -> str:
    sep = "" if m <= 10 else "-"
    return sep.join(str(int(x)) for x in row)


def weaving_operators(frames: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """(p, d, d) frame operators of the weavings picked by ``digits``."""
    n = frames.shape[2]
    w = frames[digits, :, np.arange(n)]          # (p, n, d): column j of each weaving
    w = np.swapaxes(w, 1, 2)                     # (p, d, n)
    return w @ np.conj(np.swapaxes(w, 1, 2))


def weaving_table(frames: np.ndarray, k: np.ndarray, digits: np.ndarray):
    """(lowers, uppers) of every weaving picked by ``digits``."""
    g = k @ k.conj().T
    lowers = np.empty(digits.shape[0])
    uppers = np.empty(digits.shape[0])
    for start in range(0, digits.shape[0], BLOCK):
        s = weaving_operators(frames, digits[start:start + BLOCK])
        lowers[start:start + BLOCK] = pencil_sup(s, g)
        uppers[start:start + BLOCK] = np.maximum(np.linalg.eigvalsh(_herm(s))[:, -1], 0.0)
    return lowers, uppers


def douglas_lambda_sq(l1: np.ndarray, l2: np.ndarray) -> float:
    """inf{mu : L1 L1^* <= mu L2 L2^*}; inf when range(L1) leaves range(L2)."""
    sup = pencil_sup(frame_operator(l2)[None], frame_operator(l1))[0]
    return 1.0 / sup if sup > 0 else float("inf")


def numerical_rank(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > max(a.shape) * np.finfo(float).eps * s[0])) if s.size else 0


# -- reading kweave's JSON formats with the benchmark's own parser ---------

def read_matrix(path) -> np.ndarray:
    """A frame (d x n) or operator (d x d) file as a complex matrix."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "vectors" in payload:
        cols = [[complex(re, im) for re, im in col] for col in payload["vectors"]]
        return np.array(cols, dtype=np.complex128).T.reshape(payload["dim"], payload["count"])
    return np.array([[complex(re, im) for re, im in row] for row in payload["rows"]],
                    dtype=np.complex128)


def vector_from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
