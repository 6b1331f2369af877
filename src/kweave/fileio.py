"""JSON interchange for frames, operators, and reports.

Complex entries are written as explicit [re, im] pairs — no
complex-literal ambiguity across ecosystems — and payloads are dumped
with sorted keys and fixed indentation so identical inputs produce
byte-identical files.  Python's float repr round-trips exactly, which
is what makes the load/save cycle bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import InvalidInput
from .frames import Frame

FRAME_FORMAT = "kweave-frame-v1"
OPERATOR_FORMAT = "kweave-op-v1"
REPORT_FORMAT = "kweave-report-v1"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_payload(v: np.ndarray) -> list[list[float]]:
    return [_pair(z) for z in np.asarray(v, dtype=np.complex128).reshape(-1)]


def matrix_payload(m: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(m, dtype=np.complex128)
    return [[_pair(z) for z in row] for row in a]


def finite_or_none(x: float | None) -> float | None:
    """JSON has no Infinity; map non-finite reals (and None) to null."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _complex_rows(rows: list, inner: int, what: str) -> np.ndarray:
    """``rows`` of ``inner`` [re, im] pairs each, as a (len(rows), inner) array.

    The pairs must hold JSON numbers: a string, null or object entry
    gives a non-numeric dtype and is refused rather than converted.
    """
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != inner:
            raise InvalidInput(f"{what} {i + 1}: expected {inner} entries")
    shape = (len(rows), inner, 2)
    try:
        a = np.array(rows)
    except ValueError:  # ragged: some entry is not a pair
        a = None
    if a is None or a.dtype.kind not in "biuf" or (len(rows) * inner and a.shape != shape):
        raise InvalidInput(f"malformed {what}s: every entry must be a [re, im] pair of numbers")
    # Viewing the (re, im) float pairs as complex keeps every bit, -0.0 too.
    return a.reshape(shape).astype(np.float64).view(np.complex128)[..., 0]


def frame_payload(frame: Frame) -> dict:
    return {
        "format_version": FRAME_FORMAT,
        "dim": frame.dim,
        "count": frame.count,
        "vectors": [vector_payload(frame.matrix[:, j]) for j in range(frame.count)],
    }


def frame_from_payload(payload: dict) -> Frame:
    if not isinstance(payload, dict):
        raise InvalidInput("frame file must contain a JSON object")
    if payload.get("format_version") != FRAME_FORMAT:
        raise InvalidInput(
            f"unsupported frame format_version {payload.get('format_version')!r}"
        )
    try:
        dim = int(payload["dim"])
        count = int(payload["count"])
        vectors = payload["vectors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed frame file: {exc}") from exc
    if not isinstance(vectors, list) or len(vectors) != count:
        raise InvalidInput(f"expected {count} vectors, got {len(vectors) if isinstance(vectors, list) else 'non-list'}")
    try:
        return Frame(_complex_rows(vectors, dim, "vector").T)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc


def operator_payload(matrix: np.ndarray) -> dict:
    a = np.asarray(matrix, dtype=np.complex128)
    return {
        "format_version": OPERATOR_FORMAT,
        "dim": a.shape[0],
        "rows": matrix_payload(a),
    }


def operator_from_payload(payload: dict) -> np.ndarray:
    if not isinstance(payload, dict):
        raise InvalidInput("operator file must contain a JSON object")
    if payload.get("format_version") != OPERATOR_FORMAT:
        raise InvalidInput(
            f"unsupported operator format_version {payload.get('format_version')!r}"
        )
    try:
        dim = int(payload["dim"])
        rows = payload["rows"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed operator file: {exc}") from exc
    if not isinstance(rows, list) or len(rows) != dim:
        raise InvalidInput(f"expected {dim} rows")
    m = _complex_rows(rows, dim, "row")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("operator contains non-finite entries")
    return m


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def save_frame(path, frame: Frame) -> None:
    write_json(path, frame_payload(frame))


def load_frame(path) -> Frame:
    return frame_from_payload(read_json(path))


def save_operator(path, matrix: np.ndarray) -> None:
    write_json(path, operator_payload(matrix))


def load_operator(path) -> np.ndarray:
    return operator_from_payload(read_json(path))


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return f"sha256:{h.hexdigest()}"
