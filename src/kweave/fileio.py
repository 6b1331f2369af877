"""JSON interchange for frames, operators, and reports.

Complex entries are written as explicit [re, im] pairs — no
complex-literal ambiguity across ecosystems — and payloads are dumped
with sorted keys and fixed indentation so identical inputs produce
byte-identical files.  Python's float repr round-trips exactly, which
is what makes the load/save cycle bit-exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from .errors import InvalidInput
from .frames import Frame
from .weaving import Partition

FRAME_FORMAT = "kweave-frame-v1"
OPERATOR_FORMAT = "kweave-op-v1"
REPORT_FORMAT = "kweave-report-v1"


def pairs(a) -> list:
    """A complex array of any shape as nested [re, im] pairs (-0.0 kept)."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def encode(value):
    """A library value as JSON data: the one rule for every report field.

    A dataclass or NamedTuple becomes a dict of its fields, a
    :class:`Partition` its label, an array its :func:`pairs` and a
    non-finite float ``null`` (JSON has no Infinity or NaN).
    """
    if isinstance(value, Partition):
        return value.label()
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return pairs(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _read_header(payload, version: str, kind: str, sizes: tuple[str, ...],
                 body: str) -> tuple:
    """The integer ``sizes`` and the ``body`` list of a frame or operator file.

    The body must hold as many entries as the last size.  Sizes must be
    JSON integers: a float, a string or a boolean is refused, not rounded.
    """
    if not isinstance(payload, dict):
        raise InvalidInput(f"{kind} file must contain a JSON object")
    if payload.get("format_version") != version:
        raise InvalidInput(f"unsupported {kind} format_version {payload.get('format_version')!r}")
    values = tuple(payload.get(key) for key in sizes)
    for key, value in zip(sizes, values):
        if type(value) is not int:
            raise InvalidInput(f"malformed {kind} file: {key} must be an integer, got {value!r}")
    entries = payload.get(body)
    if not isinstance(entries, list) or len(entries) != values[-1]:
        got = len(entries) if isinstance(entries, list) else "non-list"
        raise InvalidInput(f"expected {values[-1]} {body}, got {got}")
    return (*values, entries)


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
        "vectors": pairs(frame.matrix.T),
    }


def frame_from_payload(payload: dict) -> Frame:
    dim, _, vectors = _read_header(payload, FRAME_FORMAT, "frame", ("dim", "count"), "vectors")
    try:
        return Frame(_complex_rows(vectors, dim, "vector").T)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc


def operator_payload(matrix: np.ndarray) -> dict:
    a = np.asarray(matrix, dtype=np.complex128)
    return {
        "format_version": OPERATOR_FORMAT,
        "dim": a.shape[0],
        "rows": pairs(a),
    }


def operator_from_payload(payload: dict) -> np.ndarray:
    dim, rows = _read_header(payload, OPERATOR_FORMAT, "operator", ("dim",), "rows")
    if dim < 1:
        raise InvalidInput(f"malformed operator file: dim must be >= 1, got {dim}")
    m = _complex_rows(rows, dim, "row")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("operator contains non-finite entries")
    return m


def write_json(path, payload: dict) -> None:
    """Encode ``payload`` in full before opening ``path``, so a failed encode writes nothing."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
