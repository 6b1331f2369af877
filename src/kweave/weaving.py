"""Partition enumeration and weaving certification.

Given m frames indexed by the same columns 0..n-1, a partition is one
0-based digit per column: digit j = i means column j comes from frame
i.  The *weaving* is the mixed family that takes frame i's vector on
every column whose digit is i.  A family is (finitely) K-woven when
every weaving is a K-frame with a common pair of bounds; at finite
scale the universal constants are simply the min/max over all m^n
partitions, which this module computes either exhaustively or by
seeded sampling.

Enumeration order is lexicographic over digit rows with column 0
varying slowest — "first failing partition" and all argmin/argmax
tie-breaks refer to this order, so reports are identical no matter how
many worker threads evaluate the partition chunks.  Chunk boundaries
are fixed (independent of the worker count) and each chunk's result
lands in a disjoint slice of the output, which keeps every reduction
schedule-independent.

Every table is built against an operator K, since the woven property
is one positive lower K-frame bound shared by all weavings.  The
per-partition bounds are not computed one weaving at a time: a chunk's
weaving matrices are gathered from the family's stack, one batched
:func:`kweave.frames.frame_operator` call forms their S = WW*, and the
stacked closed-form pencil bound in :mod:`kweave.kframe` costs one
batched eigvalsh of S per chunk, which gives the upper bounds, and one
for the closed forms; an eigh runs only on weavings too close to
singular for one linear solve, and an eigvalsh feasibility check only
on rows that a shifted Cholesky factorization does not prove.  S is
formed as for a single frame, and the pencil treats each row on its
own, so every row equals :func:`~kweave.kframe.is_kframe` on its
weaving, bit for bit.

Exhaustive mode evaluates each distinct weaving once.  A column on
which every frame holds the bitwise-same vector contributes the same
vector whatever its digit, so only the m^n_free assignments to the
other columns reach the pencil, and every one of the m^n rows takes
the bounds of the assignment that matches it on those columns.  Rows
of one weaving get bitwise-equal bounds, so ties between them resolve
to the first in enumeration order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvalidInput, InvalidPartition, ShapeMismatch
from .frames import Frame, frame_operator, require_same_shape
# Unused here: bench/spans.py patches weaving.frame_bounds until ROADMAP item 1.
from .frames import frame_bounds  # noqa: F401
from .kframe import (WOVEN_THRESHOLD_SCALE, KOperator, is_kframe, passes_threshold,
                     pencil_lower_bounds)

#: A table is refused before it is built if it would hold more rows than this.
PARTITION_CAP = 2 ** 20
DEFAULT_BUDGET = 1000
#: Partitions are evaluated in fixed-size blocks of this many weavings.
#: A block holds its weaving matrices and a few (CHUNK, d, d) complex
#: arrays at once, so the block size sets each worker thread's peak memory.
CHUNK = 512


def partition_labels(digits, num_frames: int) -> list[str]:
    """Digit string of each row of a (b, n) digit block.

    Digits are concatenated while m <= 10, else "-"-joined.  With at
    most ten frames every digit is one character, so the block's code
    points, read as numpy's UCS-4 strings of length n, are the labels.
    """
    digits = np.asarray(digits)
    if num_frames <= 10:
        codes = digits.astype(np.uint32, order="C") + ord("0")
        return codes.view(f"U{digits.shape[1]}").ravel().tolist()
    return ["-".join(map(str, row)) for row in digits.tolist()]


@dataclass(frozen=True)
class Partition:
    """Assignment of columns 0..n-1 to frames 0..m-1.

    ``digits[j]`` = i means column j belongs to frame i — the same row
    encoding as :attr:`WeavingTable.digits` and the CSV ``partition``
    column.  The induced subsets sigma_i = {j : digits[j] = i} are
    disjoint and exhaustive by construction.
    """

    digits: tuple[int, ...]
    num_frames: int

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise InvalidPartition("need at least one frame")
        if len(self.digits) < 1:
            raise InvalidPartition("empty assignment")
        for x in self.digits:
            if not 0 <= x < self.num_frames:
                raise InvalidPartition(
                    f"digit {x} outside 0..{self.num_frames - 1}"
                )

    def label(self) -> str:
        return partition_labels([self.digits], self.num_frames)[0]

    def subset(self, i: int) -> tuple[int, ...]:
        """Columns assigned to frame i."""
        return tuple(j for j, x in enumerate(self.digits) if x == i)


@dataclass(frozen=True, eq=False)
class WeavingReport:
    """Result of certifying one family of frames against K.

    ``woven`` means every checked weaving clears ``threshold`` as a
    lower K-frame bound; with ``exhaustive`` false this is only "no
    counterexample found", never a certificate.  ``worst_partition`` is
    the argmin of the lower bound (first in enumeration order on ties)
    and realizes ``universal_lower``.  When some weaving fails,
    ``failing_partition`` is the first such partition and ``witness``
    is a unit vector violating the threshold inequality for it.
    """

    woven: bool
    universal_lower: float
    universal_upper: float
    worst_partition: Partition
    failing_partition: Partition | None
    witness: np.ndarray | None
    partitions_checked: int
    exhaustive: bool
    threshold: float


@dataclass(frozen=True, eq=False)
class WeavingTable:
    """Per-partition bound table in evaluation order.

    ``digits`` holds one :attr:`Partition.digits` row per partition;
    ``lowers`` and ``uppers`` hold its optimal lower K-frame bound and
    lambda_max of its frame operator.
    """

    digits: np.ndarray
    lowers: np.ndarray
    uppers: np.ndarray
    num_frames: int
    exhaustive: bool

    def partition(self, row: int) -> Partition:
        return Partition(tuple(self.digits[row].tolist()), self.num_frames)


def weaving_family(frames, p: Partition) -> Frame:
    """The mixed frame: column j comes from frame ``p.digits[j]``."""
    d, n = require_same_shape(frames)
    m = len(frames)
    if p.num_frames != m:
        raise ShapeMismatch(f"partition is over {p.num_frames} frames, family has {m}")
    if len(p.digits) != n:
        raise ShapeMismatch(f"partition length {len(p.digits)} != column count {n}")
    return Frame(_weavings(np.stack([f.matrix for f in frames]), np.array([p.digits]))[0])


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    # cpu_count() also counts CPUs this process may not run on.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _digit_dtype(m: int) -> type:
    """uint8 while every digit fits; the seeded draws depend on this dtype."""
    return np.uint8 if m <= 256 else np.int64


def _exhaustive_digits(m: int, n: int, columns) -> np.ndarray:
    """Every digit assignment to ``columns`` in enumeration order, other columns on 0.

    Written one column at a time in the row dtype, so the table is the
    only full-size array.
    """
    dtype = _digit_dtype(m)
    count = len(columns)
    rows = np.zeros((m ** count, n), dtype=dtype)
    for pos, j in enumerate(columns):
        # Column j holds each digit for m^(count-1-pos) rows in turn, m^pos times over.
        rows.reshape(m ** pos, m, m ** (count - 1 - pos), n)[..., j] = (
            np.arange(m, dtype=dtype)[:, None])
    return rows


def _weavings(stack: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """(b, d, n) weaving matrices of a (b, n) digit block from the (m, d, n) family stack.

    C-contiguous like :attr:`Frame.matrix`, as :func:`frame_operator` needs.
    """
    _, d, n = stack.shape
    return stack[digits[:, None, :], np.arange(d)[:, None], np.arange(n)]


def _free_columns(stack: np.ndarray) -> np.ndarray:
    """Columns whose vector differs in some bit between two frames (so 0.0 != -0.0)."""
    bits = stack.view(np.uint64).reshape(*stack.shape, 2)
    return np.flatnonzero((bits != bits[0]).any(axis=(0, 1, 3)))


def _evaluate_distinct(stack: np.ndarray, k: KOperator, n: int,
                       threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of all m^n exhaustive rows, evaluating each distinct weaving once.

    Rows that differ only on columns where every frame holds the same
    vector denote the same weaving matrix, bit for bit.  The m^n_free
    rows with every such column on digit 0 go through the pencil; their
    bounds, shaped with one axis per column (length 1 on the shared
    ones), are broadcast over the m^n rows in enumeration order.
    """
    m = stack.shape[0]
    free = _free_columns(stack)
    lowers, uppers = _evaluate(stack, k, _exhaustive_digits(m, n, free), threads)
    shape = [m if j in free else 1 for j in range(n)]
    return tuple(np.broadcast_to(b.reshape(shape), (m,) * n).flatten() for b in (lowers, uppers))


def _sampled_digits(m: int, n: int, budget: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dtype = _digit_dtype(m)
    pure = np.repeat(np.arange(m, dtype=dtype)[:, None], n, axis=1)
    drawn = rng.integers(0, m, size=(budget, n), dtype=dtype)
    return np.concatenate([pure, drawn], axis=0)


def _evaluate(stack: np.ndarray, k: KOperator, digits: np.ndarray,
              threads: int) -> tuple[np.ndarray, np.ndarray]:
    total = digits.shape[0]
    uppers = np.empty(total)
    lowers = np.empty(total)

    def run_chunk(start: int) -> None:
        stop = min(start + CHUNK, total)
        s_stack = frame_operator(_weavings(stack, digits[start:stop]))
        lowers[start:stop], uppers[start:stop] = pencil_lower_bounds(s_stack, k)

    starts = range(0, total, CHUNK)
    if threads <= 1 or total <= CHUNK:
        for s in starts:
            run_chunk(s)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    return lowers, uppers


def _require_count(name: str, value) -> int:
    """``value`` as an int: ``budget`` and ``seed`` must be non-negative integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidInput(f"{name} must be >= 0, got {value}")
    return int(value)


def weaving_bound_table(frames, k: KOperator, mode: str = "exhaustive", *,
                        budget: int = DEFAULT_BUDGET, seed: int = 0,
                        threads: int | None = None) -> WeavingTable:
    """Evaluate per-partition bounds without reducing them to a verdict.

    Each row gets its optimal lower K-frame bound and its upper bound
    lambda_max(S), both from one pencil call per chunk.  Exhaustive
    mode enumerates all m^n partitions; sampled mode evaluates the m
    pure partitions followed by ``budget`` seeded uniform draws.  Either
    table is refused beyond ``PARTITION_CAP`` rows.
    """
    d, n = require_same_shape(frames)
    m = len(frames)
    if k.dim != d:
        raise ShapeMismatch(f"operator dim {k.dim} != frame dim {d}")
    budget, seed = _require_count("budget", budget), _require_count("seed", seed)
    threads = _resolve_threads(threads)
    stack = np.stack([f.matrix for f in frames])
    if mode == "exhaustive":
        total = m ** n
        if total > PARTITION_CAP:
            raise CapExceeded(
                f"{m}^{n} = {total} partitions exceeds the exhaustive cap {PARTITION_CAP}"
            )
        digits = _exhaustive_digits(m, n, range(n))
        lowers, uppers = _evaluate_distinct(stack, k, n, threads)
    elif mode == "sampled":
        if m + budget > PARTITION_CAP:
            raise CapExceeded(
                f"{m} pure + {budget} drawn partitions exceeds the sampled cap {PARTITION_CAP}"
            )
        digits = _sampled_digits(m, n, budget, seed)
        lowers, uppers = _evaluate(stack, k, digits, threads)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return WeavingTable(digits=digits, lowers=lowers, uppers=uppers, num_frames=m,
                        exhaustive=(mode == "exhaustive"))


def report_from_table(table: WeavingTable, frames, k: KOperator,
                      threshold: float | None = None) -> WeavingReport:
    """Reduce a bound table to a certification verdict."""
    lowers, uppers = table.lowers, table.uppers
    universal_upper = float(uppers.max())
    universal_lower = float(lowers.min())
    if threshold is None:
        threshold = WOVEN_THRESHOLD_SCALE * (1.0 + universal_upper)
    worst = table.partition(int(np.argmin(lowers)))
    failing_mask = ~passes_threshold(lowers, threshold)
    failing = witness = None
    if failing_mask.any():
        row = int(np.argmax(failing_mask))
        failing = table.partition(row)
        witness = is_kframe(weaving_family(frames, failing), k, threshold).witness
    return WeavingReport(
        woven=not failing_mask.any(),
        universal_lower=universal_lower,
        universal_upper=universal_upper,
        worst_partition=worst,
        failing_partition=failing,
        witness=witness,
        partitions_checked=int(lowers.shape[0]),
        exhaustive=table.exhaustive,
        threshold=float(threshold),
    )


def certify_woven(frames, k: KOperator, *, threads: int | None = None) -> WeavingReport:
    """Certify the K-woven property over every partition at the default threshold.

    The reported universal bounds are the true finite min/max, so a
    ``woven`` = True verdict is a certificate.  For a sampled table or
    another threshold, pass :func:`weaving_bound_table`'s table to
    :func:`report_from_table`.
    """
    return report_from_table(weaving_bound_table(frames, k, threads=threads), frames, k)


def transformed_family(frames, k: KOperator, u) -> tuple[list[Frame], KOperator]:
    """Image frames {U f_ij} paired with the operator U K.

    Weaving by parts commutes with applying U, so the image family's
    universal lower bound (from :func:`certify_woven` on the returned
    pair) can only improve on the original's, while its upper bound
    grows at most by ||U^*||^2.
    """
    d, _ = require_same_shape(frames)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise ShapeMismatch(f"U must be {d}x{d}, got {u.shape}")
    return [Frame(u @ f.matrix) for f in frames], KOperator(u @ k.matrix)
