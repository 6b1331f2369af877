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
per-partition bounds are not computed one weaving at a time: all frame
operators in a chunk are assembled with one masked matrix product and
handed to the stacked closed-form pencil bound in :mod:`kweave.kframe`,
so each chunk costs three batched eigensolver calls (the upper bounds
come from the first) rather than one per partition.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvalidInput, InvalidPartition, ShapeMismatch, ZeroK
from .frames import Frame, frame_bounds, require_same_shape
from .kframe import (WOVEN_THRESHOLD_SCALE, KOperator, is_kframe, passes_threshold,
                     pencil_lower_bounds, require_threshold)

DEFAULT_PARTITION_CAP = 2 ** 20
DEFAULT_BUDGET = 1000
#: Partitions are evaluated in fixed-size blocks of this many weavings.
#: Each block's pencil holds a few (CHUNK, d, d) complex arrays at once,
#: so the block size sets the peak memory of every worker thread.
CHUNK = 1024


def partition_label(digits, num_frames: int) -> str:
    """Digit string of a partition: concatenated while m <= 10, else "-"-joined."""
    sep = "" if num_frames <= 10 else "-"
    return sep.join(map(str, digits))


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
        return partition_label(self.digits, self.num_frames)

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
    seed: int | None

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
    stack = np.stack([f.matrix for f in frames])
    return Frame(stack[list(p.digits), :, np.arange(n)].T)


def universal_upper_bound(frames) -> float:
    """sum_i B_i — always a valid upper bound for every weaving."""
    require_same_shape(frames)
    return float(sum(frame_bounds(f).upper for f in frames))


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("KWEAVE_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidInput(f"KWEAVE_THREADS must be an integer, got {env!r}") from None
    # cpu_count() also counts CPUs this process may not run on.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _digit_dtype(m: int) -> type:
    """uint8 while every digit fits; the seeded draws depend on this dtype."""
    return np.uint8 if m <= 256 else np.int64


def _exhaustive_digits(m: int, n: int) -> np.ndarray:
    total = m ** n
    idx = np.arange(total, dtype=np.int64)
    powers = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] // powers) % m).astype(_digit_dtype(m))


def _sampled_digits(m: int, n: int, budget: int, seed: int | None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dtype = _digit_dtype(m)
    pure = np.repeat(np.arange(m, dtype=dtype)[:, None], n, axis=1)
    drawn = rng.integers(0, m, size=(budget, n), dtype=dtype)
    return np.concatenate([pure, drawn], axis=0)


def _column_outers(frames) -> np.ndarray:
    """(m*n, d*d) stack of flattened outer products f_ij f_ij^*."""
    cols = np.stack([f.matrix for f in frames])  # (m, d, n)
    outer = np.einsum("idj,iej->ijde", cols, cols.conj())
    m, n, d, _ = outer.shape
    return outer.reshape(m * n, d * d)


def _chunk_operators(digits: np.ndarray, flat: np.ndarray, d: int) -> np.ndarray:
    b, n = digits.shape
    sel = digits.astype(np.int64) * n + np.arange(n, dtype=np.int64)
    onehot = np.zeros((b, flat.shape[0]))
    np.put_along_axis(onehot, sel, 1.0, axis=1)
    return (onehot @ flat).reshape(b, d, d)


def _evaluate(frames, k: KOperator, digits: np.ndarray,
              threads: int) -> tuple[np.ndarray, np.ndarray]:
    d, _ = require_same_shape(frames)
    flat = _column_outers(frames)
    total = digits.shape[0]
    uppers = np.empty(total)
    lowers = np.empty(total)

    def run_chunk(start: int) -> None:
        stop = min(start + CHUNK, total)
        s_stack = _chunk_operators(digits[start:stop], flat, d)
        lowers[start:stop], uppers[start:stop] = pencil_lower_bounds(s_stack, k)

    starts = range(0, total, CHUNK)
    if threads <= 1 or total <= CHUNK:
        for s in starts:
            run_chunk(s)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    return lowers, uppers


def weaving_bound_table(frames, k: KOperator, mode: str = "exhaustive", *,
                        budget: int | None = None, seed: int | None = 0,
                        partition_cap: int = DEFAULT_PARTITION_CAP,
                        threads: int | None = None) -> WeavingTable:
    """Evaluate per-partition bounds without reducing them to a verdict.

    Each row gets its optimal lower K-frame bound and its upper bound
    lambda_max(S), both from one pencil call per chunk.  Exhaustive
    mode enumerates all m^n partitions (refused beyond
    ``partition_cap``); sampled mode evaluates the m pure partitions
    followed by ``budget`` seeded uniform draws.
    """
    d, n = require_same_shape(frames)
    m = len(frames)
    if k.dim != d:
        raise ShapeMismatch(f"operator dim {k.dim} != frame dim {d}")
    if k.rank == 0:
        raise ZeroK("K is numerically zero; refusing to certify")
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    if budget < 0:
        raise InvalidInput(f"budget must be >= 0, got {budget}")
    if mode == "exhaustive":
        total = m ** n
        if total > partition_cap:
            raise CapExceeded(
                f"{m}^{n} = {total} partitions exceeds the exhaustive cap {partition_cap}"
            )
        digits = _exhaustive_digits(m, n)
    elif mode == "sampled":
        digits = _sampled_digits(m, n, budget, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lowers, uppers = _evaluate(frames, k, digits, _resolve_threads(threads))
    return WeavingTable(digits=digits, lowers=lowers, uppers=uppers, num_frames=m,
                        exhaustive=(mode == "exhaustive"),
                        seed=seed if mode == "sampled" else None)


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


def certify_woven(frames, k: KOperator, mode: str = "exhaustive", *,
                  budget: int | None = None, seed: int | None = 0,
                  threshold: float | None = None,
                  partition_cap: int = DEFAULT_PARTITION_CAP,
                  threads: int | None = None) -> WeavingReport:
    """Certify (exhaustive) or probe (sampled) the K-woven property.

    Exhaustive mode enumerates every partition, so the reported
    universal bounds are the true finite min/max and a ``woven`` = True
    verdict is a certificate.  Sampled mode draws ``budget`` uniform
    partitions after the m pure ones; a failing partition found there
    is a genuine counterexample, but absence of one proves nothing.
    An invalid ``threshold`` is refused before any partition is evaluated.
    """
    if threshold is not None:
        require_threshold(threshold)
    table = weaving_bound_table(
        frames, k, mode, budget=budget, seed=seed,
        partition_cap=partition_cap, threads=threads,
    )
    return report_from_table(table, frames, k, threshold)


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
    uk = KOperator(u @ k.matrix)
    if uk.rank == 0:
        raise ZeroK("U*K is numerically zero")
    return [Frame(u @ f.matrix) for f in frames], uk
