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
many worker processes evaluate the partition chunks.  Chunk boundaries
are fixed (independent of the worker count) and each chunk's result
lands in a disjoint slice of the output, which keeps every reduction
schedule-independent.

Every table keeps its family's stack and the operator K it is built
against, since the woven property is one positive lower K-frame bound
shared by all weavings, and the verdict reads both from the table.  The
per-partition bounds are not computed one weaving at a time: a chunk's
weaving matrices are gathered from the family's stack, one batched
:func:`kweave.frames.frame_operator` call forms their S = WW*, and the
stacked closed-form pencil bound in :mod:`kweave.kframe` costs two
batched eigvalsh per chunk, one of S, which gives the upper bounds, and
one for the closed forms; an eigh runs only on weavings too close to
singular for one linear solve, and an eigvalsh feasibility check only
on rows that a shifted Cholesky factorization does not prove.  S is
formed as for a single frame, and the pencil treats each row on its
own, so every row equals :func:`~kweave.kframe.is_kframe` on its
weaving, bit for bit, and a failing row's witness is for that weaving.

The universal bounds of a finite family are the least lower and the
greatest upper bound over its partitions (Bemrose, Casazza, Groechenig,
Lammers and Lynch, "Weaving frames", 2016), so the verdict needs the
exact bounds only of rows near those extremes or below the threshold.
A table of more than one chunk of rows runs the closed form first on a
fixed seeded draw of CHUNK rows (:func:`_sample`); the least of their
lower bounds, U, and the greatest of their upper bounds, B, are the
incumbents.  Every other row's S then meets two shifted Cholesky
proofs: lambda_max(S) <= B*(1 - CERTIFICATE_STEP)
(:func:`~kweave.kframe.proved_below`), and S - tau*I -
U*(1 + CERTIFICATE_STEP)*KK^* PSD with tau = 2*SPANNING_SCALE*B
(:func:`~kweave.kframe.proved_psd`).  With both, lambda_min(S) >= tau
exceeds SPANNING_SCALE*lambda_max(S) by far more than eigensolver
error, so the row is on the pencil's solve route with a bound at least
U*(1 + CERTIFICATE_STEP), and both its bounds are left pending.  A row
with the second proof only takes one eigvalsh(S) for its upper bound
and, as in the pencil, its route; on the solve route its lower bound
stays pending.  The rest take the closed form.  A pending row is not
the worst partition, nor a failing one at a threshold up to U, nor
does it hold the greatest upper bound.  Pending rows are evaluated,
from the same S, when a threshold above U or a caller reading every
bound needs them (see :class:`WeavingTable`).  A table of at most CHUNK
rows, or one built with ``every_row``, is its own sample.

Exhaustive mode evaluates each distinct weaving once.  A column on
which every frame holds the bitwise-same vector contributes the same
vector whatever its digit, so only the m^n_free assignments to the
other columns reach the pencil, each as the first row of its weaving
(every shared column on digit 0).  The table keeps just those rows,
and one weight per column maps any partition to its weaving's row:
``digits @ WeavingTable.weights``.  The verdict and the CSV writer
read the evaluated rows; the m^n rows are built only when a caller
asks for them.  Rows of one weaving have bitwise-equal bounds, so ties
between them resolve to the first in enumeration order.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvalidInput, InvalidPartition, ShapeMismatch
from .frames import Frame, frame_operator, require_same_shape
# Unused here: bench/spans.py patches weaving.frame_bounds until ROADMAP item 1.
from .frames import frame_bounds  # noqa: F401
from .kframe import (CERTIFICATE_STEP, SPANNING_SCALE, KOperator, is_kframe, passes_threshold,
                     pencil_lower_bounds, proved_below, proved_psd, require_threshold,
                     resolve_threshold, spectrum_ends)

#: A table is refused before it is built if it would hold more rows than this.
PARTITION_CAP = 2 ** 20
DEFAULT_BUDGET = 1000
#: Partitions are evaluated in fixed-size blocks of this many weavings.
#: A block holds its weaving matrices and a few (CHUNK, d, d) complex
#: arrays at once, so the block size sets each worker process's peak memory.
CHUNK = 512


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
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise InvalidPartition(f"digit {x!r} is not an integer")
            if not 0 <= x < self.num_frames:
                raise InvalidPartition(f"digit {x} outside 0..{self.num_frames - 1}")

    def label(self) -> str:
        """The digits, concatenated while m <= 10, else "-"-joined."""
        return ("-" if self.num_frames > 10 else "").join(map(str, self.digits))

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


class WeavingTable:
    """Per-partition bound table of one family, kept as the rows that were evaluated.

    ``stack`` is the family's (m, d, n) stack of frame matrices and ``k``
    the operator K; ``num_frames`` is m.  ``evaluated_digits`` holds one
    :attr:`Partition.digits` row per evaluated partition;
    ``evaluated_lowers`` and ``evaluated_uppers`` hold its optimal lower
    K-frame bound and lambda_max of its frame operator.  ``free`` lists
    the columns whose digit changes the weaving, and marks the table as
    exhaustive; a sampled table has ``free=None`` and is its evaluated rows.

    An exhaustive table covers all m^n partitions but evaluates only its
    distinct weavings: every assignment to the ``free`` columns in
    enumeration order, with each shared column on digit 0.  Each is the
    first of the rows that agree with it on the free columns, and those
    rows have bitwise-equal bounds.  ``digits``, ``lowers`` and
    ``uppers`` give every row of the table in enumeration order; they
    are built on first access.

    A table built by hand holds every bound.  One from
    :func:`weaving_bound_table` holds the bounds its prune evaluated (see
    the module docstring): a pending row reads +inf among the lower and
    -inf among the upper bounds.  ``proved_level``, U*(1 + CERTIFICATE_STEP)
    at first, is the level below which no pending lower bound lies, and
    ``universal_upper`` is the largest upper bound without reading the
    pending ones.  :func:`report_from_table` evaluates the rows it cannot
    prove above its threshold as well.  Reading ``evaluated_lowers`` or
    ``lowers`` evaluates every lower bound left (``proved_level`` is then
    infinite), and ``evaluated_uppers`` or ``uppers`` every upper bound
    left.  Threads may share a table: one evaluates pending rows at a time.
    """

    def __init__(self, evaluated_digits: np.ndarray, evaluated_lowers: np.ndarray,
                 evaluated_uppers: np.ndarray, stack: np.ndarray, k: KOperator,
                 free: np.ndarray | None = None) -> None:
        _, d, n = stack.shape
        if evaluated_digits.ndim != 2 or evaluated_digits.shape[1] != n:
            raise ShapeMismatch(f"digit rows of shape {evaluated_digits.shape}, not (*, {n})")
        if k.dim != d:
            raise ShapeMismatch(f"operator dim {k.dim} != frame dim {d}")
        if not len(evaluated_lowers) == len(evaluated_uppers) == len(evaluated_digits):
            raise ShapeMismatch("evaluated_lowers and evaluated_uppers need one bound per row")
        self.evaluated_digits = evaluated_digits
        self.stack, self.k, self.free = stack, k, free
        self.proved_level = math.inf
        #: The bounds so far; a row not yet evaluated holds +inf below and -inf above.
        self._lowers, self._uppers = evaluated_lowers, evaluated_uppers
        #: The _Passes over this stack and k, and their proofs' margin tau, while rows pend.
        self._pending: tuple[_Passes, float] | None = None
        self._lock = threading.Lock()

    @property
    def num_frames(self) -> int:
        """m, the number of frames in ``stack``."""
        return len(self.stack)

    @property
    def exhaustive(self) -> bool:
        """Whether the table covers every partition."""
        return self.free is not None

    def __len__(self) -> int:
        """The number of partitions the table covers: m^n when exhaustive."""
        if self.exhaustive:
            return self.num_frames ** self.evaluated_digits.shape[1]
        return self.evaluated_digits.shape[0]

    @property
    def universal_upper(self) -> float:
        """The largest upper bound; a row still pending is proved below it."""
        return float(self._uppers.max())

    @property
    def evaluated_uppers(self) -> np.ndarray:
        """The upper bound of every evaluated row; evaluates the rows still pending."""
        with self._lock:
            if self._pending is not None:
                rows = np.flatnonzero(self._uppers == -np.inf)
                self._uppers[rows] = self._pending[0].spectra(rows)[1]
            return self._uppers

    @property
    def evaluated_lowers(self) -> np.ndarray:
        """The lower bound of every evaluated row; evaluates the rows still pending."""
        return self.lowers_below(math.inf)

    def lowers_below(self, level: float) -> np.ndarray:
        """The lower bounds, once every row that could lie below ``level`` is evaluated.

        Every pending row is on the pencil's solve route (see the module
        docstring).  It stays pending when :func:`~kweave.kframe.proved_psd`
        proves S - tau*I - level*KK^* PSD; the rest are evaluated.  A row
        still pending reads +inf, and its bound is at least ``level``.
        Its computed bound then exceeds level / (1 + CERTIFICATE_STEP): on
        the solve route S is conditioned within 1/SPANNING_SCALE, and the
        closed form is accurate there far within CERTIFICATE_STEP.
        """
        with self._lock:
            if self._pending is None or not level > self.proved_level:
                return self._lowers
            passes, tau = self._pending
            pending = np.flatnonzero(self._lowers == np.inf)
            held = (passes.proved(pending, level, tau)[0] if math.isfinite(level)
                    else np.zeros(len(pending), dtype=bool))
            rows = pending[~held]
            self._lowers[rows], self._uppers[rows] = passes.bounds(rows)
            self.proved_level = level if held.any() else math.inf
            return self._lowers

    @classmethod
    def _pruned(cls, passes: _Passes, free: np.ndarray | None, every_row: bool) -> WeavingTable:
        """The table of ``passes``' rows, pruned as the module docstring says."""
        total = len(passes.digits)
        sample = np.arange(total) if every_row else _sample(total)
        lowers, uppers = np.full(total, np.inf), np.full(total, -np.inf)
        lowers[sample], uppers[sample] = passes.bounds(sample)
        table = cls(passes.digits, lowers, uppers, passes.stack, passes.k, free)
        if len(sample) == total:
            return table
        top = float(uppers[sample].max())
        tau = 2.0 * SPANNING_SCALE * top
        level = float(lowers[sample].min()) * (1.0 + CERTIFICATE_STEP)
        rest = np.flatnonzero(lowers == np.inf)
        above, below = passes.proved(rest, level, tau, top * (1.0 - CERTIFICATE_STEP))
        upper_only = rest[above & ~below]
        lam_min, uppers[upper_only] = passes.spectra(upper_only)
        off_route = upper_only[~(lam_min > SPANNING_SCALE * uppers[upper_only])]
        evaluate = np.union1d(rest[~above], off_route)
        lowers[evaluate], uppers[evaluate] = passes.bounds(evaluate)
        table._pending = (passes, tau)
        table.proved_level = level if (lowers == np.inf).any() else math.inf
        return table

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Column weights of an exhaustive table, one rule for every partition.

        A partition's ``digits @ weights`` is the row of the ``evaluated_*``
        arrays that holds its weaving.  Free column j weighs m^(number of
        free columns after j) and a shared column 0, so the evaluated rows
        themselves map to 0, 1, 2, ... in order.
        """
        weights = np.zeros(self.evaluated_digits.shape[1], dtype=np.int64)
        weights[self.free] = self.num_frames ** np.arange(len(self.free) - 1, -1, -1)
        return weights

    @functools.cached_property
    def digits(self) -> np.ndarray:
        if len(self.evaluated_digits) == len(self):
            return self.evaluated_digits
        n = self.evaluated_digits.shape[1]
        return _exhaustive_digits(self.num_frames, n, range(n))

    @functools.cached_property
    def lowers(self) -> np.ndarray:
        if not self.exhaustive:
            return self.evaluated_lowers
        return self.evaluated_lowers[self.digits @ self.weights]

    @functools.cached_property
    def uppers(self) -> np.ndarray:
        if not self.exhaustive:
            return self.evaluated_uppers
        return self.evaluated_uppers[self.digits @ self.weights]


def weaving_family(frames, p: Partition) -> Frame:
    """The mixed frame: column j comes from frame ``p.digits[j]``."""
    _, n = require_same_shape(frames)
    if p.num_frames != len(frames):
        raise ShapeMismatch(f"partition is over {p.num_frames} frames, family has {len(frames)}")
    if len(p.digits) != n:
        raise ShapeMismatch(f"partition length {len(p.digits)} != column count {n}")
    return Frame(_weavings(np.stack([f.matrix for f in frames]), np.array([p.digits]))[0])


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return _require_count("threads", threads, minimum=1)
    # cpu_count() also counts CPUs this process may not run on.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _digit_dtype(m: int) -> type:
    """uint8 while every digit fits; the seeded draws depend on this dtype."""
    return np.uint8 if m <= 256 else np.int64


def _exhaustive_digits(m: int, n: int, columns) -> np.ndarray:
    """Every digit assignment to ``columns`` in enumeration order, other columns on 0.

    Filled in place from the last column back: the first m^p rows hold
    every assignment to the last p of ``columns``, and m copies of them,
    each with the next column back on its own digit, make the first m^(p+1).
    Each step copies whole rows, and the table is the only full-size array.
    """
    rows = np.empty((m ** len(columns), n), dtype=_digit_dtype(m))
    rows[0] = 0
    for p, j in enumerate(reversed(columns)):
        tiles = rows[:m ** (p + 1)].reshape(m, m ** p, n)
        tiles[1:] = tiles[0]
        tiles[1:, :, j] = np.arange(1, m, dtype=rows.dtype)[:, None]
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


def _sampled_digits(m: int, n: int, budget: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dtype = _digit_dtype(m)
    pure = np.repeat(np.arange(m, dtype=dtype)[:, None], n, axis=1)
    drawn = rng.integers(0, m, size=(budget, n), dtype=dtype)
    return np.concatenate([pure, drawn], axis=0)


def _sample(total: int) -> np.ndarray:
    """The incumbents' rows: all of at most CHUNK, else a fixed seed's draw of CHUNK, sorted."""
    if total <= CHUNK:
        return np.arange(total)
    return np.sort(np.random.default_rng(0).choice(total, CHUNK, replace=False))


def _evaluate(work, total: int, width: int, threads: int) -> np.ndarray:
    """The (width, total) results of ``work(start, stop)`` over fixed chunks of range(total).

    With more than one worker the chunk starts are split into contiguous
    groups: this process evaluates the first, and one forked child each
    of the others, writing its rows into a shared anonymous map.  The
    result is a view of that map, not a copy: nothing writes to it once
    the children are done, and a child forked later only reads it.  The
    workers are processes because two threads calling numpy's bundled
    OpenBLAS at once contend inside it and finish no sooner than one.
    A child that fails or cannot be forked has its group recomputed here,
    in chunk order, so an error raises as it does with one worker.
    Forking a process that runs other threads can deadlock the child, so
    such a caller, like a platform without ``os.fork``, stays serial.
    """
    starts = range(0, total, CHUNK)
    workers = min(threads, len(starts))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        out = np.empty((width, total))
        _run_chunks(work, total, starts, out)
        return out
    cuts = [len(starts) * i // workers for i in range(workers + 1)]
    groups = [starts[a:b] for a, b in zip(cuts, cuts[1:])]
    # No close: the map is unmapped once no view refers to it, and closing
    # it while one does would raise over an error on its way out.
    out = np.frombuffer(mmap.mmap(-1, width * total * 8), dtype=np.float64).reshape(width, total)
    pids = []
    try:
        for group in groups[1:]:
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                status = 1
                try:
                    _run_chunks(work, total, group, out)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        _run_chunks(work, total, groups[0], out)
    finally:
        done = [pid is not None and os.waitpid(pid, 0)[1] == 0 for pid in pids]
    for group, ok in zip(groups[1:], done):
        if not ok:
            _run_chunks(work, total, group, out)
    return out


def _run_chunks(work, total: int, starts, out: np.ndarray) -> None:
    """Write ``work(start, stop)`` of the chunks at ``starts`` into ``out``."""
    for start in starts:
        stop = min(start + CHUNK, total)
        out[:, start:stop] = work(start, stop)


class _Passes:
    """The passes over a table's rows, each through the worker pool in fixed chunks.

    Every pass forms the S of a chunk's rows afresh from the family
    ``stack`` and the digit rows, so a pass holds a few arrays per row,
    never a stack of S for the whole table.
    """

    def __init__(self, stack: np.ndarray, k: KOperator, digits: np.ndarray,
                 threads: int) -> None:
        self.stack, self.k, self.digits, self.threads = stack, k, digits, threads

    def run(self, rows: np.ndarray, width: int, work) -> np.ndarray:
        """``work(S, start, stop)`` on each chunk of increasing ``rows``, as a (width, rows) array."""
        digits = self.digits if len(rows) == len(self.digits) else self.digits[rows]

        def chunk(start: int, stop: int):
            return work(frame_operator(_weavings(self.stack, digits[start:stop])), start, stop)
        return _evaluate(chunk, len(digits), width, self.threads)

    def bounds(self, rows: np.ndarray) -> np.ndarray:
        """Lower and upper bounds of ``rows``, each chunk in one pencil call."""
        return self.run(rows, 2, lambda s, start, stop: pencil_lower_bounds(s, self.k))

    def spectra(self, rows: np.ndarray) -> np.ndarray:
        """lambda_min(S) and the upper bound of ``rows``, as the pencil takes them."""
        return self.run(rows, 2, lambda s, start, stop: spectrum_ends(s))

    def proved(self, rows: np.ndarray, level: float, tau: float,
               top: float | None = None) -> np.ndarray:
        """Which of ``rows`` have proofs of S - tau*I - level*KK^* >= 0 and lambda_max(S) <= top."""
        def work(s, start, stop):
            q = stop - start
            below = np.zeros(q, dtype=bool) if top is None else proved_below(s, np.full(q, top))
            return proved_psd(s, np.full(q, level), np.full(q, -tau), self.k), below
        return self.run(rows, 2, work) > 0.0


def _require_count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int >= ``minimum``, as ``budget``, ``seed`` and ``threads`` must be."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def weaving_bound_table(frames, k: KOperator, mode: str = "exhaustive", *,
                        budget: int = DEFAULT_BUDGET, seed: int = 0,
                        threads: int | None = None, every_row: bool = False) -> WeavingTable:
    """Evaluate per-partition bounds without reducing them to a verdict.

    Exhaustive mode enumerates all m^n partitions; sampled mode
    evaluates the m pure partitions followed by ``budget`` seeded
    uniform draws.  Either table is refused beyond ``PARTITION_CAP``
    rows.  The table keeps ``frames`` stacked, and ``k``.  A table of
    at most CHUNK rows, or any table with ``every_row``, gets every bound,
    each chunk from one pencil call.  A larger table is pruned as the
    module docstring says.  A caller that reads every bound, as the
    ``--csv`` writer does, passes ``every_row``: reading them later costs
    a second S per row, and an eigvalsh(S) for each upper bound.
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
        free = _free_columns(stack)
        digits = _exhaustive_digits(m, n, free)
    elif mode == "sampled":
        if m + budget > PARTITION_CAP:
            raise CapExceeded(
                f"{m} pure + {budget} drawn partitions exceeds the sampled cap {PARTITION_CAP}"
            )
        free = None
        digits = _sampled_digits(m, n, budget, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return WeavingTable._pruned(_Passes(stack, k, digits, threads), free, every_row)


def report_from_table(table: WeavingTable, threshold: float | None = None) -> WeavingReport:
    """Reduce a bound table to a certification verdict on the table's own family.

    The threshold defaults to :func:`~kweave.kframe.resolve_threshold`
    of :attr:`WeavingTable.universal_upper`.  Reads only the evaluated rows.  The
    first row of each weaving comes in the same order as its assignment
    to the free columns, so the first evaluated row to reach the
    minimum, or to fail, is the first such row of the whole table.  Of a
    table with rows still pending it first evaluates those it cannot
    prove above threshold * (1 + CERTIFICATE_STEP) (see
    :meth:`WeavingTable.lowers_below`): new work only for a threshold
    above the least bound evaluated so far.  Every row left pending then
    lies above both, so it can neither fail nor be the worst partition.
    The witness is :func:`~kweave.kframe.is_kframe`'s on the failing
    row's weaving, gathered from ``table.stack``, against ``table.k``.
    """
    universal_upper = table.universal_upper
    threshold = resolve_threshold(threshold, universal_upper)
    lowers = table.lowers_below(float(require_threshold(threshold)) * (1.0 + CERTIFICATE_STEP))

    def partition(row: int) -> Partition:
        return Partition(tuple(table.evaluated_digits[row].tolist()), table.num_frames)

    failing_mask = ~passes_threshold(lowers, threshold)
    failing = witness = None
    if failing_mask.any():
        row = int(np.argmax(failing_mask))
        failing = partition(row)
        weaving = Frame(_weavings(table.stack, table.evaluated_digits[row:row + 1])[0])
        witness = is_kframe(weaving, table.k, threshold).witness
    return WeavingReport(
        woven=not failing_mask.any(),
        universal_lower=float(lowers.min()),
        universal_upper=universal_upper,
        worst_partition=partition(int(np.argmin(lowers))),
        failing_partition=failing,
        witness=witness,
        partitions_checked=len(table),
        exhaustive=table.exhaustive,
        threshold=float(threshold),
    )


def certify_woven(frames, k: KOperator, *, threads: int | None = None) -> WeavingReport:
    """Certify the K-woven property over every partition at the default threshold.

    The report of :func:`weaving_bound_table`'s exhaustive table: its
    universal bounds are the true finite min/max, so a ``woven`` = True
    verdict is a certificate.  For a sampled table or another threshold,
    pass that table to :func:`report_from_table` yourself.
    """
    return report_from_table(weaving_bound_table(frames, k, threads=threads))


def transformed_family(frames, k: KOperator, u) -> tuple[list[Frame], KOperator]:
    """Image frames {U f_ij} paired with the operator U K.

    Weaving by parts commutes with applying U, so the image family's
    universal lower bound (from :func:`certify_woven` on the returned
    pair) can only improve on the original's, while its upper bound
    grows at most by ||U^*||^2.  Raises InvalidInput when U is not
    finite or when U F or U K overflows binary64.
    """
    d, _ = require_same_shape(frames)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise ShapeMismatch(f"U must be {d}x{d}, got {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidInput("U contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        images = [u @ f.matrix for f in frames]
        uk = u @ k.matrix
    for i, image in enumerate(images):
        if not np.isfinite(image).all():
            raise InvalidInput(f"the image U F of frame {i + 1} overflows binary64")
    if not np.isfinite(uk).all():
        raise InvalidInput("the operator U K overflows binary64")
    return [Frame(image) for image in images], KOperator(uk)
