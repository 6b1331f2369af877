"""Span tracing around calls into kweave's modules, from outside the package.

A :class:`Tracer` replaces public names where their callers look them
up (``kweave.cli.weaving_bound_table``, ``kweave.kframe.pencil_lower_bounds``
and so on) with wrappers that record one span per call: name, start,
end, parent span and operation id.  ``numpy.linalg.eigvalsh`` and
``eigh`` are wrapped to count eigensolver rows; a thread-local flag
set by the pencil and Douglas wrappers attributes each count to its
layer.  :meth:`Tracer.install` undoes every replacement on exit, so an
untraced run executes the unmodified program.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "fileio", "generators", "frames", "linalg", "kframe", "weaving",
          "perturbation")

#: Span names whose time counts once per outermost call, keyed by metric.
_BUSY = {
    "fileio.load_s": ("fileio.load_frame", "fileio.load_operator", "fileio.read_json"),
    "fileio.digest_s": ("fileio.file_digest",),
    "fileio.write_s": ("fileio.write_json",),
    "kframe.koperator_init_s": ("kframe.KOperator",),
    "kframe.is_kframe_s": ("kframe.is_kframe",),
    "kframe.douglas_s": ("kframe.douglas_check",),
    "kframe.pencil.busy_s": ("kframe.pencil_lower_bounds",),
    "frames.frame_bounds_s": ("frames.frame_bounds",),
    "linalg.busy_s": tuple(f"linalg.{n}" for n in (
        "as_complex_matrix", "hermitian_part", "spectral_bounds", "operator_norm",
        "numerical_rank", "smallest_positive_singular", "pseudo_inverse")),
    "perturbation.condition_s": ("perturbation.perturbation_condition",),
    "perturbation.certify_s": ("perturbation.perturbation_certify",),
    "generators.paper_example_s": ("generators.paper_example",),
    "weaving.table.wall_s": ("weaving.weaving_bound_table",),
    "weaving.report_s": ("weaving.report_from_table",),
}


class Tracer:
    """Collects spans and counters while installed; safe across pool threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._epoch = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, fn, name: str, *, flag: str | None = None, before=None, after=None):
        """A stand-in for ``fn`` that records a span named ``name``.

        A pool thread has no open span of its own; its spans hang under
        the span the main thread has open while it waits for the pool.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            if before is not None:
                before(tracer, args, kwargs)
            sid = next(tracer._ids)
            stack.append(sid)
            if flag:
                setattr(tracer._local, flag, getattr(tracer._local, flag, 0) + 1)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if flag:
                    setattr(tracer._local, flag, getattr(tracer._local, flag) - 1)
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _eig_counter(self, fn, decomposition: bool):
        tracer = self

        def counted(a, *args, **kwargs):
            ndim = getattr(a, "ndim", 2)
            rows = a.shape[0] if ndim == 3 else 1
            local = tracer._local
            if getattr(local, "douglas", 0):
                tracer.add("kframe.douglas.eig_calls", 1)
            if not decomposition:
                if getattr(local, "pencil", 0):
                    tracer.add("kframe.pencil.eig_rows", rows)
                elif ndim == 3:
                    tracer.add("weaving.lammax.eig_rows", rows)
            return fn(a, *args, **kwargs)

        return counted

    # -- installing ------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Replace the traced names for the duration of the block."""
        import kweave.cli as cli
        import kweave.fileio as fileio
        import kweave.frames as frames
        import kweave.generators as generators
        import kweave.kframe as kframe
        import kweave.linalg as linalg
        import kweave.perturbation as perturbation
        import kweave.weaving as weaving

        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        def traced(owners, attr, name, **kw):
            """Wrap the original once and install it under every owner."""
            wrapped = self.wrap(getattr(owners[0], attr), name, **kw)
            for owner in owners:
                patch(owner, attr, wrapped)

        def bytes_read(tr, args, kwargs):
            tr.add("fileio.bytes_read", os.path.getsize(args[0]))

        def bytes_written(tr, args, kwargs, result):
            tr.add("fileio.bytes_written", os.path.getsize(args[0]))

        def pencil_rows(tr, args, kwargs):
            tr.add("kframe.pencil.calls", 1)
            tr.add("kframe.pencil.stack_rows", args[0].shape[0])

        def table_rows(tr, args, kwargs, table):
            tr.add("weaving.table.partitions", table.digits.shape[0])

        traced([cli], "main", "cli.main")
        traced([fileio], "read_json", "fileio.read_json", before=bytes_read)
        for attr in ("load_frame", "load_operator", "file_digest"):
            traced([fileio], attr, f"fileio.{attr}")
        traced([fileio], "write_json", "fileio.write_json", after=bytes_written)
        traced([cli, generators], "paper_example", "generators.paper_example")
        traced([cli, frames, perturbation, weaving], "frame_bounds", "frames.frame_bounds")
        for attr in ("as_complex_matrix", "hermitian_part", "spectral_bounds",
                     "operator_norm", "numerical_rank", "smallest_positive_singular",
                     "pseudo_inverse"):
            owners = [linalg] + ([perturbation] if attr == "operator_norm" else [])
            traced(owners, attr, f"linalg.{attr}")
        patch(kframe.KOperator, "__init__",
              self.wrap(kframe.KOperator.__init__, "kframe.KOperator"))
        traced([kframe, weaving], "pencil_lower_bounds", "kframe.pencil_lower_bounds",
               flag="pencil", before=pencil_rows)
        traced([cli, kframe, weaving], "is_kframe", "kframe.is_kframe")
        traced([perturbation], "kframe_lower_bound", "kframe.kframe_lower_bound")
        traced([cli], "douglas_check", "kframe.douglas_check", flag="douglas")
        traced([cli, weaving], "weaving_bound_table", "weaving.weaving_bound_table",
               after=table_rows)
        traced([cli, weaving], "report_from_table", "weaving.report_from_table")
        traced([cli], "transformed_family", "weaving.transformed_family")
        traced([perturbation], "certify_woven", "weaving.certify_woven")
        traced([cli, perturbation], "perturbation_condition",
               "perturbation.perturbation_condition")
        traced([cli], "perturbation_certify", "perturbation.perturbation_certify")
        traced([cli, perturbation], "check_orthogonal_alpha",
               "perturbation.check_orthogonal_alpha")
        patch(np.linalg, "eigvalsh", self._eig_counter(np.linalg.eigvalsh, False))
        patch(np.linalg, "eigh", self._eig_counter(np.linalg.eigh, True))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy and self times and counters derived from the spans."""
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            children[s[4]].append(s)

        def has_ancestor(span, names) -> bool:
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] in names:
                    return True
                parent = by_id.get(parent[4])
            return False

        out: dict[str, float] = {key: 0.0 for key in _BUSY}
        out["linalg.calls"] = 0.0
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        out["cli.main.calls"] = 0.0
        table_pencil = 0.0
        for span in self.spans:
            name, dur = span[1], span[3] - span[2]
            for key, names in _BUSY.items():
                if name in names and not has_ancestor(span, names):
                    out[key] += dur
                    if key == "linalg.busy_s":
                        out["linalg.calls"] += 1
            if name == "kframe.pencil_lower_bounds" and has_ancestor(
                    span, ("weaving.weaving_bound_table",)):
                table_pencil += dur
            if name == "cli.main":
                out["cli.main.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += dur - _covered(
                span[2], span[3], children.get(span[0], ()))
        for key in ("kframe.pencil.calls", "kframe.pencil.stack_rows",
                    "kframe.pencil.eig_rows", "weaving.lammax.eig_rows",
                    "weaving.table.partitions", "kframe.douglas.eig_calls",
                    "fileio.bytes_read", "fileio.bytes_written", "cli.csv_bytes"):
            out[key] = float(self.counts.get(key, 0.0))
        stack_rows = out["kframe.pencil.stack_rows"]
        out["kframe.pencil.eig_rows_per_row"] = (
            out["kframe.pencil.eig_rows"] / stack_rows if stack_rows else 0.0)
        wall = out["weaving.table.wall_s"]
        out["weaving.pool_parallelism"] = table_pencil / wall if wall else 0.0
        out["trace.spans"] = float(len(self.spans))
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "start": s[2] - self._epoch,
                 "end": s[3] - self._epoch, "parent": s[4] or None, "op": s[5]}
                for s in self.spans]


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the child spans."""
    total = 0.0
    cursor = start
    for _, _, c_start, c_end, _, _ in sorted(kids, key=lambda s: s[2]):
        lo, hi = max(c_start, cursor), min(c_end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
