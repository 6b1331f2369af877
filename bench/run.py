#!/usr/bin/env python3
"""kweave benchmark: drives ``kweave.cli.main`` on seeded JSON inputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload weave-dense --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36   # each in turn

Workloads, their metrics and the bound on each end-to-end metric are
listed in ``BENCHMARK.json``.  One client calls the CLI in a closed
loop: the next call starts when the previous one returns.  The program
keeps its default worker pool and BLAS threads (``KWEAVE_THREADS`` is
left as found).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same calls untraced and then traced, reports the per-layer metrics from
the spans, and writes the spans to ``.bench_run/<workload>/spans.json``.
Either way every report and table is checked against the closed-form
reference outside the timed region, and the last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes goes under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref
import workloads
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_run"
#: Fresh interpreters started per run to measure setup_s.
SETUP_REPEATS = 9
#: Share of --seconds the traced run spends on its untraced pass; the
#: traced pass repeats the same calls, then the threads=1 baseline runs.
UNTRACED_SHARE = 0.3
#: Per-layer metrics printed by the traced run but not listed in
#: BENCHMARK.json, because some workloads never enter these layers.
WORKLOAD_SPECIFIC = ("kframe.is_kframe_s", "kframe.douglas_s", "frames.frame_bounds_s",
                     "perturbation.condition_s", "perturbation.certify_s",
                     "generators.paper_example_s", "frames.self_s", "perturbation.self_s",
                     "trace.spans")

SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kweave.cli
from kweave import fileio
from kweave.kframe import KOperator
for kind, path in json.loads(sys.argv[2]):
    if kind == "frame":
        fileio.load_frame(path)
    elif kind == "k":
        KOperator(fileio.load_operator(path))
    else:
        fileio.load_operator(path)
print(time.perf_counter() - start)
"""

_GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _load_program():
    """Import kweave from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kweave", "__init__.py")):
        raise ImportError(f"no kweave sources under {SRC}")
    sys.path.insert(0, SRC)
    import kweave
    import kweave.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(kweave.__file__))) != SRC:
        raise ImportError(f"kweave was imported from {kweave.__file__}, not {SRC}")
    return kweave.cli


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "KWEAVE_THREADS": os.environ.get("KWEAVE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Session:
    """Runs ops in a closed loop and remembers what each call produced."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        #: (op index, exit code, wall s, process CPU s, error) per call, in
        #: order; calls [j * len(ops), (j + 1) * len(ops)) are cycle j.
        self.calls: list[tuple[int, int | None, float, float, str | None]] = []
        self._first: dict[int, tuple[str, str | None]] = {}

    def _digest(self, path: str, normalize: bool) -> str | None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        return hashlib.sha256(_GENERATED_AT.sub(b"", data) if normalize else data).hexdigest()

    def run(self, *, seconds: float | None = None, cycles: int | None = None,
            min_cycles: int = 1, tracer=None, between=None) -> float:
        """Call every op once per cycle; return the wall time of the calls.

        Stops after ``cycles`` cycles, or once ``min_cycles`` are done and
        the longest cycle so far would overrun ``seconds``.  Whole cycles
        keep the mix of calls the same in every run.  ``between(elapsed)``,
        if given, runs before each call; its time counts towards
        ``seconds`` but not towards the calls' wall time.
        """
        longest = 0.0
        done = 0
        first = len(self.calls)
        start = time.perf_counter()
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            while True:
                now = time.perf_counter()
                if cycles is not None and done >= cycles:
                    break
                if cycles is None and done >= min_cycles and now - start + longest > seconds:
                    break
                for index, op in enumerate(self.ops):
                    if between is not None:
                        between(time.perf_counter() - start)
                    self._call(index, op, tracer)
                longest = max(longest, time.perf_counter() - now)
                done += 1
        return sum(call[2] for call in self.calls[first:])

    def _call(self, index: int, op, tracer) -> None:
        error = None
        if tracer is not None:
            tracer.op = len(self.calls) + 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(op.argv)
        except Exception as exc:  # a crash is a failed call, not a dead run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        error = error or self._compare(index, op, tracer)
        self.calls.append((index, rc, latency, cpu, error))

    def _compare(self, index: int, op, tracer) -> str | None:
        """Byte-compare this call's outputs with the op's first call."""
        report = self._digest(op.out, normalize=True)
        table = self._digest(op.csv, normalize=False) if op.csv else None
        if tracer is not None and op.csv:
            tracer.add("cli.csv_bytes", os.path.getsize(op.csv))
        if report is None:
            return "no report written"
        if index not in self._first:
            self._first[index] = (report, table)
            shutil.copyfile(op.out, op.out + ".first")
            return None
        if self._first[index] != (report, table):
            return "outputs differ from the first call's (generated_at aside)"
        return None

    def verify(self) -> tuple[int, int, dict[int, int], list[str]]:
        """(attempted, failed, partitions per op, messages) over every call."""
        problems: dict[int, list[str]] = {}
        partitions: dict[int, int] = {}
        for index in self._first:
            op = self.ops[index]
            with open(op.out + ".first", encoding="utf-8") as fh:
                report = json.load(fh)
            try:
                errors = op.check(report)
                if op.csv_check is not None:
                    errors += op.csv_check(workloads.read_csv(op.csv))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                errors = [f"malformed report: {type(exc).__name__}: {exc}"]
            problems[index] = errors
            res = report.get("result", {})
            partitions[index] = int(res.get("partitions_checked")
                                    or res.get("measured", {}).get("partitions_checked") or 0)
        messages, failed = [], 0
        for n, (index, rc, _, _, error) in enumerate(self.calls):
            op = self.ops[index]
            errors = list(problems.get(index, []))
            if rc != op.expect_rc:
                errors.append(f"exit code {rc}, reference predicts {op.expect_rc}")
            if error:
                errors.append(error)
            if errors:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"call {n} ({' '.join(op.argv[:2])}): {'; '.join(errors)}")
        return len(self.calls), failed, partitions, messages


#: Percentiles the tail latency is taken from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0)


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples beyond) at the highest of TAIL_PERCENTILES
    that has at least ten samples beyond it, by nearest rank; None when
    none has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(np.ceil(round(pct / 100.0 * n, 9)))
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return None


class SetupSampler:
    """Times set-up in fresh interpreters at slots spread evenly over a run.

    Each sample is a new interpreter importing kweave.cli, loading every
    input and constructing each KOperator.  The host's speed switches
    between a fast and a ~1.8x slower phase that last seconds to tens of
    seconds, so samples taken back to back would all land in one phase;
    spread over the run, they see the same mix of phases as the calls do.
    Their mean moves smoothly with that mix, where the median of so
    bimodal a sample jumps between the two phases' times.
    """

    def __init__(self, ops, seconds: float, repeats: int = SETUP_REPEATS) -> None:
        inputs = sorted({item for op in ops for item in op.inputs()})
        self.argv = [sys.executable, "-c", SETUP_CHILD, SRC, json.dumps(inputs)]
        self.slots = [(i + 0.5) * seconds / repeats for i in range(repeats)]
        self.times: list[float] = []

    def _sample(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120,
                              check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def __call__(self, elapsed: float) -> None:
        """Take every sample whose slot has come by ``elapsed`` seconds."""
        while len(self.times) < len(self.slots) and elapsed >= self.slots[len(self.times)]:
            self._sample()

    def finish(self) -> list[float]:
        """Take the samples a run ended too early for; return them all."""
        while len(self.times) < len(self.slots):
            self._sample()
        return self.times


def prepare(cli, workload: str, seed: int):
    """Write the seeded inputs and return (ops, warm-up argvs)."""
    base = os.path.join(WORK, workload)
    shutil.rmtree(base, ignore_errors=True)
    indir, outdir = os.path.join(base, "in"), os.path.join(base, "out")
    os.makedirs(indir)
    os.makedirs(outdir)
    if workload == "weave-structured":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for argv in workloads.example_commands(indir):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"kweave {' '.join(argv)} failed")
    ops = workloads.WORKLOADS[workload](seed, indir, outdir)
    return ops, workloads.warmup_argvs(workload, ops, outdir)


def warm_up(cli, argvs) -> None:
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            cli.main(argv)


def end_to_end(cli, workload: str, seed: int, seconds: float):
    ops, warm = prepare(cli, workload, seed)
    warm_up(cli, warm)
    session = Session(cli, ops)
    sampler = SetupSampler(ops, seconds)
    # Two cycles at least, so that every op repeats and its outputs can be
    # compared byte for byte with the first call's.
    busy = session.run(seconds=seconds, min_cycles=2, between=sampler)
    setup = sampler.finish()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, partitions, messages = session.verify()
    # Every metric is over the whole run rather than a median of a few
    # cycles: the host's speed drifts by tens of percent over seconds,
    # and only the whole run averages over that drift.  An op's latency
    # is the median of its repeats, which drops a repeat the host stalled;
    # the p50 and tail are taken over the workload's ops.  Set-up is the
    # mean of its samples, for the reason given in SetupSampler.
    repeats = [[] for _ in ops]
    for index, _, latency, _, _ in session.calls:
        repeats[index].append(latency)
    latencies = [statistics.median(r) for r in repeats]
    tail_value, tail_pct, beyond = tail(latencies) or (statistics.median(latencies), 50.0,
                                                       len(latencies) // 2)
    cycles = attempted // len(ops)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": attempted / busy,
        "partitions_per_s": cycles * sum(partitions.values()) / busy,
        "cpu_s_per_op": sum(c[3] for c in session.calls) / attempted,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.fmean(setup),
    }
    notes = {
        "calls": attempted,
        "cycles": cycles,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "setup_samples_s": setup,
        "busy_s": busy,
    }
    return attempted, failed, messages, metrics, notes


def threads1_baseline(seed: int) -> tuple[dict, list[str]]:
    """Certify the seed's weave-dense family with threads=1, traced."""
    from kweave.frames import Frame
    from kweave.kframe import KOperator
    from kweave.weaving import certify_woven

    f1, f2, k = workloads.dense_instance(seed)
    frames, kop = [Frame(f1), Frame(f2)], KOperator(k)
    tracer = Tracer()
    with tracer.install():
        report = certify_woven(frames, kop, threads=1)
    layer = tracer.layer_metrics()
    stack = np.stack([f1, f2])
    lowers, uppers = ref.weaving_table(stack, k, ref.partition_digits(2, stack.shape[2]))
    errors = []
    if not (report.woven and abs(report.universal_lower - lowers.min())
            <= 1e-6 * lowers.min() and abs(report.universal_upper - uppers.max())
            <= 1e-9 * uppers.max()):
        errors.append("threads=1 certification disagrees with the reference")
    return {"weaving.table.wall_s.threads1": layer["weaving.table.wall_s"],
            "kframe.pencil.busy_s.threads1": layer["kframe.pencil.busy_s"]}, errors


def traced(cli, workload: str, seed: int, seconds: float):
    # Input generation is traced on its own, so that only the bundled
    # examples' generator shows in the per-layer numbers.
    setup_tracer = Tracer()
    with setup_tracer.install():
        ops, warm = prepare(cli, workload, seed)
    warm_up(cli, warm)
    session = Session(cli, ops)
    plain = session.run(seconds=UNTRACED_SHARE * seconds)
    count = len(session.calls)
    tracer = Tracer()
    with tracer.install():
        with_trace = session.run(cycles=count // len(ops), tracer=tracer)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = with_trace / plain
    metrics["generators.paper_example_s"] = (
        setup_tracer.layer_metrics()["generators.paper_example_s"])
    baseline, baseline_errors = threads1_baseline(seed)
    metrics.update(baseline)
    attempted, failed, _, messages = session.verify()
    attempted += 1
    failed += bool(baseline_errors)
    messages += baseline_errors
    with open(os.path.join(WORK, workload, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "traced_calls": count,
                   "setup_spans": setup_tracer.span_records(),
                   "spans": tracer.span_records()}, fh)
    notes = {"untraced_wall_s": plain, "traced_wall_s": with_trace, "traced_calls": count}
    return attempted, failed, messages, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # Each workload in a fresh interpreter, so that peak_rss_mb and
        # warm state are its own.
        return max(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode for name in workloads.WORKLOADS)

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        cli = _load_program()
    except (OSError, ValueError, ImportError) as exc:
        return _fail(str(exc))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = traced if args.trace else end_to_end
    attempted, failed, messages, metrics, notes = run(cli, args.workload, args.seed,
                                                      args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")

    env = environment()
    print(f"workload = {args.workload}  seed = {args.seed}  seconds = {args.seconds:g}  "
          f"trace = {args.trace}")
    for key, value in env.items():
        print(f"env.{key} = {value}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in metrics.items():
        if name in units:
            print(f"{name} = {value:.6g} {units[name]}")
        elif name in WORKLOAD_SPECIFIC:
            print(f"{name} = {value:.6g} (this workload)")
    for name, value in notes.items():
        print(f"{name} = {value}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for message in messages:
        print(f"FAILED {message}")
    with open(os.path.join(WORK, args.workload, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "attempted": attempted, "failed": failed, "metrics": metrics,
                   "notes": notes}, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
