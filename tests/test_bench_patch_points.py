"""What the benchmark relies on in the library must stay in place.

``bench/spans.py`` replaces public names where their callers look them
up and restores them on exit.  A change that deletes or renames one of
those names, or stops passing the pencil its stack first, breaks the
traced benchmark.  The benchmark also writes and reads partition labels
with its own rule, and checks the fields of the reports it reads.  These
tests make any such drift fail the main suite as well.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import kweave.kframe
import kweave.weaving
from kweave.cli import main
from kweave.frames import Frame
from kweave.kframe import KOperator
from kweave.weaving import Partition, certify_woven, weaving_bound_table

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    pencil = kweave.weaving.pencil_lower_bounds
    eigvalsh = np.linalg.eigvalsh
    tracer = spans.Tracer()
    with tracer.install():
        assert kweave.weaving.pencil_lower_bounds is not pencil
        assert np.linalg.eigvalsh is not eigvalsh
        # The frames differ on every column, so all 4 partitions reach the pencil.
        certify_woven([Frame(np.eye(2)), Frame(2 * np.eye(2))], KOperator(np.eye(2)))
    assert kweave.weaving.pencil_lower_bounds is pencil
    assert np.linalg.eigvalsh is eigvalsh
    assert tracer.counts["kframe.pencil.stack_rows"] == 4
    # The tracer counts every partition of the table, m^n, though column 2
    # is shared and only 2^2 distinct weavings reach the pencil.
    f1 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    tracer = spans.Tracer()
    with tracer.install():
        certify_woven([Frame(f1), Frame(f1 * [2.0, 2.0, 1.0])], KOperator(np.eye(2)))
    assert tracer.counts["weaving.table.partitions"] == 2 ** 3
    assert tracer.counts["kframe.pencil.stack_rows"] == 2 ** 2


def test_tracer_counts_every_sampled_row_in_one_stack(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    shapes = []
    pencil = kweave.kframe.pencil_lower_bounds

    def recording(s_stack, k):
        shapes.append(s_stack.shape)
        return pencil(s_stack, k)

    # The tracer wraps the kframe name and installs the wrapper in weaving too.
    monkeypatch.setattr(kweave.kframe, "pencil_lower_bounds", recording)
    rng = np.random.default_rng(3)
    frames = [Frame(rng.standard_normal((3, 4))) for _ in range(2)]
    tracer = spans.Tracer()
    with tracer.install():
        # The 2 pure partitions and 3 draws: 5 rows, one chunk.
        weaving_bound_table(frames, KOperator(np.eye(3)), "sampled", budget=3)
    assert shapes == [(5, 3, 3)]
    assert tracer.counts["kframe.pencil.calls"] == 1
    assert tracer.counts["kframe.pencil.stack_rows"] == 5


@pytest.mark.parametrize("m", [2, 10, 11, 300])
def test_benchmark_label_rule_matches_the_library(monkeypatch, m):
    monkeypatch.syspath_prepend(str(BENCH))
    reference = importlib.import_module("reference")
    workloads = importlib.import_module("workloads")
    digits = np.random.default_rng(m).integers(0, m, size=(50, 6))
    digits[0], digits[1] = 0, m - 1
    labels = [Partition(tuple(row), m).label() for row in digits]
    assert labels == [reference.digit_string(row, m) for row in digits]
    for row, label in zip(digits, labels):
        assert workloads._digits_of(label, m).tolist() == row.tolist()


def test_benchmark_checks_pass_on_every_cli_batch_op(monkeypatch, tmp_path, capsys):
    # Five calls per instance, one of each subcommand.  The sampled
    # weave-certify ops check exhaustive = false, which a table derives
    # from its free being None, and every perturb-check pair must meet
    # the span hypothesis.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.cli_batch(1, str(tmp_path), str(tmp_path))
    commands = [op.argv[0] for op in ops]
    assert len(ops) == 5 * workloads.BATCH_INSTANCES
    assert {commands.count(c) for c in set(commands)} == {workloads.BATCH_INSTANCES}
    for op in ops:
        assert main(op.argv) == op.expect_rc, capsys.readouterr().err
        with open(op.out, encoding="utf-8") as fh:
            assert op.check(json.load(fh)) == [], op.argv


@pytest.mark.parametrize("seed", [1, 37])
def test_benchmark_checks_pass_on_every_weave_dense_op(monkeypatch, tmp_path, capsys, seed):
    # Every column of the dense family is free, so all 2^14 weavings are
    # distinct; the verdict evaluates only those it cannot place above the
    # least bound.  Seed 37 has the largest proof pass of the seeds tried.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.weave_dense(seed, str(tmp_path), str(tmp_path))
    assert ops
    for op in ops:
        assert main(op.argv) == op.expect_rc, capsys.readouterr().err
        with open(op.out, encoding="utf-8") as fh:
            assert op.check(json.load(fh)) == [], op.argv


def test_benchmark_checks_pass_on_every_weave_structured_op(monkeypatch, tmp_path, capsys):
    # The reports and --csv tables, each against the benchmark's own reference table.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for argv in workloads.example_commands(str(tmp_path)):
        assert main(argv) == 0, capsys.readouterr().err
    ops = workloads.weave_structured(1, str(tmp_path), str(tmp_path))
    assert {op.argv[0] for op in ops} == {"weave-certify", "weave-transform"}
    for op in ops:
        assert main(op.argv) == op.expect_rc, capsys.readouterr().err
        with open(op.out, encoding="utf-8") as fh:
            assert op.check(json.load(fh)) == [], op.argv
        assert op.csv_check(workloads.read_csv(op.csv)) == [], op.argv
