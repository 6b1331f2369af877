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


def test_benchmark_checks_pass_on_every_perturb_check_call(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    ops = [op for op in workloads.cli_batch(1, str(tmp_path), str(tmp_path))
           if op.argv[0] == "perturb-check"]
    assert len(ops) == workloads.BATCH_INSTANCES
    for op in ops:
        assert main(op.argv) == op.expect_rc, capsys.readouterr().err
        with open(op.out, encoding="utf-8") as fh:
            assert op.check(json.load(fh)) == [], op.argv
