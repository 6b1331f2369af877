"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the root."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def _tree(root: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.mark.parametrize("workload", ["weave-dense", "cli-batch"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    trees = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        indir, outdir = tmp_path / sub / "in", tmp_path / sub / "out"
        indir.mkdir(parents=True)
        outdir.mkdir()
        ops = workloads.WORKLOADS[workload](seed, str(indir), str(outdir))
        trees.append((_tree(str(indir)), [op.expect_rc for op in ops]))
    assert trees[0] == trees[1]
    assert trees[0][0] != trees[2][0]


def test_cli_batch_predicts_both_exit_codes(tmp_path):
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    ops = workloads.cli_batch(3, str(tmp_path / "in"), str(tmp_path / "out"))
    assert len(ops) == 5 * workloads.BATCH_INSTANCES
    for sub in ("frame-bounds", "kframe-check", "weave-certify", "perturb-check", "douglas"):
        assert {op.expect_rc for op in ops if op.argv[0] == sub} == {0, 1}


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_reference_weaving_table_matches_library():
    from kweave.frames import Frame
    from kweave.kframe import KOperator
    from kweave.weaving import weaving_bound_table

    rng = np.random.default_rng(5)
    f1, f2, k = _complex(rng, 3, 4), _complex(rng, 3, 4), _complex(rng, 3, 3)
    f1[:, 1] = 0.0  # some weavings miss a direction: their lower bound is 0
    f1[:, 2] = 0.0
    table = weaving_bound_table([Frame(f1), Frame(f2)], KOperator(k), threads=1)
    digits = ref.partition_digits(2, 4)
    lowers, uppers = ref.weaving_table(np.stack([f1, f2]), k, digits)
    np.testing.assert_array_equal(table.digits, digits)
    assert (lowers == 0.0).any() and (lowers > 0.1).any()
    np.testing.assert_allclose(table.lowers, lowers, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(table.uppers, uppers, rtol=1e-9)


def test_reference_douglas_matches_library():
    from kweave.kframe import douglas_check

    rng = np.random.default_rng(6)
    l2 = np.zeros((5, 6), dtype=complex)
    l2[:4] = _complex(rng, 4, 6)
    l1 = np.zeros((5, 2), dtype=complex)
    l1[:4] = _complex(rng, 4, 2)
    report = douglas_check(l1, l2)
    assert report.range_included
    assert report.lambda_sq == pytest.approx(ref.douglas_lambda_sq(l1, l2), rel=1e-6)
    l1[4, 0] = 1.0
    assert ref.douglas_lambda_sq(l1, l2) == np.inf
    assert not douglas_check(l1, l2).range_included


def test_tracer_counts_and_restores():
    import kweave.weaving as weaving
    from kweave.frames import Frame
    from kweave.kframe import KOperator

    rng = np.random.default_rng(9)
    original = weaving.pencil_lower_bounds
    eigvalsh = np.linalg.eigvalsh
    frames = [Frame(_complex(rng, 3, 5)), Frame(_complex(rng, 3, 5))]
    k = KOperator(_complex(rng, 3, 3))
    tracer = Tracer()
    with tracer.install():
        weaving.certify_woven(frames, k, threads=1)
    assert weaving.pencil_lower_bounds is original
    assert np.linalg.eigvalsh is eigvalsh
    layer = tracer.layer_metrics()
    assert layer["weaving.table.partitions"] == 32
    assert layer["weaving.lammax.eig_rows"] == 32
    assert layer["kframe.pencil.stack_rows"] == 32
    assert layer["kframe.pencil.eig_rows_per_row"] > 10
    assert 0 < layer["kframe.pencil.busy_s"] <= layer["weaving.table.wall_s"]
    # Self times partition the top-level spans: they add up to their durations.
    roots = [s for s in tracer.spans if s[4] == 0]
    assert {s[1] for s in roots} == {"weaving.weaving_bound_table", "weaving.report_from_table"}
    total = sum(layer[f"{name}.self_s"] for name in LAYERS)
    assert total == pytest.approx(sum(s[3] - s[2] for s in roots), rel=1e-9)


def test_tail_has_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) is None
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(500)]) == (489.0, 98.0, 10)
    assert run.tail([float(i) for i in range(10_000)]) == (9989.0, 99.9, 10)


def test_setup_slots_spread_over_the_run():
    sampler = run.SetupSampler([], 36.0, repeats=9)
    assert sampler.slots == pytest.approx([2.0 + 4.0 * i for i in range(9)])
