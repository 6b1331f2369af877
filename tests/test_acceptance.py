"""Acceptance suite: one test per published criterion.

Each test prints a single ``criterion NN: PASS`` line (visible with
``pytest -rA`` or ``-s``); the pytest verdict line itself is the
pass/fail record.  Random suites use fixed seeds so reruns are exact.
"""

import json
import re
import time

import numpy as np
import pytest

from kweave.cli import main
from kweave.frames import Frame, frame_bounds, frame_operator
from kweave.generators import paper_example
from kweave.kframe import (
    KOperator,
    douglas_check,
    is_kframe,
    kframe_lower_bound,
)
from kweave.linalg import operator_norm
from kweave.perturbation import (
    PerturbationParams,
    check_orthogonal_alpha,
    perturbation_certify,
    perturbation_condition,
    synthesis_gap,
)
from kweave.weaving import (
    Partition,
    certify_woven,
    transformed_family,
    universal_upper_bound,
    weaving_bound_table,
    weaving_family,
)

from oracles import pencil_supremum_closed_form


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_01_example_a_reproduction():
    """example_a at dim 8: exhaustively woven, universal bounds (1, 2).

    The enumerated maximum over all 2^15 weavings is 2 — every basis
    vector occurs at most twice in any weaving — while the sum of the
    individual upper bounds, 3, dominates it as a (non-tight) universal
    upper bound.  Both facts are asserted.
    """
    start = time.perf_counter()
    ex = paper_example("example_a", 8)
    report = certify_woven(ex.frames, ex.k)
    elapsed = time.perf_counter() - start
    assert report.exhaustive and report.partitions_checked == 2 ** 15
    assert report.woven
    assert report.universal_lower == pytest.approx(1.0, abs=1e-8)
    assert report.universal_upper == pytest.approx(2.0, abs=1e-8)
    cap = universal_upper_bound(ex.frames)
    assert cap == pytest.approx(3.0, abs=1e-9)
    assert report.universal_upper <= cap + 1e-8
    assert elapsed < 30.0
    print(f"criterion 01: PASS (woven, bounds ({report.universal_lower:.10f}, "
          f"{report.universal_upper:.10f}), sum-of-uppers {cap:.1f}, {elapsed:.1f}s)")


def test_criterion_02_example_b_reproduction():
    start = time.perf_counter()
    ex = paper_example("example_b", 8)
    report = certify_woven(ex.frames, ex.k)
    elapsed = time.perf_counter() - start
    assert not report.woven
    assert report.failing_partition.label() == "010000000"
    assert report.failing_partition.subset(1) == (1,)
    e2 = np.zeros(8)
    e2[1] = 1.0
    w = report.witness
    assert min(np.linalg.norm(w - e2), np.linalg.norm(w + e2)) <= 1e-6
    assert elapsed < 10.0
    print(f"criterion 02: PASS (not woven, first failing partition "
          f"{report.failing_partition.label()}, witness ~ e2, {elapsed:.1f}s)")


def test_criterion_03_transformed_example_reproduction():
    start = time.perf_counter()
    ex = paper_example("example_pr2", 8)
    base = certify_woven(ex.frames, ex.k)
    assert not base.woven
    moved = certify_woven(*transformed_family(ex.frames, ex.k, ex.u))
    elapsed = time.perf_counter() - start
    assert moved.woven and moved.exhaustive
    assert moved.universal_lower == pytest.approx(1.0, abs=1e-8)
    assert moved.universal_upper == pytest.approx(2.0, abs=1e-8)
    assert elapsed < 30.0
    print(f"criterion 03: PASS (base not woven; image woven with bounds "
          f"({moved.universal_lower:.10f}, {moved.universal_upper:.10f}), {elapsed:.1f}s)")


def test_criterion_04_sum_of_upper_bounds_property():
    rng = np.random.default_rng(2023_04)
    violations = 0
    partitions = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 13))
        frames = [Frame(_complex(rng, d, n)) for _ in range(2)]
        cap = universal_upper_bound(frames)
        table = weaving_bound_table(frames, include_lower=False)
        partitions += table.uppers.shape[0]
        violations += int(np.count_nonzero(table.uppers > cap + 1e-8))
    assert violations == 0
    print(f"criterion 04: PASS (200 families, {partitions} weavings, "
          f"0 upper-bound violations)")


def test_criterion_05_per_partition_psd_coherence():
    rng = np.random.default_rng(2023_05)
    violations = 0
    checked = 0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(3, 9))
        frames = [Frame(_complex(rng, d, n)) for _ in range(2)]
        k = KOperator(_complex(rng, d, d))
        gram = np.asarray(k.gram)
        table = weaving_bound_table(frames, k)
        for row in range(table.digits.shape[0]):
            m_sigma = weaving_family(frames, table.partition(row)).matrix
            s = m_sigma @ m_sigma.conj().T
            lam_max = float(np.linalg.eigvalsh(s)[-1])
            eps = 1e-9 * (1.0 + lam_max)
            w = float(np.linalg.eigvalsh(s - table.lowers[row] * gram)[0])
            checked += 1
            if w < -eps:
                violations += 1
    assert violations == 0
    print(f"criterion 05: PASS (50 families, {checked} weavings rechecked, "
          f"0 PSD violations)")


def test_criterion_06_bisection_certificate():
    rng = np.random.default_rng(2023_06)
    cert_failures = 0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2 * d, 3 * d + 1))
        f = Frame(_complex(rng, d, n))
        k = KOperator(_complex(rng, d, d))
        a = kframe_lower_bound(f, k)
        s = frame_operator(f)
        gram = np.asarray(k.gram)
        eps = 1e-9 * (1.0 + float(np.linalg.eigvalsh(s)[-1]))
        if float(np.linalg.eigvalsh(s - a * gram)[0]) < -eps:
            cert_failures += 1
        elif a > 0 and float(
            np.linalg.eigvalsh(s - a * (1 + 1e-6) * gram)[0]
        ) >= -eps:
            cert_failures += 1
    assert cert_failures == 0

    worst_rel = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        f = Frame(_complex(rng, d, 2 * d))
        a = kframe_lower_bound(f, KOperator(np.eye(d)))
        lam_min = frame_bounds(f).lower
        worst_rel = max(worst_rel, abs(a - lam_min) / lam_min)
    assert worst_rel <= 1e-8
    print(f"criterion 06: PASS (500 two-sided certificates, 0 failures; "
          f"K=I worst relative error {worst_rel:.2e})")


def test_criterion_07_douglas_suite():
    rng = np.random.default_rng(2023_07)
    for _ in range(200):
        d = int(rng.integers(3, 8))
        r = int(rng.integers(1, d + 1))
        q = int(rng.integers(1, 7))
        l2 = _complex(rng, d, r)
        c = _complex(rng, r, q)
        l1 = l2 @ c
        report = douglas_check(l1, l2)
        assert report.range_included
        assert operator_norm(l2 @ report.factor_c - l1) <= 1e-8 * operator_norm(l1)
        assert report.factor_norm_sq == pytest.approx(report.lambda_sq, rel=1e-6)
        sup = pencil_supremum_closed_form(l2 @ l2.conj().T, l1 @ l1.conj().T)
        assert report.lambda_sq == pytest.approx(1.0 / sup, rel=1e-6)
    for _ in range(100):
        d = int(rng.integers(3, 8))
        r = int(rng.integers(1, d))  # strict subspace
        basis, _ = np.linalg.qr(_complex(rng, d, d))
        l2 = basis[:, :r] @ _complex(rng, r, r)
        l1 = basis[:, r:] @ _complex(rng, d - r, 2) + 0.5 * basis[:, :r] @ _complex(rng, r, 2)
        report = douglas_check(l1, l2)
        assert not report.range_included
        assert not np.isfinite(report.lambda_sq)
    print("criterion 07: PASS (200 inclusions factored within tolerance, "
          "100 non-inclusions with no finite mu)")


def _margin_instance(rng, d):
    """Orthogonal F1 + perturbation shrunk until the condition clears 30%."""
    basis, _ = np.linalg.qr(_complex(rng, d, d))
    scales = np.sqrt(rng.uniform(1.0, 2.0, size=d))
    f1 = Frame(basis * scales)
    alpha = check_orthogonal_alpha(f1).alpha_max
    k = KOperator(_complex(rng, d, d))
    noise = _complex(rng, d, d)
    scale = 0.3
    for _ in range(60):
        f2 = Frame(f1.matrix + scale * noise)
        gap = synthesis_gap(f1, f2)
        report = perturbation_condition(
            f1, f2, k, PerturbationParams(gap, 0.0, 0.0, alpha)
        )
        if report.condition_27_ok and report.lhs_27 <= 0.7 * report.rhs_27:
            return f1, f2, k, PerturbationParams(gap, 0.0, 0.0, alpha)
        scale *= 0.5
    raise AssertionError("could not construct a margin instance")


def test_criterion_08_perturbation_sufficiency():
    start = time.perf_counter()
    rng = np.random.default_rng(2023_08)
    dims = [2 + (i % 5) for i in range(88)] + [12] * 12
    violations = 0
    for d in dims:
        f1, f2, k, params = _margin_instance(rng, d)
        cert = perturbation_certify(f1, f2, k, params)
        assert cert.report.condition_27_ok and cert.report.hypotheses_ok
        ok = (
            cert.measured.woven
            and cert.measured.universal_lower >= cert.report.predicted_lower - 1e-6
            and cert.measured.universal_upper <= cert.report.predicted_upper + 1e-6
        )
        if not ok:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 300.0
    print(f"criterion 08: PASS (100 sufficiency instances incl. 12 at n=d=12, "
          f"0 violations, {elapsed:.1f}s)")


def test_criterion_09_woven_iff_weakly_woven():
    rng = np.random.default_rng(2023_09)
    agreements = 0
    woven_seen = 0
    for trial in range(100):
        d = int(rng.integers(2, 6))
        if trial % 2 == 0:
            n = d + 2
            frames = [Frame(_complex(rng, d, n)) for _ in range(2)]
        else:
            # a zeroed column in frame 2 sinks the weavings that pick it
            n = d
            m1 = _complex(rng, d, n)
            m2 = _complex(rng, d, n)
            m2[:, int(rng.integers(0, n))] = 0.0
            frames = [Frame(m1), Frame(m2)]
        k = KOperator(_complex(rng, d, d))
        report = certify_woven(frames, k)
        woven_seen += int(report.woven)
        weakly = True
        for row in range(2 ** n):
            p = Partition(tuple(int(c) for c in np.base_repr(row, base=2).zfill(n)), 2)
            if not is_kframe(weaving_family(frames, p), k, report.threshold).is_kframe:
                weakly = False
                break
        agreements += int(report.woven == weakly)
    assert agreements == 100
    assert 0 < woven_seen < 100  # both verdicts exercised
    print(f"criterion 09: PASS (100 families, exact verdict agreement, "
          f"{woven_seen} woven / {100 - woven_seen} not)")


def _scrubbed_rerun(argv, out_path):
    assert main(list(argv)) in (0, 1)
    first = out_path.read_bytes()
    assert main(list(argv)) in (0, 1)
    second = out_path.read_bytes()
    scrub = re.compile(rb'"generated_at": "[^"]*"')
    assert scrub.sub(b"@", first) == scrub.sub(b"@", second)
    return json.loads(first)


def test_criterion_10_report_determinism(tmp_path):
    emitted = {}
    for name, dim in (("example_a", 8), ("example_b", 8), ("example_pr2", 8)):
        d = tmp_path / name
        assert main(["paper-example", name, "--dim", str(dim), "--emit", str(d)]) == 0
        emitted[name] = d

    out = tmp_path / "report.json"
    payload = _scrubbed_rerun(
        ["weave-certify", str(emitted["example_a"] / "f1.json"),
         str(emitted["example_a"] / "f2.json"), str(emitted["example_a"] / "k.json"),
         "--out", str(out)], out,
    )
    assert payload["result"]["woven"] is True

    payload = _scrubbed_rerun(
        ["weave-certify", str(emitted["example_b"] / "f1.json"),
         str(emitted["example_b"] / "f2.json"), str(emitted["example_b"] / "k.json"),
         "--out", str(out)], out,
    )
    assert payload["result"]["woven"] is False
    assert payload["result"]["failing_partition"] == "010000000"

    payload = _scrubbed_rerun(
        ["weave-transform", str(emitted["example_pr2"] / "f1.json"),
         str(emitted["example_pr2"] / "f2.json"), str(emitted["example_pr2"] / "k.json"),
         "--u", str(emitted["example_pr2"] / "u.json"), "--out", str(out)], out,
    )
    assert payload["result"]["woven"] is True
    print("criterion 10: PASS (criteria 1-3 reports byte-identical across "
          "reruns, timestamps aside)")
