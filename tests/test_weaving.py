import dataclasses
import math
import os
import re
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kweave.weaving
from kweave.errors import CapExceeded, InvalidInput, InvalidPartition, ShapeMismatch, ZeroK
from kweave.frames import Frame, frame_bounds, frame_operator
from kweave.generators import paper_example
from kweave.kframe import (CERTIFICATE_STEP, NOISE_FLOOR_SCALE, SPANNING_SCALE, KOperator,
                           _summation_error, is_kframe, kframe_lower_bound)
from kweave.weaving import (
    CHUNK,
    PARTITION_CAP,
    Partition,
    WeavingReport,
    WeavingTable,
    _PartialSums,
    _exhaustive_digits,
    _resolve_threads,
    _sample,
    _sampled_digits,
    _weavings,
    certify_woven,
    report_from_table,
    transformed_family,
    weaving_bound_table,
    weaving_family,
)

from oracles import brute_force_weaving


def random_family(rng, d, n, m=2):
    frames = [
        Frame(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
        for _ in range(m)
    ]
    k = KOperator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return frames, k


def two_frame(label):
    """The two-frame partition written as the digit string ``label``."""
    return Partition(tuple(int(c) for c in label), 2)


class TestPartition:
    def test_roundtrip_through_digits(self):
        p = Partition((0, 1, 0, 0, 1), 2)
        assert p.label() == "01001"
        rng = np.random.default_rng(1)
        table = weaving_bound_table(random_family(rng, 2, 5)[0], KOperator(np.eye(2)))
        assert Partition(tuple(table.digits[0b01001].tolist()), 2) == p

    def test_subsets_partition_the_columns(self):
        p = Partition((1, 0, 2, 0), 3)
        assert p.subset(0) == (1, 3)
        assert p.subset(1) == (0,)
        assert p.subset(2) == (2,)
        assert len(p.digits) == 4

    def test_many_frame_digits_use_separators(self):
        p = Partition((0, 11, 2), 12)
        assert p.label() == "0-11-2"

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(InvalidPartition):
            Partition((0, 2), 2)
        with pytest.raises(InvalidPartition):
            Partition((-1, 0), 2)

    @pytest.mark.parametrize("digit", [0.5, 1.0, True, "1", np.float64(1.0), np.bool_(True)])
    def test_rejects_digits_that_are_not_integers(self, digit):
        # A float must not be truncated to a column's frame, nor a str compared with one.
        with pytest.raises(InvalidPartition, match=re.escape(f"digit {digit!r} is not an integer")):
            Partition((digit, 1), 2)

    def test_accepts_numpy_integer_digits(self):
        p = Partition((np.int64(1), np.uint8(0), np.int32(1)), 2)
        assert p.label() == "101"
        assert p == Partition((1, 0, 1), 2)
        assert Partition((np.uint16(11), np.int64(0)), 12).label() == "11-0"

    def test_rejects_empty(self):
        with pytest.raises(InvalidPartition):
            Partition((), 2)
        with pytest.raises(InvalidPartition):
            Partition((0,), 0)


class TestWeavingFamily:
    def test_picks_columns_by_assignment(self):
        ex = paper_example("example_b", 4)
        woven = weaving_family(ex.frames, two_frame("01000"))
        expected = np.zeros((4, 5), dtype=complex)
        expected[0, 0] = 1.0  # e1 from frame 1
        expected[2, 3] = 1.0  # e3
        expected[3, 4] = 1.0  # e4
        np.testing.assert_array_equal(woven.matrix, expected)

    def test_pure_partition_returns_each_frame(self):
        ex = paper_example("example_a", 4)
        m0 = weaving_family(ex.frames, two_frame("0" * 7)).matrix
        m1 = weaving_family(ex.frames, two_frame("1" * 7)).matrix
        np.testing.assert_array_equal(m0, ex.frames[0].matrix)
        np.testing.assert_array_equal(m1, ex.frames[1].matrix)

    def test_shape_validation(self):
        ex = paper_example("example_a", 4)
        with pytest.raises(ShapeMismatch):
            weaving_family(ex.frames, two_frame("000"))
        with pytest.raises(ShapeMismatch):
            weaving_family(ex.frames, Partition((0,) * 7, 3))

    @pytest.mark.parametrize("m, d, n", [(3, 16, 17), (300, 2, 3)])
    def test_gathers_each_column_bit_for_bit(self, m, d, n):
        # m = 3 keeps the digits uint8, and with d*n = 272 > 255 their
        # offsets into the flattened stack do not fit them; m = 300 takes int64.
        rng = np.random.default_rng(m)
        stack = rng.standard_normal((m, d, n)) + 1j * rng.standard_normal((m, d, n))
        digits = _sampled_digits(m, n, 40, 0)
        assert digits.dtype == (np.uint8 if m == 3 else np.int64)
        expected = np.empty((len(digits), d, n), dtype=complex)
        for b, row in enumerate(digits):
            for j, x in enumerate(row):
                expected[b, :, j] = stack[x, :, j]
        gathered = _weavings(stack, digits)
        assert gathered.flags.c_contiguous and gathered.tobytes() == expected.tobytes()
        frames = [Frame(mat) for mat in stack]
        for row, want in zip(digits, expected):
            woven = weaving_family(frames, Partition(tuple(row.tolist()), m))
            assert woven.matrix.tobytes() == want.tobytes()


def test_weaving_bounds_on_interleaved_example():
    ex = paper_example("example_a", 4)
    # both frames agree on even columns, so this alternating pick
    # reproduces frame 2 exactly: bounds (2, 2)
    woven = weaving_family(ex.frames, two_frame("1010101"))
    assert kframe_lower_bound(woven, ex.k) == pytest.approx(2.0, abs=1e-7)
    assert frame_bounds(woven).upper == pytest.approx(2.0, abs=1e-9)
    pure1 = weaving_family(ex.frames, two_frame("0000000"))
    assert (kframe_lower_bound(pure1, ex.k), frame_bounds(pure1).upper) == pytest.approx(
        (1.0, 1.0), abs=1e-7)


def test_universal_upper_is_sum_of_upper_bounds():
    ex = paper_example("example_a", 4)
    assert sum(frame_bounds(f).upper for f in ex.frames) == pytest.approx(3.0, abs=1e-9)
    rng = np.random.default_rng(17)
    frames, k = random_family(rng, 3, 5)
    cap = sum(frame_bounds(f).upper for f in frames)
    table = weaving_bound_table(frames, k)
    assert np.all(table.uppers <= cap + 1e-9 * (1 + cap))


class TestCertifyExampleA:
    def test_matches_brute_force_enumeration(self):
        ex = paper_example("example_a", 4)
        table = weaving_bound_table(ex.frames, ex.k)
        digit_tuples, lowers, uppers = brute_force_weaving(
            [f.matrix for f in ex.frames], np.asarray(ex.k.matrix)
        )
        np.testing.assert_array_equal(
            table.digits, np.array(digit_tuples, dtype=np.uint8)
        )
        np.testing.assert_allclose(table.uppers, uppers, atol=1e-9)
        np.testing.assert_allclose(table.lowers, lowers, atol=1e-6)

    def test_report(self):
        ex = paper_example("example_a", 4)
        report = certify_woven(ex.frames, ex.k)
        assert report.woven
        assert report.exhaustive
        assert report.partitions_checked == 2 ** 7
        assert report.universal_lower == pytest.approx(1.0, abs=1e-7)
        assert report.universal_upper == pytest.approx(2.0, abs=1e-9)
        assert report.failing_partition is None
        assert report.witness is None
        direct = kframe_lower_bound(weaving_family(ex.frames, report.worst_partition), ex.k)
        assert direct == pytest.approx(report.universal_lower, abs=1e-7)


class TestCertifyExampleB:
    def test_first_failing_partition_and_witness(self):
        ex = paper_example("example_b", 4)
        report = certify_woven(ex.frames, ex.k)
        assert not report.woven
        assert report.universal_lower == pytest.approx(0.0, abs=1e-9)
        assert report.failing_partition.label() == "01000"
        w = report.witness
        e2 = np.zeros(4)
        e2[1] = 1.0
        assert min(np.linalg.norm(w - e2), np.linalg.norm(w + e2)) < 1e-6

    def test_failure_means_some_weaving_is_not_a_kframe(self):
        ex = paper_example("example_b", 4)
        report = certify_woven(ex.frames, ex.k)
        bad = weaving_family(ex.frames, report.failing_partition)
        assert not is_kframe(bad, ex.k, report.threshold).is_kframe

    def test_the_witness_is_for_the_tables_own_weaving(self):
        ex = paper_example("example_b", 6)
        table = weaving_bound_table(ex.frames, ex.k)
        report = report_from_table(table)
        assert report.failing_partition.label() == "0100000"
        assert_witness_violates(report, table.stack, table.k)
        # The family comes from the table alone; none can be passed beside it.
        with pytest.raises(TypeError):
            report_from_table(table, ex.frames, ex.k)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_certify_woven_gives_a_witness(self, dim):
        ex = paper_example("example_b", dim)
        report = certify_woven(ex.frames, ex.k)
        assert_witness_violates(report, np.stack([f.matrix for f in ex.frames]), ex.k)

    def test_sampling_finds_the_counterexample(self):
        ex = paper_example("example_b", 4)
        table = weaving_bound_table(ex.frames, ex.k, "sampled", budget=200, seed=0)
        report = report_from_table(table)
        assert not report.woven
        assert not report.exhaustive
        assert report.partitions_checked == 202
        bad = weaving_family(ex.frames, report.failing_partition)
        assert not is_kframe(bad, ex.k, report.threshold).is_kframe


def test_pure_partition_rows_match_single_frame_bounds():
    rng = np.random.default_rng(23)
    frames, k = random_family(rng, 3, 4, m=3)
    table = weaving_bound_table(frames, k)
    n = 4
    for i, f in enumerate(frames):
        row = int(np.nonzero((table.digits == i).all(axis=1))[0][0])
        assert table.lowers[row] == kframe_lower_bound(f, k)
        assert table.uppers[row] == pytest.approx(frame_bounds(f).upper, abs=1e-9)
        assert Partition(tuple(table.digits[row].tolist()), 3).subset(i) == tuple(range(n))


def test_verdict_agrees_with_per_partition_checks():
    rng = np.random.default_rng(31)
    frames, k = random_family(rng, 3, 5)
    report = certify_woven(frames, k)
    verdicts = []
    for row in range(2 ** 5):
        p = two_frame(np.base_repr(row, base=2).zfill(5))
        verdicts.append(
            is_kframe(weaving_family(frames, p), k, report.threshold).is_kframe
        )
    assert report.woven == all(verdicts)


class TestSampledTables:
    def test_structure_and_reproducibility(self):
        rng = np.random.default_rng(47)
        frames, k = random_family(rng, 3, 9)
        t1 = weaving_bound_table(frames, k, "sampled", budget=50, seed=7)
        t2 = weaving_bound_table(frames, k, "sampled", budget=50, seed=7)
        t3 = weaving_bound_table(frames, k, "sampled", budget=50, seed=8)
        assert t1.digits.shape == (52, 9)
        np.testing.assert_array_equal(t1.digits[0], np.zeros(9))
        np.testing.assert_array_equal(t1.digits[1], np.ones(9))
        assert not t1.exhaustive
        np.testing.assert_array_equal(t1.digits, t2.digits)
        np.testing.assert_array_equal(t1.lowers, t2.lowers)
        assert not np.array_equal(t1.digits, t3.digits)

    def test_cap_forces_refusal_only_in_exhaustive_mode(self, monkeypatch):
        rng = np.random.default_rng(53)
        frames, k = random_family(rng, 3, 21)  # 2^21 partitions, past the cap

        def enumerate_nothing(*args):
            raise AssertionError("a family past the cap must be refused before enumeration")

        monkeypatch.setattr(kweave.weaving, "_exhaustive_digits", enumerate_nothing)
        with pytest.raises(CapExceeded, match="exhaustive cap 1048576"):
            weaving_bound_table(frames, k)
        table = weaving_bound_table(frames, k, "sampled", budget=10)
        assert table.digits.shape[0] == 12

    def test_cap_bounds_the_sampled_table(self, monkeypatch):
        # m pure rows plus the budget's draws may not exceed the cap either.
        rng = np.random.default_rng(54)
        frames, k = random_family(rng, 2, 3)

        def draw_nothing(*args):
            raise AssertionError("a table past the cap must be refused before anything is drawn")

        monkeypatch.setattr(kweave.weaving, "_sampled_digits", draw_nothing)
        with pytest.raises(CapExceeded, match="sampled cap 1048576"):
            weaving_bound_table(frames, k, "sampled", budget=PARTITION_CAP)


class TestManyFrames:
    """More than 256 frames: digits must not wrap around."""

    @pytest.fixture(scope="class")
    def frames(self):
        rng = np.random.default_rng(300)
        return [Frame(rng.standard_normal((2, 2))) for _ in range(300)]

    def test_exhaustive_rows_stay_distinct(self, frames):
        table = weaving_bound_table(frames, KOperator(np.eye(2)))
        assert table.digits.shape == (90_000, 2)
        assert np.unique(table.digits, axis=0).shape[0] == 90_000
        assert int(table.digits.max()) == 299

    def test_sampled_mode_runs(self, frames):
        table = weaving_bound_table(frames, KOperator(np.eye(2)), "sampled", budget=20)
        assert table.digits.shape == (320, 2)
        np.testing.assert_array_equal(table.digits[:300, 0], np.arange(300))
        assert table.lowers.shape == (320,)
        assert Partition(tuple(table.digits[299].tolist()), 300).label() == "299-299"


def count_pencil_rows(monkeypatch) -> list[int]:
    """Record the stack size of every pencil call the weaving module makes."""
    sizes = []
    pencil = kweave.weaving.pencil_lower_bounds

    def counted(s_stack, k):
        sizes.append(s_stack.shape[0])
        return pencil(s_stack, k)

    monkeypatch.setattr(kweave.weaving, "pencil_lower_bounds", counted)
    return sizes


def shared_column_family(rng, d, n, m, shared, zero):
    """m random frames holding the same vector on each ``shared`` column, 0 on ``zero``."""
    mats = [rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)) for _ in range(m)]
    for mat in mats[1:]:
        mat[:, shared] = mats[0][:, shared]
    for mat in mats:
        mat[:, zero] = 0.0
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return [Frame(mat) for mat in mats], KOperator(k)


class TestDistinctWeavings:
    """Exhaustive mode evaluates each distinct weaving once."""

    @pytest.mark.parametrize("m, n", [(1, 4), (2, 1), (2, 6), (3, 4), (5, 3), (300, 2)])
    def test_digit_rows_count_in_base_m(self, m, n):
        idx = np.arange(m ** n, dtype=np.int64)
        powers = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
        expected = (idx[:, None] // powers) % m
        digits = _exhaustive_digits(m, n, range(n))
        assert digits.dtype == (np.uint8 if m <= 256 else np.int64)
        np.testing.assert_array_equal(digits, expected)
        # A subset of the columns: the rows of the full table that hold 0 elsewhere.
        columns = list(range(0, n, 2))
        others = [j for j in range(n) if j not in columns]
        np.testing.assert_array_equal(_exhaustive_digits(m, n, columns),
                                      expected[(expected[:, others] == 0).all(axis=1)])

    def test_shared_columns_match_brute_force(self, monkeypatch):
        rng = np.random.default_rng(83)
        frames, k = shared_column_family(rng, d=3, n=6, m=3, shared=[1, 4], zero=[4])
        sizes = count_pencil_rows(monkeypatch)
        table = weaving_bound_table(frames, k)
        assert sum(sizes) == 3 ** 4
        digit_tuples, lowers, uppers = brute_force_weaving(
            [f.matrix for f in frames], k.matrix
        )
        np.testing.assert_array_equal(table.digits, np.array(digit_tuples, dtype=np.uint8))
        np.testing.assert_allclose(table.uppers, uppers, atol=1e-9)
        np.testing.assert_allclose(table.lowers, lowers, atol=1e-6)

    def test_table_keeps_only_its_distinct_weavings(self):
        rng = np.random.default_rng(37)
        frames, k = shared_column_family(rng, d=3, n=5, m=3, shared=[0, 3], zero=[3])
        table = weaving_bound_table(frames, k)
        np.testing.assert_array_equal(table.free, [1, 2, 4])
        np.testing.assert_array_equal(table.evaluated_digits, _exhaustive_digits(3, 5, [1, 2, 4]))
        assert table.evaluated_lowers.shape == table.evaluated_uppers.shape == (27,)
        assert len(table) == 3 ** 5
        # Every row, built on request, takes the bounds of its free digits' weaving.
        np.testing.assert_array_equal(table.digits, _exhaustive_digits(3, 5, range(5)))
        index = table.digits[:, [1, 2, 4]] @ np.array([9, 3, 1])
        np.testing.assert_array_equal(table.weights, [0, 9, 3, 0, 1])
        np.testing.assert_array_equal(table.lowers, table.evaluated_lowers[index])
        np.testing.assert_array_equal(table.uppers, table.evaluated_uppers[index])

    @pytest.mark.parametrize("m, n, shared, zero, free", [
        pytest.param(2, 9, [0, 4, 8], [4, 6], [1, 2, 3, 5, 7], id="2-frames"),
        pytest.param(11, 4, [1], [3], [0, 2], id="11-frames"),
        pytest.param(3, 4, [0, 1, 2, 3], [], [], id="all-shared"),
    ])
    def test_weights_map_every_row_to_its_weaving(self, m, n, shared, zero, free):
        rng = np.random.default_rng(m * n)
        frames, k = shared_column_family(rng, d=2, n=n, m=m, shared=shared, zero=zero)
        table = weaving_bound_table(frames, k)
        np.testing.assert_array_equal(table.free, free)
        assert len(table) == m ** n
        evaluated = len(table.evaluated_digits)
        np.testing.assert_array_equal(table.evaluated_digits @ table.weights, np.arange(evaluated))
        index = table.digits @ table.weights
        assert index.min() == 0 and index.max() == m ** len(free) - 1 == evaluated - 1
        # Every row's weaving is, bit for bit, that of the evaluated row it maps to.
        stack = np.stack([f.matrix for f in frames])
        full = _weavings(stack, table.digits)
        mapped = _weavings(stack, table.evaluated_digits)[index]
        np.testing.assert_array_equal(full.view(np.uint64), mapped.view(np.uint64))

    def test_identical_frames_send_one_row_to_the_pencil(self, monkeypatch):
        sizes = count_pencil_rows(monkeypatch)
        report = certify_woven([Frame(np.eye(2)), Frame(np.eye(2))], KOperator(np.eye(2)))
        assert sizes == [1]
        assert report.partitions_checked == 4
        assert report.worst_partition.digits == (0, 0)

    def test_sign_of_zero_keeps_a_column_free(self, monkeypatch):
        f1 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        f2 = f1.copy()
        f2[0, 1] = -0.0
        sizes = count_pencil_rows(monkeypatch)
        table = weaving_bound_table([Frame(f1), Frame(f2)], KOperator(np.eye(2)))
        assert sizes == [2]
        assert table.digits.shape == (8, 3)

    def test_worker_count_leaves_the_table_bitwise_equal(self):
        rng = np.random.default_rng(29)
        frames, k = shared_column_family(rng, d=3, n=13, m=2, shared=[2, 7], zero=[7])
        assert 2 ** 11 > CHUNK  # the distinct rows span two chunks
        t1 = weaving_bound_table(frames, k, threads=1)
        t2 = weaving_bound_table(frames, k, threads=2)
        np.testing.assert_array_equal(t1.digits, t2.digits)
        np.testing.assert_array_equal(t1.lowers, t2.lowers)
        np.testing.assert_array_equal(t1.uppers, t2.uppers)


def assert_reports_equal(a, b):
    """Every field of two reports, floats and witness bit for bit."""
    for field in dataclasses.fields(WeavingReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, (float, np.ndarray)):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name
        else:
            assert x == y, field.name


def _gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _k_with_spectrum(rng, sigmas):
    d = len(sigmas)
    q1, q2 = np.linalg.qr(_gauss(rng, d, d))[0], np.linalg.qr(_gauss(rng, d, d))[0]
    return KOperator((q1 * np.asarray(sigmas)) @ q2.conj().T)


def pruned_case(name):
    """(frames, K, threshold) of a family with more than one chunk of distinct weavings."""
    rng = np.random.default_rng(7)
    spectrum = [1.0, 0.6, 0.3, 0.1]
    if name in ("m=2", "threshold"):
        mats = [_gauss(rng, 4, 11) for _ in range(2)]
    elif name == "m=3":
        mats = [_gauss(rng, 4, 7) for _ in range(3)]
    elif name == "rank-deficient K":
        mats, spectrum = [_gauss(rng, 4, 11) for _ in range(2)], [1.0, 0.5, 0.0, 0.0]
    elif name == "near-singular on ker K*":
        # As "near-singular" at 1e-5, but K misses e3: a weaving that takes F2's
        # column 0 is off the solve route, though most of their bounds lie far
        # above the least, so only the route keeps them from pending.
        f1, f2 = _gauss(rng, 3, 11), _gauss(rng, 3, 11)
        f1[2, 1:] = f2[2, :] = 0.0
        f2[:, 0] = f1[:, 1] + 1e-5 * np.array([0, 0, 1])
        v = np.linalg.qr(_gauss(rng, 3, 3))[0]
        return [Frame(f1), Frame(f2)], KOperator(np.diag([1.0, 0.5, 0.0]) @ v), None
    elif name.startswith("near-singular"):
        # Column 0 of F2 is nearly column 1 of F1, and every other column
        # lies in span{e1, e2}: a weaving that takes it barely reaches e3.
        f1, f2 = _gauss(rng, 3, 11), _gauss(rng, 3, 11)
        f1[2, 1:] = f2[2, :] = 0.0
        f2[:, 0] = f1[:, 1] + float(name.split()[-1]) * np.array([0, 0, 1])
        mats, spectrum = [f1, f2], [1.0, 0.5, 0.2]
    elif name == "zero column":
        mats = [_gauss(rng, 4, 11) for _ in range(2)]
        mats[0][:, 3] = 0.0
    else:  # every row has the same S, bit for bit
        f1 = _gauss(rng, 4, 11)
        mats = [f1, f1 * np.where(np.arange(11) == 4, 1.0, -1.0)]
    frames, k = [Frame(mat) for mat in mats], _k_with_spectrum(rng, spectrum)
    threshold = None
    if name == "threshold":
        lowers = weaving_bound_table(frames, k, every_row=True).evaluated_lowers
        threshold = float(np.quantile(lowers, 0.3))
        assert lowers.min() < threshold < lowers.max()
    return frames, k, threshold


PRUNED_CASES = ["m=2", "m=3", "rank-deficient K", "near-singular 1e-6", "near-singular 1e-3",
                "near-singular on ker K*", "zero column", "threshold", "ties"]


def screen_trap(name, seed):
    """(frames, K) whose worst weaving has one of the largest lambda_min(S) of the table.

    K = diag(1, 0.1), or diag(1, 0) for "rank-deficient K".  F1's columns
    (1, 0.1*(-1)^j) are strong along K's strong direction e1 and weak
    across it, F2's (0.5, 0.3*(-1)^j) the other way round, and "m=3" adds
    F3's (0.75, 0.2*(-1)^j) between them.  So the all-F2 weaving has the
    least bound but not a small screen, and the CHUNK rows with the
    smallest screens cannot hold it; nor does the seeded sample of
    :func:`~kweave.weaving._sample`.  Seeded noise of 1e-3 breaks the ties.
    """
    rng = np.random.default_rng(seed)
    columns = [(1.0, 0.1), (0.5, 0.3), (0.75, 0.2)]
    m, n = (3, 9) if name == "m=3" else (2, 14)
    sign = (-1.0) ** np.arange(n)
    frames = [Frame(np.stack([np.full(n, a), b * sign]) + 1e-3 * rng.standard_normal((2, n)))
              for a, b in columns[:m]]
    return frames, KOperator(np.diag([1.0, 0.0 if name == "rank-deficient K" else 0.1]))


SCREEN_TRAPS = ["m=2", "m=3", "rank-deficient K"]


def upper_trap():
    """(frames, K) whose rows tie on lambda_max(S) within CERTIFICATE_STEP, with one largest.

    Column 0, shared, is 1e3*e1, and every other column lies in
    span{e2, e3} but for an e1 part of 0.1 that only F2 holds.  So every
    lambda_max(S) is 1e6 plus at most 0.11, the all-F2 weaving's, while
    the lower bounds against K, the projection onto span{e2, e3}, follow
    the free columns' spread.
    """
    rng = np.random.default_rng(4)
    mats = [np.zeros((3, 12), dtype=complex) for _ in range(2)]
    for i, mat in enumerate(mats):
        mat[0, 0] = 1e3
        mat[0, 1:] = 0.1 * i
        mat[1:, 1:] = rng.standard_normal((2, 11)) + 1j * rng.standard_normal((2, 11))
    return [Frame(mat) for mat in mats], KOperator(np.diag([0.0, 1.0, 1.0]))


def assert_witness_violates(report, stack, k):
    """The witness is a unit f with <S f, f> < T ||K^* f||^2 for the failing weaving of ``stack``."""
    assert not report.woven
    digits = np.array(report.failing_partition.digits)
    w = stack[digits, :, np.arange(len(digits))].T  # column j from frame digits[j]
    f = report.witness
    assert f is not None and np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    energy = np.linalg.norm(w.conj().T @ f) ** 2
    assert energy < report.threshold * np.linalg.norm(k.matrix.conj().T @ f) ** 2


class TestPrunedTables:
    """A table past one chunk evaluates only the rows that can decide the verdict."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name", PRUNED_CASES)
    def test_pruned_report_equals_the_fully_read_one(self, name, threads):
        frames, k, threshold = pruned_case(name)
        table = weaving_bound_table(frames, k, threads=threads)
        assert len(table.evaluated_digits) > CHUNK
        pruned = report_from_table(table, threshold)
        if not pruned.woven:
            assert_witness_violates(pruned, table.stack, table.k)
        pending = np.isinf(table.lowers_below(table.proved_level))
        lowers = table.evaluated_lowers
        assert not np.isinf(lowers).any() and table.proved_level == np.inf
        assert_reports_equal(pruned, report_from_table(table, threshold))
        # Every row a full build gives, bit for bit, and the same rows pending at any count.
        full = weaving_bound_table(frames, k, every_row=True)
        np.testing.assert_array_equal(lowers, full.evaluated_lowers)
        np.testing.assert_array_equal(table.evaluated_uppers, full.evaluated_uppers)
        one = weaving_bound_table(frames, k, threads=1)
        report_from_table(one, threshold)
        np.testing.assert_array_equal(np.isinf(one.lowers_below(one.proved_level)), pending)
        sample = _sample(len(pending))
        takes_f2_column_0 = table.evaluated_digits[:, 0] == 1
        if name == "ties":
            assert not pending.any() and pruned.worst_partition.digits == (0,) * 11
        elif name.startswith("near-singular"):
            # The sample and the half of the rows that take F2's column 0 are
            # evaluated; every other row pends unless its bound lies below U.
            could = ~takes_f2_column_0 & (lowers >= lowers[sample].min())
            could[sample] = False
            np.testing.assert_array_equal(pending, could)
        else:
            assert not pending[sample].any() and pending.sum() >= len(pending) // 2
        if name in ("near-singular 1e-6", "near-singular on ker K*"):
            # Those rows are off the solve route, so none pends, however high its bound.
            s = frame_operator(_weavings(table.stack, table.evaluated_digits[takes_f2_column_0]))
            lam = np.linalg.eigvalsh(s)
            assert (lam[:, 0] <= SPANNING_SCALE * lam[:, -1]).all()
            assert not pending[takes_f2_column_0].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", SCREEN_TRAPS)
    def test_the_report_finds_a_worst_row_past_the_smallest_screens(self, name, seed):
        frames, k = screen_trap(name, seed)
        full = weaving_bound_table(frames, k, every_row=True)
        lowers = full.evaluated_lowers
        worst = int(np.argmin(lowers))
        assert full.evaluated_digits[worst].tolist() == [1] * len(full.evaluated_digits[0])
        # The screens, up to the factor 1 / ||KK^*||: at least CHUNK rows lie
        # below the worst row's, so a screen would not place it among the
        # incumbent's rows, and the seeded sample does not hold it either.
        lam = np.linalg.eigvalsh(frame_operator(_weavings(full.stack, full.evaluated_digits)))
        screens = lam[:, 0] - NOISE_FLOOR_SCALE * lam[:, -1]
        assert np.count_nonzero(screens < screens[worst]) >= CHUNK
        assert worst not in _sample(len(lowers))
        # At the default threshold and at one between the least and the largest bound.
        for threshold in (None, 0.5 * float(lowers.min() + lowers.max())):
            table = weaving_bound_table(frames, k)
            pruned = report_from_table(table, threshold)
            assert np.isinf(table.lowers_below(table.proved_level)).any()  # rows left pending
            assert_reports_equal(pruned, report_from_table(full, threshold))
        assert_witness_violates(pruned, table.stack, table.k)

    @pytest.mark.parametrize("name", ["m=2", "m=3"])
    def test_an_unsound_screen_changes_the_report(self, monkeypatch, name):
        # A lower proof that claims ||KK^*|| / sigma_min(K)^2 = 100 times the
        # level it proves, as sigma_min(K)^2 in place of ||KK^*|| once lifted
        # a screen, leaves rows pending whose bounds lie below the incumbent.
        frames, k = screen_trap(name, 0)
        sound = report_from_table(weaving_bound_table(frames, k))
        proof = kweave.weaving.proved_psd
        monkeypatch.setattr(kweave.weaving, "proved_psd",
                            lambda s, a, floor, k, terms: proof(s, a / 100.0, floor, k, terms))
        unsound = report_from_table(weaving_bound_table(frames, k))
        # Every row outside the sample is left pending, so the report takes
        # the sample's least bound, and the all-F2 row lies outside it.
        lowers = weaving_bound_table(frames, k, every_row=True).evaluated_lowers
        assert unsound.universal_lower == lowers[_sample(len(lowers))].min()
        assert unsound.universal_lower > sound.universal_lower == lowers.min()
        assert unsound.worst_partition != sound.worst_partition

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_report_finds_a_largest_upper_bound_outside_the_sample(self, threads):
        frames, k = upper_trap()
        full = weaving_bound_table(frames, k, every_row=True)
        uppers = full.evaluated_uppers
        top = int(np.argmax(uppers))
        assert full.evaluated_digits[top].tolist() == [0] + [1] * 11
        assert np.count_nonzero(uppers == uppers[top]) == 1
        assert top not in _sample(len(uppers))
        assert uppers[top] < uppers.min() * (1.0 + CERTIFICATE_STEP)  # all tie within the step
        table = weaving_bound_table(frames, k, threads=threads)
        assert_reports_equal(report_from_table(table), report_from_table(full))

    def test_an_unsound_upper_proof_changes_the_report(self, monkeypatch):
        # Proving lambda_max(S) <= B*(1 + step) in place of B*(1 - step)
        # leaves every row outside the sample pending above, the largest too.
        frames, k = upper_trap()
        sound = report_from_table(weaving_bound_table(frames, k))
        proof = kweave.weaving.proved_below
        widen = (1.0 + CERTIFICATE_STEP) / (1.0 - CERTIFICATE_STEP)
        monkeypatch.setattr(kweave.weaving, "proved_below",
                            lambda s, level, terms: proof(s, level * widen, terms))
        unsound = report_from_table(weaving_bound_table(frames, k))
        uppers = weaving_bound_table(frames, k, every_row=True).evaluated_uppers
        assert unsound.universal_upper == uppers[_sample(len(uppers))].max()
        assert unsound.universal_upper < sound.universal_upper == uppers.max()

    def test_rows_open_only_on_the_upper_side_take_no_closed_form(self, monkeypatch):
        # Every row ties on lambda_max(S) within the step, so no upper proof
        # holds, while the lower proof holds for most rows.  Those take one
        # eigvalsh(S) for their upper bound and no pencil row.
        frames, k = upper_trap()
        sizes, spectra = count_pencil_rows(monkeypatch), []
        spectrum_ends = kweave.weaving.spectrum_ends

        def recorded(s_stack):
            spectra.append(len(s_stack))
            return spectrum_ends(s_stack)

        monkeypatch.setattr(kweave.weaving, "spectrum_ends", recorded)
        table = weaving_bound_table(frames, k, threads=1)
        report = report_from_table(table)
        pending = np.isinf(table.lowers_below(table.proved_level))
        assert pending.sum() > len(pending) // 2
        assert sum(sizes) == np.count_nonzero(~pending)
        assert sum(spectra) == np.count_nonzero(pending)
        full = weaving_bound_table(frames, k, every_row=True)
        sizes.clear()
        np.testing.assert_array_equal(table.evaluated_uppers, full.evaluated_uppers)
        assert sizes == [] and report.universal_upper == full.evaluated_uppers.max()
        # Their lower bounds are all above the least one.
        assert (full.evaluated_lowers[pending] > report.universal_lower).all()

    def test_certify_woven_gives_a_witness_past_one_chunk(self):
        # F2 is F1 without its e3 row: of the 2^11 weavings only all-F2 leaves C^3 unspanned.
        rng = np.random.default_rng(3)
        f1 = _gauss(rng, 3, 11)
        f2 = f1 * np.array([[1.0], [1.0], [0.0]])
        frames, k = [Frame(f1), Frame(f2)], _k_with_spectrum(rng, [1.0, 0.5, 0.2])
        report = certify_woven(frames, k)
        assert report.partitions_checked == 2 ** 11 > CHUNK
        assert report.failing_partition.digits == (1,) * 11
        assert_witness_violates(report, np.stack([f1, f2]), k)

    @pytest.fixture(scope="class")
    def dense(self):
        # Its proof pass at build time holds the 3,584 rows outside the sample, in 7 chunks.
        rng = np.random.default_rng(6)
        mats = [_gauss(rng, 8, 12) for _ in range(2)]
        return [Frame(mat) for mat in mats], _k_with_spectrum(rng, np.geomspace(1.0, 0.1, 8))

    def test_the_pencil_sees_only_the_rows_it_must(self, monkeypatch, dense):
        frames, k = dense
        stacks, proofs, pencil = [], [], kweave.kframe.pencil_lower_bounds
        proved_psd = kweave.weaving.proved_psd

        def recorded(s_stack, k):
            stacks.append(s_stack.copy())
            return pencil(s_stack, k)

        def proof(s_stack, *args):
            proofs.append(len(s_stack))
            return proved_psd(s_stack, *args)

        monkeypatch.setattr(kweave.weaving, "pencil_lower_bounds", recorded)
        monkeypatch.setattr(kweave.weaving, "proved_psd", proof)
        table = weaving_bound_table(frames, k, threads=1)
        report = report_from_table(table)
        pending = np.isinf(table.lowers_below(table.proved_level))
        assert sum(proofs) > CHUNK
        evaluated = sum(len(s) for s in stacks)
        assert evaluated == np.count_nonzero(~pending) < len(table) == 4096
        stacks.clear()
        lowers = table.evaluated_lowers
        # The full read evaluates exactly the rows still pending, each once.
        stack = np.stack([f.matrix for f in frames])
        rest = frame_operator(_weavings(stack, table.evaluated_digits[pending]))
        np.testing.assert_array_equal(np.concatenate(stacks), rest)
        assert report.universal_lower == lowers.min()

    def test_threads_sharing_a_table_evaluate_it_once(self, monkeypatch, dense):
        frames, k = dense
        table = weaving_bound_table(frames, k)
        pending = np.count_nonzero(np.isinf(table.lowers_below(table.proved_level)))
        full = weaving_bound_table(frames, k, every_row=True).evaluated_lowers
        sizes = count_pencil_rows(monkeypatch)
        with ThreadPoolExecutor(max_workers=4) as pool:
            reads = [pool.submit(lambda: table.evaluated_lowers.copy()) for _ in range(4)]
            for read in reads:
                np.testing.assert_array_equal(read.result(timeout=120), full)
        assert sum(sizes) == pending

    def test_worker_count_leaves_the_evaluated_rows_alone(self, dense):
        frames, k = dense
        tables = [weaving_bound_table(frames, k, threads=t) for t in (1, 2)]
        pending = [np.isinf(t.lowers_below(t.proved_level)) for t in tables]
        np.testing.assert_array_equal(pending[0], pending[1])
        np.testing.assert_array_equal(tables[0].evaluated_lowers, tables[1].evaluated_lowers)

    def test_a_threshold_above_u_runs_the_lower_proof_alone(self, monkeypatch, dense):
        # The build's pass ran both proofs; a later read needs no upper proof,
        # and a read of every bound no proof at all.
        frames, k = dense
        table = weaving_bound_table(frames, k, threads=1)
        pending = np.isinf(table.lowers_below(table.proved_level))
        rows = {"proved_below": 0, "proved_psd": 0}
        for name in rows:
            def counted(s_stack, *args, name=name, proof=getattr(kweave.weaving, name)):
                rows[name] += len(s_stack)
                return proof(s_stack, *args)
            monkeypatch.setattr(kweave.weaving, name, counted)
        full = weaving_bound_table(frames, k, every_row=True)
        threshold = float(np.median(full.evaluated_lowers[pending]))
        assert_reports_equal(report_from_table(table, threshold),
                             report_from_table(full, threshold))
        assert table.proved_level == threshold * (1.0 + CERTIFICATE_STEP)
        assert rows == {"proved_below": 0, "proved_psd": np.count_nonzero(pending)}
        np.testing.assert_array_equal(table.evaluated_lowers, full.evaluated_lowers)
        assert rows == {"proved_below": 0, "proved_psd": np.count_nonzero(pending)}


def source_case(name):
    """(frames, K, table options) of a family whose table runs the proof pass."""
    if name in PRUNED_CASES:
        return (*pruned_case(name)[:2], {})
    if name.startswith("screen trap"):
        return (*screen_trap(name.removeprefix("screen trap "), 0), {})
    if name == "upper trap":
        return (*upper_trap(), {})
    rng = np.random.default_rng(8)
    if name == "shared tail column":  # column 10 lies among the last nine free ones
        return (*shared_column_family(rng, 4, 12, 2, shared=[10], zero=[]), {})
    if name == "sampled":
        return (*random_family(rng, 4, 11), dict(mode="sampled", budget=1500))
    # m > CHUNK: no tail column, one head sum a row
    frames = [Frame(rng.standard_normal((2, 3))) for _ in range(CHUNK + 1)]
    return frames, KOperator(np.eye(2)), dict(mode="sampled", budget=1000)


NEW_SOURCE_CASES = ["screen trap m=2", "screen trap m=3", "screen trap rank-deficient K",
                    "upper trap", "shared tail column", "sampled", "m > CHUNK"]


def partial_sums(table):
    """The proof passes' S source of ``table``."""
    n = table.stack.shape[2]
    return _PartialSums(table.stack, range(n) if table.free is None else table.free)


class TestPartialSums:
    """The proof passes take S as a head sum plus a tail sum, and prove as on frame_operator's S."""

    @pytest.mark.parametrize("name", PRUNED_CASES + NEW_SOURCE_CASES)
    def test_each_proof_decides_as_on_frame_operators_s(self, monkeypatch, name):
        frames, k, options = source_case(name)
        calls = []
        for proof in ("proved_below", "proved_psd"):
            def recorded(s_stack, *args, proof=proof, original=getattr(kweave.weaving, proof)):
                outcome = original(s_stack, *args)
                calls.append((proof, s_stack.copy(), args, outcome))
                return outcome
            monkeypatch.setattr(kweave.weaving, proof, recorded)
        table = weaving_bound_table(frames, k, threads=1, **options)
        # The build's proof pass ran both proofs on each chunk of the rows outside the sample.
        total = len(table.evaluated_digits)
        digits = np.delete(table.evaluated_digits, _sample(total), axis=0)
        starts = range(0, len(digits), CHUNK)
        assert len(calls) == 2 * len(starts)
        _, _, n = table.stack.shape
        sums = partial_sums(table)
        for start, pair in zip(starts, zip(calls[::2], calls[1::2])):
            chunk = digits[start:start + CHUNK]
            s = frame_operator(_weavings(table.stack, chunk))
            for proof, s_stack, args, outcome in pair:
                assert args[-1] == n
                np.testing.assert_array_equal(s_stack, sums(chunk))
                np.testing.assert_array_equal(getattr(kweave.kframe, proof)(s, *args[:-1]),
                                              outcome)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name", NEW_SOURCE_CASES)
    def test_reports_equal_the_every_row_ones(self, name, threads):
        # PRUNED_CASES are checked so in TestPrunedTables.
        frames, k, options = source_case(name)
        full = weaving_bound_table(frames, k, every_row=True, **options)
        table = weaving_bound_table(frames, k, threads=threads, **options)
        assert len(table.evaluated_digits) > CHUNK
        assert_reports_equal(report_from_table(table), report_from_table(full))
        np.testing.assert_array_equal(table.evaluated_lowers, full.evaluated_lowers)
        np.testing.assert_array_equal(table.evaluated_uppers, full.evaluated_uppers)

    @pytest.mark.parametrize("name", ["m=2", "m=3", "ties", "near-singular 1e-6", "upper trap",
                                      "shared tail column", "sampled", "m > CHUNK"])
    def test_partial_sums_lie_within_the_summation_bound(self, name):
        frames, k, options = source_case(name)
        table = weaving_bound_table(frames, k, every_row=True, **options)
        _, d, n = table.stack.shape
        sums = partial_sums(table)
        for start in range(0, len(table.evaluated_digits), CHUNK):
            chunk = table.evaluated_digits[start:start + CHUNK]
            s, exact = sums(chunk), frame_operator(_weavings(table.stack, chunk))
            trace = np.abs(np.diagonal(s, axis1=1, axis2=2).real).sum(axis=1)
            gap = np.linalg.norm(s - exact, ord=2, axis=(1, 2))
            assert (gap <= _summation_error(trace, d, n)).all()

    @pytest.mark.parametrize("m, columns, t", [
        (2, range(11), 9), (2, range(5), 5), (3, range(9), 5), (7, range(4), 3),
        (CHUNK, range(3), 1), (CHUNK + 1, range(3), 0), (2, [0, 1, 3, 4], 4),
    ])
    def test_the_tail_holds_at_most_one_chunk(self, m, columns, t):
        stack = np.random.default_rng(9).standard_normal((m, 2, 12)).astype(complex)
        sums = _PartialSums(stack, columns)
        assert len(sums.sums) == m ** t <= CHUNK
        assert sums.tail.tolist() == list(columns)[len(columns) - t:]
        assert sorted(sums.head.tolist() + sums.tail.tolist()) == list(range(12))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_s_that_overflows_outside_the_sample_is_refused(self, threads):
        # Each of F2's columns puts max/10.5 on e1, so only the all-F2 row, the
        # last, overflows; it lies outside the sample, and the rest bound 0.
        rng = np.random.default_rng(10)
        f2 = np.zeros((2, 11), dtype=complex)
        f2[0] = math.sqrt(np.finfo(np.float64).max / 10.5)
        f2[1] = rng.standard_normal(11)
        frames, k = [Frame(rng.standard_normal((2, 11))), Frame(f2)], KOperator(np.eye(2))
        assert 2 ** 11 - 1 not in _sample(2 ** 11)
        for every_row in (False, True):
            with pytest.raises(InvalidInput,
                               match=r"^the frame operator S = FF\* overflows binary64$"):
                weaving_bound_table(frames, k, threads=threads, every_row=every_row)

    def test_the_tail_skips_a_shared_column(self):
        frames, k, _ = source_case("shared tail column")
        table = weaving_bound_table(frames, k)
        assert table.free.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11]
        sums = partial_sums(table)
        assert sums.tail.tolist() == [2, 3, 4, 5, 6, 7, 8, 9, 11]
        assert sums.head.tolist() == [0, 1, 10]


def test_threshold_tie_passes():
    frames = [Frame(np.eye(2)), Frame(np.eye(2))]
    k = KOperator(np.eye(2))
    report = report_from_table(weaving_bound_table(frames, k), 1.0)
    assert report.universal_lower == 1.0  # every weaving sits exactly on the threshold
    assert report.woven
    assert report.failing_partition is None
    assert report.witness is None
    assert is_kframe(weaving_family(frames, report.worst_partition), k, 1.0).is_kframe


def test_threshold_tie_at_a_single_frame_agrees_with_its_check():
    # The threshold is F1's own lower bound.  The all-F1 row must tie and
    # pass, as is_kframe does on F1, so the first failing partition is
    # another one, and its witness must violate the threshold inequality.
    frames, k = random_family(np.random.default_rng(0), 4, 6)
    threshold = kframe_lower_bound(frames[0], k)
    assert is_kframe(frames[0], k, threshold).is_kframe
    report = report_from_table(weaving_bound_table(frames, k), threshold)
    assert not report.woven
    assert report.failing_partition.digits != (0,) * 6
    weaving = weaving_family(frames, report.failing_partition)
    assert not is_kframe(weaving, k, threshold).is_kframe
    w = report.witness
    assert w is not None
    energy = np.vdot(w, frame_operator(weaving) @ w).real
    assert energy < threshold * np.linalg.norm(k.matrix.conj().T @ w) ** 2


class TestValidation:
    def test_lower_bounds_need_an_operator(self):
        rng = np.random.default_rng(3)
        frames, k = random_family(rng, 3, 4)
        with pytest.raises(TypeError):
            weaving_bound_table(frames)
        table = weaving_bound_table(frames, k)
        assert table.lowers.shape == (16,)
        assert table.uppers.shape == (16,)

    def test_negative_budget(self):
        rng = np.random.default_rng(4)
        frames, k = random_family(rng, 2, 3)
        with pytest.raises(InvalidInput, match="budget"):
            weaving_bound_table(frames, k, "sampled", budget=-1)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("option, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", True, "seed must be an integer, got True"),
        ("budget", 2.5, "budget must be an integer, got 2.5"),
        ("seed", None, "seed must be an integer, got None"),
    ])
    def test_seed_and_budget_must_be_nonnegative_integers(self, monkeypatch, mode, option,
                                                          value, message):
        rng = np.random.default_rng(4)
        frames, k = random_family(rng, 2, 3)

        def refuse(*args):
            raise AssertionError("an invalid option must be refused before any partition")

        monkeypatch.setattr(kweave.weaving, "_evaluate", refuse)
        with pytest.raises(InvalidInput, match=re.escape(message)):
            weaving_bound_table(frames, k, mode, **{option: value})

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        ex = paper_example("example_b", 4)
        table = weaving_bound_table(ex.frames, ex.k)
        with pytest.raises(InvalidInput, match="threshold"):
            report_from_table(table, threshold)

    def test_dimension_and_zero_k(self):
        rng = np.random.default_rng(5)
        frames, _ = random_family(rng, 3, 4)
        with pytest.raises(ShapeMismatch):
            weaving_bound_table(frames, KOperator(np.eye(4)))
        with pytest.raises(ZeroK):
            weaving_bound_table(frames, KOperator(np.zeros((3, 3))))

    @pytest.mark.parametrize("case", ["columns", "operator", "lowers", "uppers"])
    def test_a_hand_built_table_must_match_its_family(self, case):
        digits = _exhaustive_digits(2, 4, range(4))
        parts = dict(evaluated_digits=digits, evaluated_lowers=np.zeros(16),
                     evaluated_uppers=np.ones(16), stack=np.ones((2, 3, 4), dtype=complex),
                     k=KOperator(np.eye(3)))
        assert report_from_table(WeavingTable(**parts), 0.5).failing_partition == two_frame("0000")
        if case == "columns":
            parts["evaluated_digits"] = digits[:, :3]  # read to gather the failing weaving
        elif case == "operator":
            parts["k"] = KOperator(np.eye(2))
        else:
            parts[f"evaluated_{case}"] = np.zeros(15)
        with pytest.raises(ShapeMismatch):
            WeavingTable(**parts)

    def test_unknown_mode(self):
        rng = np.random.default_rng(7)
        frames, k = random_family(rng, 3, 4)
        with pytest.raises(ValueError):
            weaving_bound_table(frames, k, "everything")


class TestThreads:
    def test_results_do_not_depend_on_worker_count(self):
        rng = np.random.default_rng(61)
        frames, k = random_family(rng, 3, 12)  # 4096 partitions, eight chunks
        t1 = weaving_bound_table(frames, k, threads=1)
        t4 = weaving_bound_table(frames, k, threads=4)
        np.testing.assert_array_equal(t1.lowers, t4.lowers)
        np.testing.assert_array_equal(t1.uppers, t4.uppers)

    def test_no_child_outlives_a_table(self, monkeypatch):
        frames, k = random_family(np.random.default_rng(61), 3, 12)  # eight chunks
        weaving_bound_table(frames, k, threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # The parent's own group of the proof pass raises while the child's succeeds.
        parent, proof = os.getpid(), kweave.weaving.proved_below

        def failing_here(s_stack, level, terms):
            if os.getpid() == parent:
                raise InvalidInput("parent chunk")
            return proof(s_stack, level, terms)

        monkeypatch.setattr(kweave.weaving, "proved_below", failing_here)
        with pytest.raises(InvalidInput, match="^parent chunk$"):
            weaving_bound_table(frames, k, threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # The chunks each pass runs here, by worker count: this process's
    # group, then the failed child's group up to its partial chunk.  Both
    # proofs run on the 1675 rows outside the sample in 4 chunks, and the
    # closed form's last pass on the rows the table left pending, also in 4.
    @pytest.mark.parametrize("threads, parent_chunks", [
        pytest.param(2, {"upper proof": 2 + 1, "lower proof": 2 + 1, "closed form": 2 + 1},
                     id="2-4"),
        pytest.param(3, {"upper proof": 1 + 1, "lower proof": 1 + 1, "closed form": 1 + 1},
                     id="3-2"),
    ])
    def test_a_worker_error_raises_as_with_one_worker(self, monkeypatch, threads,
                                                      parent_chunks):
        frames, k = random_family(np.random.default_rng(5), 2, 7, m=3)
        table = weaving_bound_table(frames, k, threads=1)
        pending = int(np.isinf(table.lowers_below(table.proved_level)).sum())
        # The rows the build evaluates after its sample, and each pass's last chunk.
        opened = 3 ** 7 - CHUNK - pending
        partials = {"upper proof": (3 ** 7 - CHUNK) % CHUNK, "closed form": pending % CHUNK}
        partials["lower proof"] = partials["upper proof"]
        assert 3 ** 7 - CHUNK > 2 * CHUNK and pending > 2 * CHUNK
        assert partials["closed form"] not in (0, opened)

        def build(threads):
            # A level no row reaches sends every row left to the proof
            # pass, which proves none, and then to the closed form.
            table = weaving_bound_table(frames, k, threads=threads)
            table.lowers_below(1e300)

        for step, name in [("upper proof", "proved_below"), ("lower proof", "proved_psd"),
                           ("closed form", "pencil_lower_bounds")]:
            original, sizes, partial = getattr(kweave.weaving, name), [], partials[step]

            def failing_on_partial(s_stack, *args):
                if s_stack.shape[0] == partial:
                    raise InvalidInput(f"chunk of {partial} rows")
                sizes.append(s_stack.shape[0])
                return original(s_stack, *args)

            with monkeypatch.context() as patch:
                patch.setattr(kweave.weaving, name, failing_on_partial)
                with pytest.raises(InvalidInput) as serial:
                    build(1)
                sizes.clear()
                with pytest.raises(InvalidInput) as forked:
                    build(threads)
            assert str(forked.value) == str(serial.value) == f"chunk of {partial} rows"
            # The closed form first ran the sample's one chunk here, and the rows left open.
            incumbent = [CHUNK] + [opened] * (opened > 0) if step == "closed form" else []
            assert sizes == incumbent + [CHUNK] * parent_chunks[step], step

    def test_a_killed_worker_costs_only_time(self, monkeypatch):
        # Between the least bound and the largest: the proof pass spans
        # several chunks, and proves some rows but not all.
        frames, k = random_family(np.random.default_rng(61), 3, 12)
        t1 = weaving_bound_table(frames, k, threads=1)
        threshold = float(np.quantile(weaving_bound_table(frames, k, every_row=True)
                                      .evaluated_lowers, 0.3))
        r1 = report_from_table(t1, threshold)
        pending = np.isinf(t1.lowers_below(t1.proved_level))
        assert pending.any() and not pending.all()
        parent = os.getpid()
        for name in ["proved_below", "proved_psd", "pencil_lower_bounds"]:
            original, here = getattr(kweave.weaving, name), []

            def killed_in_child(s_stack, *args):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                here.append(len(s_stack))
                return original(s_stack, *args)

            with monkeypatch.context() as patch:
                patch.setattr(kweave.weaving, name, killed_in_child)
                t2 = weaving_bound_table(frames, k, threads=2)
                r2 = report_from_table(t2, threshold)
            assert len(here) > 2, name  # the killed worker's chunks ran here
            assert_reports_equal(r1, r2)
            np.testing.assert_array_equal(np.isinf(t2.lowers_below(t2.proved_level)), pending)
            np.testing.assert_array_equal(t1.lowers, t2.lowers)
            np.testing.assert_array_equal(t1.uppers, t2.uppers)

    @staticmethod
    def fork_raising(exc):
        def fork():
            raise exc
        return fork

    def test_serial_fallbacks_match_one_worker(self, monkeypatch):
        frames, k = random_family(np.random.default_rng(61), 3, 12)
        t1 = weaving_bound_table(frames, k, threads=1)
        monkeypatch.setattr(os, "fork", self.fork_raising(AssertionError("forked")))
        with ThreadPoolExecutor(max_workers=1) as pool:  # a second Python thread runs
            tables = [pool.submit(weaving_bound_table, frames, k, threads=2).result()]
        monkeypatch.delattr(os, "fork")
        tables.append(weaving_bound_table(frames, k, threads=2))
        for table in tables:
            np.testing.assert_array_equal(t1.lowers, table.lowers)
            np.testing.assert_array_equal(t1.uppers, table.uppers)

    def test_a_failed_fork_recomputes_its_group_here(self, monkeypatch):
        frames, k = random_family(np.random.default_rng(61), 3, 12)
        t1 = weaving_bound_table(frames, k, threads=1)
        monkeypatch.setattr(os, "fork", self.fork_raising(BlockingIOError(11, "EAGAIN")))
        t2 = weaving_bound_table(frames, k, threads=2)
        np.testing.assert_array_equal(t1.lowers, t2.lowers)
        np.testing.assert_array_equal(t1.uppers, t2.uppers)

    def test_environment_does_not_set_the_pool(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2}, raising=False)
        monkeypatch.setenv("KWEAVE_THREADS", "3")
        assert _resolve_threads(None) == 2
        assert _resolve_threads(3) == 3  # only the argument sets the pool

    def test_default_counts_only_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("KWEAVE_THREADS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _resolve_threads(None) == 3
        monkeypatch.delattr("os.sched_getaffinity")
        assert _resolve_threads(None) == 64

    @pytest.mark.parametrize("threads, message", [
        (0, "threads must be >= 1, got 0"),
        (-3, "threads must be >= 1, got -3"),
        (2.7, "threads must be an integer, got 2.7"),
        (True, "threads must be an integer, got True"),
    ])
    def test_threads_must_be_a_positive_integer(self, threads, message):
        # Each of these used to run, coerced to a pool of max(1, int(threads)).
        frames, k = random_family(np.random.default_rng(4), 2, 3)
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            weaving_bound_table(frames, k, threads=threads)


class TestTransform:
    def test_identity_changes_nothing(self):
        ex = paper_example("example_a", 4)
        base = certify_woven(ex.frames, ex.k)
        moved = certify_woven(*transformed_family(ex.frames, ex.k, np.eye(4)))
        assert moved.woven == base.woven
        assert moved.universal_lower == pytest.approx(base.universal_lower, abs=1e-9)
        assert moved.universal_upper == pytest.approx(base.universal_upper, abs=1e-9)

    def test_scaling_rescales_upper_but_not_lower(self):
        # U = 2I doubles every vector and K alike; the quotient defining
        # the lower bound is scale-invariant while lambda_max scales by 4.
        ex = paper_example("example_a", 4)
        base = certify_woven(ex.frames, ex.k)
        moved = certify_woven(*transformed_family(ex.frames, ex.k, 2.0 * np.eye(4)))
        assert moved.universal_lower == pytest.approx(base.universal_lower, rel=1e-6)
        assert moved.universal_upper == pytest.approx(4 * base.universal_upper, rel=1e-9)

    def test_projection_repairs_unwoven_family(self):
        ex = paper_example("example_pr2", 5)
        base = certify_woven(ex.frames, ex.k)
        assert not base.woven
        moved = certify_woven(*transformed_family(ex.frames, ex.k, ex.u))
        assert moved.woven
        assert moved.universal_lower == pytest.approx(1.0, abs=1e-7)
        assert moved.universal_upper == pytest.approx(2.0, abs=1e-9)

    def test_transformed_family_shapes(self):
        ex = paper_example("example_pr2", 4)
        frames, uk = transformed_family(ex.frames, ex.k, ex.u)
        assert len(frames) == 2
        np.testing.assert_allclose(
            frames[0].matrix, ex.u @ ex.frames[0].matrix, atol=1e-12
        )
        np.testing.assert_allclose(uk.matrix, ex.u @ ex.k.matrix, atol=1e-12)

    def test_annihilating_transform_rejected(self):
        ex = paper_example("example_a", 4)
        u = np.zeros((4, 4))
        u[0, 0] = 1.0  # range of K is span{e2..e4}; U kills it
        with pytest.raises(ZeroK):
            transformed_family(ex.frames, ex.k, u)

    @pytest.mark.parametrize("f_scale, k_scale, named", [
        (1e200, 1.0, "the image U F of frame 1"),
        (1e-200, 1e150, "the operator U K"),
    ])
    def test_overflowing_product_is_named(self, f_scale, k_scale, named):
        frames = [Frame(f_scale * np.eye(3))] * 2
        with pytest.raises(InvalidInput, match=f"^{named} overflows binary64$"):
            transformed_family(frames, KOperator(k_scale * np.eye(3)), 1e200 * np.eye(3))

    def test_non_finite_transform_is_not_called_an_overflow(self):
        ex = paper_example("example_a", 4)
        with pytest.raises(InvalidInput, match="^U contains non-finite entries$"):
            transformed_family(ex.frames, ex.k, np.full((4, 4), np.nan))

    def test_wrong_size_transform_rejected(self):
        ex = paper_example("example_a", 4)
        with pytest.raises(ShapeMismatch):
            transformed_family(ex.frames, ex.k, np.eye(3))
