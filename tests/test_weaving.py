import re

import numpy as np
import pytest

import kweave.weaving
from kweave.errors import CapExceeded, InvalidInput, InvalidPartition, ShapeMismatch, ZeroK
from kweave.frames import Frame, frame_bounds, frame_operator
from kweave.generators import paper_example
from kweave.kframe import KOperator, is_kframe, kframe_lower_bound
from kweave.weaving import (
    CHUNK,
    PARTITION_CAP,
    Partition,
    _exhaustive_digits,
    _resolve_threads,
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
        assert table.partition(0b01001) == p
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

    def test_sampling_finds_the_counterexample(self):
        ex = paper_example("example_b", 4)
        table = weaving_bound_table(ex.frames, ex.k, "sampled", budget=200, seed=0)
        report = report_from_table(table, ex.frames, ex.k)
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
        assert table.partition(row).subset(i) == tuple(range(n))


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
        assert table.partition(299).label() == "299-299"


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


def test_threshold_tie_passes():
    frames = [Frame(np.eye(2)), Frame(np.eye(2))]
    k = KOperator(np.eye(2))
    report = report_from_table(weaving_bound_table(frames, k), frames, k, 1.0)
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
    report = report_from_table(weaving_bound_table(frames, k), frames, k, threshold)
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
            report_from_table(table, ex.frames, ex.k, threshold)

    def test_dimension_and_zero_k(self):
        rng = np.random.default_rng(5)
        frames, _ = random_family(rng, 3, 4)
        with pytest.raises(ShapeMismatch):
            weaving_bound_table(frames, KOperator(np.eye(4)))
        with pytest.raises(ZeroK):
            weaving_bound_table(frames, KOperator(np.zeros((3, 3))))

    def test_unknown_mode(self):
        rng = np.random.default_rng(7)
        frames, k = random_family(rng, 3, 4)
        with pytest.raises(ValueError):
            weaving_bound_table(frames, k, "everything")


class TestThreads:
    def test_results_do_not_depend_on_worker_count(self):
        rng = np.random.default_rng(61)
        frames, k = random_family(rng, 3, 12)  # 4096 partitions, two chunks
        t1 = weaving_bound_table(frames, k, threads=1)
        t4 = weaving_bound_table(frames, k, threads=4)
        np.testing.assert_array_equal(t1.lowers, t4.lowers)
        np.testing.assert_array_equal(t1.uppers, t4.uppers)

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

    def test_wrong_size_transform_rejected(self):
        ex = paper_example("example_a", 4)
        with pytest.raises(ShapeMismatch):
            transformed_family(ex.frames, ex.k, np.eye(3))
