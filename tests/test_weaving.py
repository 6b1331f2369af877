import numpy as np
import pytest

from kweave.errors import CapExceeded, InvalidInput, InvalidPartition, ShapeMismatch, ZeroK
from kweave.frames import Frame, frame_bounds
from kweave.generators import paper_example
from kweave.kframe import KOperator, is_kframe, kframe_lower_bound
from kweave.weaving import (
    Partition,
    _resolve_threads,
    certify_woven,
    report_from_table,
    transformed_family,
    universal_upper_bound,
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
        table = weaving_bound_table(random_family(rng, 2, 5)[0], include_lower=False)
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
    assert universal_upper_bound(ex.frames) == pytest.approx(3.0, abs=1e-9)
    rng = np.random.default_rng(17)
    frames, k = random_family(rng, 3, 5)
    cap = universal_upper_bound(frames)
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
        report = certify_woven(ex.frames, ex.k, "sampled", budget=200, seed=0)
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
        assert table.lowers[row] == pytest.approx(kframe_lower_bound(f, k), abs=1e-7)
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
        assert t1.seed == 7
        np.testing.assert_array_equal(t1.digits, t2.digits)
        np.testing.assert_array_equal(t1.lowers, t2.lowers)
        assert not np.array_equal(t1.digits, t3.digits)

    def test_cap_forces_refusal_only_in_exhaustive_mode(self):
        rng = np.random.default_rng(53)
        frames, k = random_family(rng, 3, 5)
        with pytest.raises(CapExceeded):
            weaving_bound_table(frames, k, partition_cap=16)
        table = weaving_bound_table(frames, k, "sampled", budget=10, partition_cap=16)
        assert table.digits.shape[0] == 12


class TestManyFrames:
    """More than 256 frames: digits must not wrap around."""

    @pytest.fixture(scope="class")
    def frames(self):
        rng = np.random.default_rng(300)
        return [Frame(rng.standard_normal((2, 2))) for _ in range(300)]

    def test_exhaustive_rows_stay_distinct(self, frames):
        table = weaving_bound_table(frames, include_lower=False)
        assert table.digits.shape == (90_000, 2)
        assert np.unique(table.digits, axis=0).shape[0] == 90_000
        assert int(table.digits.max()) == 299

    def test_sampled_mode_runs(self, frames):
        table = weaving_bound_table(frames, KOperator(np.eye(2)), "sampled", budget=20)
        assert table.digits.shape == (320, 2)
        np.testing.assert_array_equal(table.digits[:300, 0], np.arange(300))
        assert table.lowers.shape == (320,)
        assert table.partition(299).label() == "299-299"


def test_threshold_tie_passes():
    frames = [Frame(np.eye(2)), Frame(np.eye(2))]
    k = KOperator(np.eye(2))
    report = certify_woven(frames, k, threshold=1.0)
    assert report.universal_lower == 1.0  # every weaving sits exactly on the threshold
    assert report.woven
    assert report.failing_partition is None
    assert report.witness is None
    assert is_kframe(weaving_family(frames, report.worst_partition), k, 1.0).is_kframe


class TestValidation:
    def test_lower_bounds_need_an_operator(self):
        rng = np.random.default_rng(3)
        frames, k = random_family(rng, 3, 4)
        with pytest.raises(ValueError):
            weaving_bound_table(frames, None)
        table = weaving_bound_table(frames, include_lower=False)
        assert table.lowers is None
        assert table.uppers.shape == (16,)
        with pytest.raises(ValueError):
            report_from_table(table, frames, k)

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

    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv("KWEAVE_THREADS", "3")
        assert _resolve_threads(None) == 3
        assert _resolve_threads(2) == 2  # explicit argument wins
        monkeypatch.setenv("KWEAVE_THREADS", "not-a-number")
        with pytest.raises(InvalidInput, match="KWEAVE_THREADS"):
            _resolve_threads(None)
        monkeypatch.delenv("KWEAVE_THREADS")
        assert _resolve_threads(None) >= 1

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
