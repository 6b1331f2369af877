import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import kweave
from kweave.cli import main
from kweave.fileio import load_frame, load_operator, save_frame, save_operator
from kweave.frames import BoundsPair, Frame
from kweave.generators import paper_example
from kweave.kframe import DouglasReport, KFrameReport, KOperator, passes_threshold
from kweave.perturbation import PerturbationReport
from kweave.weaving import (Partition, WeavingReport, WeavingTable, _exhaustive_digits,
                            _sampled_digits, report_from_table, transformed_family,
                            weaving_bound_table)


def emit_example(name, dim, directory):
    assert main(["paper-example", name, "--dim", str(dim), "--emit", str(directory)]) == 0


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(path) -> dict:
    """The file parsed as standard JSON, which has no Infinity or NaN."""
    def refuse(name):
        raise AssertionError(f"{path} holds the non-JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def field_names(report_type) -> set[str]:
    if dataclasses.is_dataclass(report_type):
        return {f.name for f in dataclasses.fields(report_type)}
    return set(report_type._fields)


def refuse_partitions(*args, **kwargs):
    raise AssertionError("an invalid threshold must be refused before any partition")


def assert_report_names_csv_rows(out_path, csv_path) -> dict:
    """The report's worst and failing partitions are the labels of their CSV rows."""
    result = json.loads(Path(out_path).read_text())["result"]
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    labels = [r[0] for r in rows]
    lowers = np.array([float(r[1]) for r in rows])  # .17g round-trips exactly
    assert result["worst_partition"] == labels[int(np.argmin(lowers))]
    failing = np.flatnonzero(lowers < result["threshold"])
    assert result["failing_partition"] == (labels[failing[0]] if failing.size else None)
    return result


def reference_csv(path, table) -> bytes:
    """The table written one row at a time with the csv module."""
    sep = "" if table.num_frames <= 10 else "-"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "lower", "upper"])
        for digits, lower, upper in zip(table.digits, table.lowers, table.uppers):
            writer.writerow([sep.join(str(int(x)) for x in digits),
                             f"{lower:.17g}", f"{upper:.17g}"])
    return Path(path).read_bytes()


def unread_family(m, n) -> dict:
    """The stack and K of a hand-built table of m frames and n columns that no verdict reads."""
    return {"stack": np.zeros((m, 1, n), dtype=complex), "k": KOperator(np.eye(1))}


def example_family(name, dim):
    ex = paper_example(name, dim)
    if ex.u is None:
        return ex.frames, ex.k
    return transformed_family(ex.frames, ex.k, ex.u)


def shared_family(m, n, shared):
    """m random real frames in R^2 holding the same vector on each ``shared`` column."""
    mats = np.random.default_rng(m * n).standard_normal((m, 2, n))
    mats[:, :, shared] = mats[0][:, shared]
    return [Frame(mat) for mat in mats], KOperator(np.eye(2))


class TestFrameBounds:
    def test_orthonormal_basis_exact_line(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        save_frame(path, Frame(np.eye(3, dtype=complex)))
        code, out, _ = run(capsys, "frame-bounds", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lower=1 upper=1"
        assert lines[1] == "classification: frame"

    def test_deficient_family_exits_one(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        m = np.zeros((2, 1), dtype=complex)
        m[0, 0] = 1.0
        save_frame(path, Frame(m))
        code, out, _ = run(capsys, "frame-bounds", str(path))
        assert code == 1
        assert "bessel-only (not a frame)" in out

    def test_report_payload(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        out_path = tmp_path / "report.json"
        save_frame(path, Frame(np.eye(2, dtype=complex)))
        code, _, _ = run(capsys, "frame-bounds", str(path), "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["format_version"] == "kweave-report-v1"
        assert report["tool"] == {"name": "kweave", "version": kweave.__version__}
        assert report["command"] == ["frame-bounds", str(path), "--out", str(out_path)]
        assert list(report["inputs"]) == [str(path)]
        assert report["inputs"][str(path)].startswith("sha256:")
        assert report["seed"] is None
        assert report["result"]["is_frame"] is True
        assert report["result"]["lower"] == pytest.approx(1.0)

    def test_upper_equals_kframe_check_upper(self, tmp_path, capsys):
        # Both commands read lambda_max from one eigvalsh of one S; a
        # symmetrized second reading differed in the last bit on this frame.
        rng = np.random.default_rng(10)
        f, k = str(tmp_path / "f.json"), str(tmp_path / "k.json")
        save_frame(f, Frame(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))))
        save_operator(k, np.eye(3))
        assert run(capsys, "frame-bounds", f, "--out", str(tmp_path / "fb.json"))[0] == 0
        assert run(capsys, "kframe-check", f, k, "--out", str(tmp_path / "kc.json"))[0] == 0
        uppers = [strict_json(tmp_path / name)["result"]["upper"] for name in ("fb.json", "kc.json")]
        assert uppers[0] == uppers[1]


class TestKframeCheck:
    def test_positive(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        code, out, _ = run(
            capsys, "kframe-check", str(tmp_path / "f2.json"), str(tmp_path / "k.json")
        )
        assert code == 0
        assert "is_kframe = true" in out
        lower = float(re.search(r"lower     = (\S+)", out).group(1))
        assert lower == pytest.approx(2.0, abs=1e-7)

    def test_threshold_flag_flips_verdict(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        code, out, _ = run(
            capsys, "kframe-check", str(tmp_path / "f2.json"), str(tmp_path / "k.json"),
            "--threshold", "3.0",
        )
        assert code == 1
        assert "is_kframe = false" in out
        assert "witness   = " in out

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
    def test_threshold_must_be_positive(self, tmp_path, capsys, threshold):
        emit_example("example_b", 4, tmp_path)
        capsys.readouterr()
        code, out, err = run(
            capsys, "kframe-check", str(tmp_path / "f1.json"), str(tmp_path / "k.json"),
            f"--threshold={threshold}",
        )
        assert code == 2
        assert out == ""
        assert "threshold must be finite and > 0" in err


class TestPaperExample:
    def test_emits_loadable_files(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "paper-example", "example_a", "--dim", "4", "--emit", str(tmp_path)
        )
        assert code == 0
        assert "example = example_a (dim 4, 7 columns)" in out
        ex = paper_example("example_a", 4)
        np.testing.assert_array_equal(
            load_frame(tmp_path / "f1.json").matrix, ex.frames[0].matrix
        )
        np.testing.assert_array_equal(
            load_frame(tmp_path / "f2.json").matrix, ex.frames[1].matrix
        )
        np.testing.assert_array_equal(
            load_operator(tmp_path / "k.json"), np.asarray(ex.k.matrix)
        )
        assert not (tmp_path / "u.json").exists()

    def test_pr2_also_writes_u(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "paper-example", "example_pr2", "--dim", "5", "--emit", str(tmp_path)
        )
        assert code == 0
        np.testing.assert_array_equal(
            load_operator(tmp_path / "u.json"),
            np.asarray(paper_example("example_pr2", 5).u),
        )

    def test_small_dim_is_an_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "paper-example", "example_a", "--dim", "3", "--emit", str(tmp_path)
        )
        assert code == 2
        assert "error" in err


class TestWeaveCertify:
    def args(self, directory):
        return [
            str(directory / "f1.json"), str(directory / "f2.json"),
            str(directory / "k.json"),
        ]

    def test_woven_family(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        code, out, _ = run(capsys, "weave-certify", *self.args(tmp_path))
        assert code == 0
        assert "verdict            = woven (exhaustive certificate)" in out
        assert "partitions_checked = 128 (exhaustive)" in out
        lower = float(re.search(r"universal_lower    = (\S+)", out).group(1))
        upper = float(re.search(r"universal_upper    = (\S+)", out).group(1))
        assert lower == pytest.approx(1.0, abs=1e-7)
        assert upper == pytest.approx(2.0, abs=1e-9)

    def test_unwoven_family(self, tmp_path, capsys):
        emit_example("example_b", 4, tmp_path)
        code, out, _ = run(capsys, "weave-certify", *self.args(tmp_path))
        assert code == 1
        assert "verdict            = not woven" in out
        assert "failing_partition  = 01000" in out
        assert "(columns sent to frame 2: {2})" in out
        assert "witness            = " in out

    def test_threshold_tie_agrees_with_kframe_check(self, tmp_path, capsys):
        # The threshold is F1's own lower bound as kframe-check reports it.
        rng = np.random.default_rng(0)
        for name in ("f1", "f2"):
            save_frame(tmp_path / f"{name}.json",
                       Frame(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))))
        save_operator(tmp_path / "k.json",
                      rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        f1, f2, k = self.args(tmp_path)
        run(capsys, "kframe-check", f1, k, "--out", str(tmp_path / "f1.report.json"))
        threshold = f"--threshold={strict_json(tmp_path / 'f1.report.json')['result']['lower']!r}"
        assert run(capsys, "kframe-check", f1, k, threshold)[0] == 0
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "weave-certify", f1, f2, k, threshold, "--out", str(out_path))
        assert code == 1
        result = strict_json(out_path)["result"]
        assert result["failing_partition"] != "000000"  # F1 itself passed kframe-check
        frames = [load_frame(f1).matrix, load_frame(f2).matrix]
        digits = [int(c) for c in result["failing_partition"]]
        weaving = np.stack([frames[i][:, j] for j, i in enumerate(digits)], axis=1)
        save_frame(tmp_path / "w.json", Frame(weaving))
        code, out, _ = run(capsys, "kframe-check", str(tmp_path / "w.json"), k, threshold)
        assert code == 1
        assert "witness   = " in out
        w = np.array([complex(re, im) for re, im in result["witness"]])
        energy = np.vdot(w, weaving @ weaving.conj().T @ w).real
        limit = float(threshold.split("=")[1]) * np.linalg.norm(load_operator(k).conj().T @ w) ** 2
        assert energy < limit

    def test_csv_table(self, tmp_path, capsys):
        emit_example("example_b", 4, tmp_path)
        csv_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "weave-certify", *self.args(tmp_path), "--csv", str(csv_path)
        )
        assert code == 1
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["partition", "lower", "upper"]
        assert len(rows) == 1 + 2 ** 5
        assert rows[1][0] == "00000"
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert table["01000"][0] < 1e-8  # the dropped-column weaving
        assert table["00000"][0] == pytest.approx(1.0, abs=1e-7)

    def test_sampled_mode_wording_and_seed(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        out_path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "weave-certify", *self.args(tmp_path),
            "--mode", "sampled", "--budget", "25", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        assert "no counterexample found (sampled; not a certificate)" in out
        assert "partitions_checked = 27 (sampled)" in out
        report = json.loads(out_path.read_text())
        assert report["seed"] == 3
        assert report["result"]["exhaustive"] is False

    def test_cap_is_an_input_error(self, tmp_path, capsys):
        emit_example("example_a", 11, tmp_path)  # 2^21 partitions
        capsys.readouterr()
        code, out, err = run(capsys, "weave-certify", *self.args(tmp_path))
        assert code == 2
        assert out == ""
        assert "exceeds the exhaustive cap 1048576" in err

    def test_sampled_budget_past_the_cap_is_an_input_error(self, tmp_path, capsys):
        emit_example("example_b", 12, tmp_path)
        capsys.readouterr()
        code, out, err = run(
            capsys, "weave-certify", *self.args(tmp_path),
            "--mode", "sampled", "--budget", "10000000000000",
        )
        assert code == 2
        assert out == ""
        assert "exceeds the sampled cap 1048576" in err
        assert "Traceback" not in err

    def test_reports_rerun_identically(self, tmp_path, capsys):
        emit_example("example_b", 4, tmp_path)
        out_path = tmp_path / "report.json"
        argv = ["weave-certify", *self.args(tmp_path), "--out", str(out_path)]
        assert main(argv) == 1
        first = out_path.read_text()
        assert main(argv) == 1
        second = out_path.read_text()
        capsys.readouterr()
        scrub = re.compile(r'"generated_at": "[^"]*"')
        assert scrub.sub("@", first) == scrub.sub("@", second)
        assert json.loads(first)["result"]["failing_partition"] == "01000"

    def test_many_frames_label_with_separators(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        files = []
        for i in range(11):
            path = tmp_path / f"f{i}.json"
            save_frame(path, Frame(rng.standard_normal((2, 2))))
            files.append(str(path))
        save_operator(tmp_path / "k.json", np.eye(2))
        csv_path, out_path = tmp_path / "table.csv", tmp_path / "r.json"
        code, _, _ = run(
            capsys, "weave-certify", *files, str(tmp_path / "k.json"),
            "--csv", str(csv_path), "--out", str(out_path),
        )
        assert code in (0, 1)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == [f"{a}-{b}" for a in range(11) for b in range(11)]
        assert_report_names_csv_rows(out_path, csv_path)

    @pytest.mark.parametrize("m, n, sampled", [
        pytest.param(3, 9, False, id="3-9"),
        pytest.param(2, 12, False, id="2-12"),  # exactly one CSV_BLOCK
        pytest.param(10, 4, False, id="10-4"),  # digit 9 still takes no separator
        pytest.param(11, 4, False, id="11-4"),
        pytest.param(257, 2, False, id="257-2"),  # int64 digits
        pytest.param(3, 12, True, id="3-12-sampled"),  # rows not in enumeration order
        pytest.param(11, 4, True, id="11-4-sampled"),  # "-" labels, 11^3-row blocks
    ])
    def test_csv_bytes_match_the_csv_module(self, tmp_path, m, n, sampled):
        # Whole CSV_BLOCK-row blocks and a partial one, with awkward floats.
        rng = np.random.default_rng(m)
        if sampled:
            digits = _sampled_digits(m, n, 3 * kweave.cli.CSV_BLOCK - 5, seed=m)
        else:
            digits = _exhaustive_digits(m, n, range(n))
        rows = digits.shape[0]
        lowers = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        # The widest text, -2.2250738585072014e-308 (24 bytes), in one block
        # with the narrowest, so most of the block's texts are NUL-padded.
        lowers[:5] = [0.0, -0.0, np.inf, 5e-324, -2.2250738585072014e-308]
        lowers[5:40] = lowers[40]  # repeats inside a block
        uppers = np.abs(lowers) + 1.0
        uppers[:5] = lowers[4::-1]
        table = WeavingTable(evaluated_digits=digits, evaluated_lowers=lowers,
                             evaluated_uppers=uppers, **unread_family(m, n),
                             free=None if sampled else np.arange(n))
        assert rows == kweave.cli.CSV_BLOCK or rows > 2 * kweave.cli.CSV_BLOCK
        written = tmp_path / "table.csv"
        kweave.cli._write_csv(written, table)
        assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", table)

    @pytest.mark.parametrize("family, free", [
        pytest.param(lambda: example_family("example_a", 8), 7, id="example_a"),
        pytest.param(lambda: example_family("example_b", 12), 2, id="example_b"),
        pytest.param(lambda: example_family("example_pr2", 8), 5, id="example_pr2"),
        # 3^9 rows in blocks of 3^7, shared columns before and inside the blocks' digits.
        pytest.param(lambda: shared_family(3, 9, [1, 4, 8]), 6, id="3-frames"),
        pytest.param(lambda: shared_family(11, 4, [2]), 3, id="11-frames"),
        pytest.param(lambda: shared_family(2, 13, list(range(13))), 0, id="all-shared"),
        pytest.param(lambda: shared_family(2, 13, [0]), 12, id="first-shared"),
        pytest.param(lambda: shared_family(1, 5, []), 0, id="one-frame"),
    ])
    def test_broadcast_table_csv_matches_the_csv_module(self, tmp_path, family, free):
        frames, k = family()
        table = weaving_bound_table(frames, k)
        assert table.free.size == free
        written = tmp_path / "table.csv"
        kweave.cli._write_csv(written, table)
        assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", table)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_csv_calls_no_unique(self, tmp_path, monkeypatch, mode):
        # An exhaustive block takes its texts from its distinct weavings and a
        # sampled block one text per row: neither needs a per-value dedupe.
        # Only sampled mode reads the budget.
        table = weaving_bound_table(*example_family("example_a", 8), mode, budget=5000)

        def refuse(*args, **kwargs):
            raise AssertionError("the CSV of at most ten frames must not call np.unique")

        written = tmp_path / "table.csv"
        monkeypatch.setattr(np, "unique", refuse)
        kweave.cli._write_csv(written, table)
        monkeypatch.undo()
        assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", table)

    def test_csv_builds_every_row_at_once(self, tmp_path, capsys, monkeypatch):
        # 4,096 distinct weavings: a verdict alone runs the proof pass and
        # evaluates few rows; --csv, which writes every row, builds them all at once.
        rng = np.random.default_rng(12)
        files = []
        for i in range(2):
            files.append(tmp_path / f"f{i}.json")
            save_frame(files[-1], Frame(rng.standard_normal((4, 12))))
        files.append(tmp_path / "k.json")
        save_operator(files[-1], np.eye(4))
        passes = []
        proof = kweave.weaving.proved_below
        monkeypatch.setattr(kweave.weaving, "proved_below",
                            lambda s, *args: passes.append(len(s)) or proof(s, *args))
        code, out, err = run(capsys, "weave-certify", *map(str, files))
        assert code == 0, err
        assert passes  # this process's share of the proof pass
        passes.clear()
        csv_path = tmp_path / "table.csv"
        code, with_csv, err = run(capsys, "weave-certify", *map(str, files), "--csv",
                                  str(csv_path))
        assert code == 0, err
        assert with_csv == out and passes == []
        table = weaving_bound_table([load_frame(f) for f in files[:2]],
                                    KOperator(load_operator(files[2])))
        assert csv_path.read_bytes() == reference_csv(tmp_path / "reference.csv", table)

    def test_sampled_csv_shorter_than_one_block(self, tmp_path, capsys):
        # 2 pure + 30 drawn rows at n = 12: fewer rows than one 2^12-row block.
        rng = np.random.default_rng(12)
        files = []
        for i in range(2):
            files.append(tmp_path / f"f{i}.json")
            save_frame(files[-1], Frame(rng.standard_normal((4, 12))))
        files.append(tmp_path / "k.json")
        save_operator(files[-1], np.eye(4))
        csv_path = tmp_path / "table.csv"
        code, _, err = run(capsys, "weave-certify", *map(str, files), "--mode", "sampled",
                           "--budget", "30", "--csv", str(csv_path))
        assert code in (0, 1), err
        table = weaving_bound_table([load_frame(f) for f in files[:2]],
                                    KOperator(load_operator(files[2])), "sampled", budget=30)
        assert table.digits.shape[0] == 32
        assert csv_path.read_bytes() == reference_csv(tmp_path / "reference.csv", table)

    @pytest.mark.parametrize("m, n", [(2, 13), (10, 4), (11, 4), (257, 3)])
    def test_csv_partition_cells_are_partition_labels(self, tmp_path, m, n):
        if m ** n > 2 * kweave.cli.CSV_BLOCK:
            digits = _sampled_digits(m, n, 2 * kweave.cli.CSV_BLOCK, seed=m)
        else:
            digits = _exhaustive_digits(m, n, range(n))
        rows = digits.shape[0]
        table = WeavingTable(evaluated_digits=digits, evaluated_lowers=np.zeros(rows),
                             evaluated_uppers=np.ones(rows), **unread_family(m, n))
        written = tmp_path / "table.csv"
        kweave.cli._write_csv(written, table)
        with open(written, newline="") as fh:
            cells = [r[0] for r in list(csv.reader(fh))[1:]]
        assert cells == [Partition(tuple(row.tolist()), m).label() for row in table.digits]

    def test_csv_writer_memory_does_not_grow_with_the_table(self, tmp_path):
        # Distinct floats everywhere, so no text is shared between rows; then
        # one per assignment to the even columns, as a table would hold them.
        for broadcast in (False, True):
            peaks = []
            for n in (15, 17):
                free = np.arange(0, n, 2) if broadcast else np.arange(n)
                digits = _exhaustive_digits(2, n, free)
                rng = np.random.default_rng(n)
                lowers = rng.standard_normal(digits.shape[0])
                table = WeavingTable(evaluated_digits=digits, evaluated_lowers=lowers,
                                     evaluated_uppers=lowers + 1.0, **unread_family(2, n),
                                     free=free)
                tracemalloc.start()
                try:
                    kweave.cli._write_csv(tmp_path / "table.csv", table)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            small, large = peaks
            assert large < 2 * 2 ** 20, broadcast
            assert large < 1.25 * small, broadcast  # 4x the rows

    @pytest.mark.parametrize("failing", [False, True])
    def test_verdict_memory_stays_at_the_distinct_weavings(self, failing):
        # 2^20 rows of 16 distinct weavings: the digit table alone is 20 MB.
        frames, k = shared_family(2, 20, [j for j in range(20) if j % 5])
        lowers = weaving_bound_table(frames, k).evaluated_lowers
        threshold = float(np.median(lowers)) if failing else None
        tracemalloc.start()
        try:
            table = weaving_bound_table(frames, k)
            report = report_from_table(table, threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert table.free.size == 4
        assert not {"digits", "lowers", "uppers"} & vars(table).keys()
        # The verdict of every row, reduced from the lazily built full table.
        lowers = table.lowers
        assert report.partitions_checked == table.digits.shape[0] == 2 ** 20
        assert report.universal_lower == lowers.min()
        assert report.universal_upper == table.uppers.max()
        worst = int(np.argmin(lowers))
        assert report.worst_partition.digits == tuple(table.digits[worst].tolist())
        failed = np.flatnonzero(~passes_threshold(lowers, report.threshold))
        assert failed.size == (8 if failing else 0) * 2 ** 16
        if failing:
            first = tuple(table.digits[failed[0]].tolist())
            assert report.failing_partition.digits == first
        else:
            assert report.failing_partition is None

    def test_csv_writer_memory_stays_at_the_distinct_weavings(self, tmp_path):
        # 2^17 rows of 16 distinct weavings: the writer reads neither the
        # full digit table (2.2 MB) nor the bounds spread to every row.
        table = weaving_bound_table(*shared_family(2, 17, [1, 2, 3, 5, 6, 7, 8, 9, 10, 12,
                                                           13, 14, 15]), threads=1)
        assert table.free.size == 4
        tracemalloc.start()
        try:
            kweave.cli._write_csv(tmp_path / "table.csv", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert not {"digits", "lowers", "uppers"} & vars(table).keys()
        written = (tmp_path / "table.csv").read_bytes()
        assert written == reference_csv(tmp_path / "reference.csv", table)

    def test_small_sampled_csv_goes_in_csv_block_rows(self, tmp_path, monkeypatch):
        # Sampled rows share no digits across a block, so n = 3 must not
        # cut them into 2^3-row blocks (12,501 of them for 100,002 rows).
        digits = _sampled_digits(2, 3, 100_000, seed=23)
        lowers = digits @ np.array([0.5, 0.25, 0.125])  # one bound per weaving
        table = WeavingTable(evaluated_digits=digits, evaluated_lowers=lowers,
                             evaluated_uppers=lowers + 1.0, **unread_family(2, 3))
        assert len(table) == 100_002
        calls = []
        label_bytes = kweave.cli._label_bytes

        def counting(digits, m, *args, **kwargs):
            calls.append(len(digits))
            return label_bytes(digits, m, *args, **kwargs)

        monkeypatch.setattr(kweave.cli, "_label_bytes", counting)
        kweave.cli._write_csv(tmp_path / "table.csv", table)
        assert len(calls) <= -(-100_002 // kweave.cli.CSV_BLOCK)
        written = (tmp_path / "table.csv").read_bytes()
        assert written == reference_csv(tmp_path / "reference.csv", table)

    def test_report_names_the_csv_rows(self, tmp_path, capsys):
        emit_example("example_b", 12, tmp_path)
        csv_path, out_path = tmp_path / "table.csv", tmp_path / "r.json"
        code, _, _ = run(capsys, "weave-certify", *self.args(tmp_path),
                         "--csv", str(csv_path), "--out", str(out_path))
        assert code == 1
        result = assert_report_names_csv_rows(out_path, csv_path)
        assert result["failing_partition"] == "01" + "0" * 11

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
    def test_threshold_must_be_positive(self, tmp_path, capsys, monkeypatch, threshold):
        emit_example("example_b", 4, tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(kweave.cli, "weaving_bound_table", refuse_partitions)
        code, out, err = run(
            capsys, "weave-certify", *self.args(tmp_path), f"--threshold={threshold}"
        )
        assert code == 2
        assert out == ""
        assert "threshold must be finite and > 0" in err

    def test_negative_budget_is_an_input_error(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        capsys.readouterr()
        code, out, err = run(
            capsys, "weave-certify", *self.args(tmp_path),
            "--mode", "sampled", "--budget=-1",
        )
        assert code == 2
        assert out == ""
        assert "budget must be >= 0" in err

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        capsys.readouterr()
        code, out, err = run(
            capsys, "weave-certify", *self.args(tmp_path),
            "--mode", "sampled", "--budget", "5", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    def test_too_few_files(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        code, _, err = run(capsys, "weave-certify", str(tmp_path / "f1.json"))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "weave-certify", str(tmp_path / "nope.json"), str(tmp_path / "no.json")
        )
        assert code == 2

    def test_frame_passed_as_operator(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        code, _, err = run(
            capsys, "weave-certify",
            str(tmp_path / "f1.json"), str(tmp_path / "f2.json"),
            str(tmp_path / "f1.json"),  # frame file where the operator belongs
        )
        assert code == 2
        assert "format_version" in err


class TestWeaveTransform:
    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
    def test_threshold_must_be_positive(self, tmp_path, capsys, monkeypatch, threshold):
        emit_example("example_pr2", 4, tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(kweave.cli, "weaving_bound_table", refuse_partitions)
        code, out, err = run(
            capsys, "weave-transform", str(tmp_path / "f1.json"), str(tmp_path / "f2.json"),
            str(tmp_path / "k.json"), "--u", str(tmp_path / "u.json"),
            f"--threshold={threshold}",
        )
        assert code == 2
        assert out == ""
        assert "threshold must be finite and > 0" in err

    def test_projection_repairs_pr2(self, tmp_path, capsys):
        emit_example("example_pr2", 5, tmp_path)
        files = [
            str(tmp_path / "f1.json"), str(tmp_path / "f2.json"),
            str(tmp_path / "k.json"),
        ]
        code, out, _ = run(capsys, "weave-certify", *files)
        assert code == 1
        code, out, _ = run(
            capsys, "weave-transform", *files, "--u", str(tmp_path / "u.json")
        )
        assert code == 0
        lower = float(re.search(r"universal_lower    = (\S+)", out).group(1))
        upper = float(re.search(r"universal_upper    = (\S+)", out).group(1))
        assert lower == pytest.approx(1.0, abs=1e-7)
        assert upper == pytest.approx(2.0, abs=1e-9)

    def test_u_digest_recorded(self, tmp_path, capsys):
        emit_example("example_pr2", 4, tmp_path)
        out_path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "weave-transform",
            str(tmp_path / "f1.json"), str(tmp_path / "f2.json"),
            str(tmp_path / "k.json"), "--u", str(tmp_path / "u.json"),
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert str(tmp_path / "u.json") in report["inputs"]


class TestPerturbCheck:
    def write_pair(self, tmp_path, eps=0.05):
        rng = np.random.default_rng(1999)
        f1 = Frame(2.0 * np.eye(3, dtype=complex))
        f2 = Frame(f1.matrix + eps * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))))
        save_frame(tmp_path / "f1.json", f1)
        save_frame(tmp_path / "f2.json", f2)
        save_operator(tmp_path / "k.json", np.eye(3))
        return [str(tmp_path / "f1.json"), str(tmp_path / "f2.json"), str(tmp_path / "k.json")]

    def test_condition_holds(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        code, out, _ = run(capsys, "perturb-check", *files, "--lambda", "0.5")
        assert code == 0
        assert "hypotheses_ok     = true (exact premise check)" in out
        assert "condition_27_ok   = true" in out
        assert "predicted_lower   = " in out
        assert "alpha             = 4" in out

    def test_certify_cross_check(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        code, out, _ = run(
            capsys, "perturb-check", *files, "--lambda", "0.5", "--certify"
        )
        assert code == 0
        assert "measured (exhaustive):" in out
        assert "consistent        = true" in out
        assert "verdict            = woven (exhaustive certificate)" in out

    def test_failed_condition_exits_one(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        code, out, _ = run(capsys, "perturb-check", *files, "--lambda", "50")
        assert code == 1
        assert "condition_27_ok   = false" in out
        assert "predicted_lower" not in out

    def test_orthogonality_violation_exits_one(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)  # f1 has zero columns
        code, _, err = run(
            capsys, "perturb-check",
            str(tmp_path / "f1.json"), str(tmp_path / "f2.json"),
            str(tmp_path / "k.json"),
        )
        assert code == 1
        assert "hypothesis violated" in err

    def test_negative_lambda_is_usage_error(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        code, _, err = run(capsys, "perturb-check", *files, "--lambda", "-1")
        assert code == 2
        assert "error" in err

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        code, _, err = run(capsys, "perturb-check", *files, "--seed", "5")
        assert code == 2
        assert "unrecognized arguments: --seed" in err

    def test_alpha_is_not_an_option(self, tmp_path, capsys):
        # alpha is always F1's smallest squared column norm, and the premise
        # takes lam alone: mu and nu fold into lam' = lam + mu*sqrt(B1) + nu*sqrt(B2).
        files = self.write_pair(tmp_path)
        for option in ("--alpha", "--mu", "--nu"):
            code, _, err = run(capsys, "perturb-check", *files, option, "1")
            assert code == 2
            assert f"unrecognized arguments: {option} 1" in err

    def test_report_has_alpha_in_result_not_params(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "perturb-check", *files, "--lambda", "0.5",
                         "--out", str(out_path))
        assert code == 0
        result = strict_json(out_path)["result"]
        assert result["alpha"] == 4.0
        assert result["params"] == {"lambda": 0.5}

    def test_zero_first_frame_is_not_orthogonal(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        save_frame(files[0], Frame(np.zeros((3, 3))))
        code, out, err = run(capsys, "perturb-check", *files)
        assert code == 1
        assert out == ""
        assert err == "hypothesis violated: F1 is not an orthogonal set of nonzero vectors\n"

    def test_second_frame_outside_the_first_frames_span_exits_one(self, tmp_path, capsys):
        # F1 = [e1] spans only e1, and F2 leaves it: the prediction would be
        # a lower bound of 0.48, but the weaving [e1 + 0.01 e2] has bound 0.
        save_frame(tmp_path / "f1.json", Frame(np.array([[1.0], [0.0]])))
        save_frame(tmp_path / "f2.json", Frame(np.array([[1.0], [0.01]])))
        save_operator(tmp_path / "k.json", np.diag([1.0, 0.0]))
        out_path = tmp_path / "r.json"
        code, out, err = run(capsys, "perturb-check", str(tmp_path / "f1.json"),
                             str(tmp_path / "f2.json"), str(tmp_path / "k.json"),
                             "--lambda", "0.01", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == "hypothesis violated: R(F2) is not contained in span(F1)\n"
        assert not out_path.exists()


class TestDouglas:
    def test_inclusion(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        k = str(tmp_path / "k.json")
        code, out, _ = run(capsys, "douglas", k, k)
        assert code == 0
        assert "range_included  = true" in out
        lam = float(re.search(r"lambda_sq       = (\S+)", out).group(1))
        assert lam == pytest.approx(1.0, abs=1e-6)

    def test_non_inclusion(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        eye = tmp_path / "eye.json"
        save_operator(eye, np.eye(4))
        code, out, _ = run(capsys, "douglas", str(eye), str(tmp_path / "k.json"))
        assert code == 1
        assert "range_included  = false" in out
        assert "lambda_sq       = inf" in out

    def test_accepts_frame_files_too(self, tmp_path, capsys):
        emit_example("example_b", 4, tmp_path)
        code, out, _ = run(
            capsys, "douglas", str(tmp_path / "f1.json"), str(tmp_path / "f2.json")
        )
        # both families span C^4, so inclusion holds either way round
        assert code == 0
        assert "factor shape    = 5x5" in out

    def test_report_uses_null_for_infinite_lambda(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        eye = tmp_path / "eye.json"
        out_path = tmp_path / "r.json"
        save_operator(eye, np.eye(4))
        code, _, _ = run(
            capsys, "douglas", str(eye), str(tmp_path / "k.json"),
            "--out", str(out_path),
        )
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["result"]["lambda_sq"] is None
        assert report["result"]["factor_c"] is None

    def test_zero_dimension_operator_is_an_input_error(self, tmp_path, capsys):
        # It used to print range_included = true and factor shape = 0x0, exit 0.
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"format_version": "kweave-op-v1", "dim": 0, "rows": []}))
        code, out, err = run(capsys, "douglas", str(zero), str(zero))
        assert code == 2
        assert out == ""
        assert err == "error: malformed operator file: dim must be >= 1, got 0\n"


class TestOverflow:
    """A value past binary64, or lost below it, is refused by a message naming it,
    with no numpy warning."""

    def run_without_warnings(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code, out, err

    def run_quietly(self, capsys, *argv):
        code, out, err = self.run_without_warnings(capsys, *argv)
        assert out == ""
        return code, err

    def test_shift_overflow_is_silent(self, tmp_path, capsys):
        # S = 1e308 * I: the shift's trace sum overflowed with a numpy warning.
        big, k = str(tmp_path / "big.json"), str(tmp_path / "k.json")
        save_frame(big, Frame(1e154 * np.eye(3)))
        save_operator(k, np.eye(3))
        code, out, err = self.run_without_warnings(capsys, "kframe-check", big, k)
        assert code == 0
        assert "lower     = 1e+308\n" in out
        assert err == ""

    @pytest.mark.parametrize("command", ["kframe-check", "weave-certify"])
    def test_witness_when_threshold_times_gram_overflows(self, tmp_path, capsys, command):
        # threshold * KK^* = 5e308: the witness read NaN and --out was cut short.
        f, k = str(tmp_path / "f.json"), str(tmp_path / "k.json")
        save_frame(f, Frame(np.eye(2)))
        kmat = np.array([[2.0, -1.0], [0.0, 2.0]])
        save_operator(k, kmat)
        out_path = tmp_path / "r.json"
        args = {"kframe-check": [f, k], "weave-certify": [f, f, k]}[command]
        code, _, err = self.run_without_warnings(capsys, command, *args, "--threshold", "1e308",
                                                 "--out", str(out_path))
        assert code == 1
        assert err == ""
        pairs = np.array(strict_json(out_path)["result"]["witness"])
        w = pairs[:, 0] + 1j * pairs[:, 1]
        assert np.isfinite(w).all()
        # <S w, w> with S = I for both the frame and the failing weaving.
        assert np.vdot(w, w).real / 1e308 < np.linalg.norm(kmat.T @ w) ** 2

    @pytest.mark.parametrize("command", ["frame-bounds", "kframe-check", "weave-certify"])
    def test_overflowing_frame_operator(self, tmp_path, capsys, command):
        # ||f||^2 = 1e400; the default threshold used to read NaN here.
        big, k = str(tmp_path / "big.json"), str(tmp_path / "k.json")
        save_frame(big, Frame(1e200 * np.eye(2)))
        save_operator(k, np.eye(2))
        args = {"frame-bounds": [big], "kframe-check": [big, k],
                "weave-certify": [big, big, k]}[command]
        code, err = self.run_quietly(capsys, command, *args)
        assert code == 2
        assert err == "error: the frame operator S = FF* overflows binary64\n"

    def test_underflowing_frame_operator(self, tmp_path, capsys):
        # ||f||^2 = 1e-340: S read 0, and a tight frame was called bessel-only.
        tiny = str(tmp_path / "tiny.json")
        save_frame(tiny, Frame(1e-170 * np.eye(3)))
        code, err = self.run_quietly(capsys, "frame-bounds", tiny)
        assert code == 2
        assert err == "error: the frame operator S = FF* underflows binary64\n"

    @pytest.mark.parametrize("command, message", [
        # The lower bound read 0: "is_kframe = false" with witness e_1.
        ("kframe-check", "the frame operator S = FF* underflows binary64"),
        # Every column read as zero: "F1 is not an orthogonal set of nonzero vectors".
        ("perturb-check", "a squared column norm of F1 underflows binary64"),
    ])
    def test_underflowing_first_frame(self, tmp_path, capsys, command, message):
        tiny, k = str(tmp_path / "tiny.json"), str(tmp_path / "k.json")
        save_frame(tiny, Frame(1e-170 * np.eye(2)))
        save_operator(k, np.eye(2))
        args = {"kframe-check": [tiny, k], "perturb-check": [tiny, tiny, k]}[command]
        code, err = self.run_quietly(capsys, command, *args)
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["kframe-check", "weave-certify"])
    @pytest.mark.parametrize("scale, k_scale, message", [
        # sigma_max(K)^2 = 1e-400: KK^* read 0, so the bound read 0, with witness e_1.
        pytest.param(1.0, 1e-200, "KK^* underflows binary64", id="gram-underflow"),
        # The bound is 1e310: numpy warned three times, then did not converge.
        pytest.param(1e150, 1e-5,
                     "the lower K-frame bound 1/lambda_max(K^* S^+ K) overflows binary64",
                     id="bound-overflow"),
    ])
    def test_unrepresentable_k_frame_bound(self, tmp_path, capsys, command, scale, k_scale,
                                           message):
        f, k = str(tmp_path / "f.json"), str(tmp_path / "k.json")
        save_frame(f, Frame(scale * np.eye(3)))
        save_operator(k, k_scale * np.eye(3))
        args = {"kframe-check": [f, k], "weave-certify": [f, f, k]}[command]
        code, err = self.run_quietly(capsys, command, *args)
        assert code == 2
        assert err == f"error: {message}\n"

    def test_infinite_lambda_is_named(self, tmp_path, capsys):
        f, k = str(tmp_path / "f.json"), str(tmp_path / "k.json")
        save_frame(f, Frame(np.eye(3)))
        save_operator(k, np.eye(3))
        code, err = self.run_quietly(capsys, "perturb-check", f, f, k, "--lambda", "inf")
        assert code == 2
        assert err == "error: lam must be finite and nonnegative, got inf\n"

    def test_overflowing_orthogonality_gram_is_named(self, tmp_path, capsys):
        # ||f||^2 = 1e320: the Gram matrix F1^* F1 used to read inf and NaN,
        # reported as a violated hypothesis (exit 1).
        big, k = str(tmp_path / "big.json"), str(tmp_path / "k.json")
        save_frame(big, Frame(1e160 * np.eye(4)))
        save_operator(k, np.eye(4))
        code, err = self.run_quietly(capsys, "perturb-check", big, big, k, "--lambda", "1")
        assert code == 2
        assert err == "error: the Gram matrix F1^* F1 overflows binary64\n"

    def test_overflowing_premise_term_is_named(self, tmp_path, capsys):
        # The premise's right-hand side (1 + PREMISE_REL) * lam overflows.
        f, k = str(tmp_path / "f.json"), str(tmp_path / "k.json")
        save_frame(f, Frame(2 * np.eye(4)))
        save_operator(k, np.eye(4))
        code, err = self.run_quietly(capsys, "perturb-check", f, f, k,
                                     "--lambda", "1.7976931348623157e308")
        assert code == 2
        assert err == "error: lam=1.79769e+308 makes its premise term overflow binary64\n"

    @pytest.mark.parametrize("f_scale, k_scale, named", [
        # U F = 1e400 * I: numpy warned twice, then "frame matrix contains non-finite entries".
        (1e200, 1.0, "the image U F of frame 1"),
        # U F = I but U K = 1e350 * I: it said "K contains non-finite entries".
        (1e-200, 1e150, "the operator U K"),
    ])
    def test_overflowing_transform_is_named(self, tmp_path, capsys, f_scale, k_scale, named):
        f, k, u = (str(tmp_path / f"{name}.json") for name in ("f", "k", "u"))
        save_frame(f, Frame(f_scale * np.eye(3)))
        save_operator(k, k_scale * np.eye(3))
        save_operator(u, 1e200 * np.eye(3))
        code, err = self.run_quietly(capsys, "weave-transform", f, f, k, "--u", u)
        assert code == 2
        assert err == f"error: {named} overflows binary64\n"

    def test_overflowing_douglas_factor_is_named(self, tmp_path, capsys):
        l1, l2 = str(tmp_path / "l1.json"), str(tmp_path / "l2.json")
        save_operator(l1, 1e200 * np.eye(2))
        save_operator(l2, 1e-200 * np.eye(2))
        code, err = self.run_quietly(capsys, "douglas", l1, l2)
        assert code == 2
        assert err == "error: the minimal factor C = L2^+ L1 overflows binary64\n"

    def test_overflowing_douglas_factor_norm_is_named(self, tmp_path, capsys):
        # C = 1e200 * I is finite; ||C||^2 used to raise a traceback and exit 1.
        l1, l2 = str(tmp_path / "l1.json"), str(tmp_path / "l2.json")
        save_operator(l1, 1e200 * np.eye(2))
        save_operator(l2, np.eye(2))
        out_path = tmp_path / "r.json"
        code, err = self.run_quietly(capsys, "douglas", l1, l2, "--out", str(out_path))
        assert code == 2
        assert not out_path.exists()
        assert err == ("error: ||C||^2 of the minimal factor C = L2^+ L1 "
                       "overflows binary64\n")


class TestReportSchema:
    """``result`` holds the library report's fields plus the documented extras."""

    CASES = {
        "frame-bounds": (["f1"], BoundsPair, {"is_frame"}),
        "kframe-check": (["f2", "k"], KFrameReport, set()),
        "weave-certify": (["f1", "f2", "k"], WeavingReport, set()),
        "weave-transform": (["f1", "f2", "k", "--u", "u"], WeavingReport, set()),
        "perturb-check": (["e", "e", "i", "--lambda", "0.5"], PerturbationReport, {"params"}),
        "douglas": (["k", "f2"], DouglasReport, set()),
    }

    @pytest.fixture
    def files(self, tmp_path):
        emit_example("example_pr2", 4, tmp_path)
        save_frame(tmp_path / "e.json", Frame(np.eye(3)))
        save_operator(tmp_path / "i.json", np.eye(3))
        return lambda name: str(tmp_path / f"{name}.json")

    def result(self, tmp_path, capsys, files, subcommand, args):
        out_path = tmp_path / "r.json"
        argv = [a if a.startswith("--") or a[0].isdigit() else files(a) for a in args]
        code, _, err = run(capsys, subcommand, *argv, "--out", str(out_path))
        assert code in (0, 1), err
        return strict_json(out_path)["result"]

    @pytest.mark.parametrize("subcommand", sorted(CASES))
    def test_result_keys_are_the_report_fields(self, tmp_path, capsys, files, subcommand):
        args, report_type, extras = self.CASES[subcommand]
        result = self.result(tmp_path, capsys, files, subcommand, args)
        assert set(result) == field_names(report_type) | extras

    def test_certified_perturbation_adds_the_measured_report(self, tmp_path, capsys, files):
        result = self.result(tmp_path, capsys, files, "perturb-check",
                             ["e", "e", "i", "--lambda", "0.5", "--certify"])
        assert set(result) == field_names(PerturbationReport) | {"params", "measured",
                                                                  "consistent"}
        assert set(result["measured"]) == field_names(WeavingReport)

    def test_paper_example_keeps_its_own_dict(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "paper-example", "example_a", "--dim", "4",
                         "--emit", str(tmp_path), "--out", str(out_path))
        assert code == 0
        assert set(strict_json(out_path)["result"]) == {"name", "dim", "count", "files"}

    def test_overflowing_condition_is_written_as_null(self, tmp_path, capsys, files):
        # lambda = 1e308 passes the premise, but the condition's
        # left-hand side overflows to inf.
        result = self.result(tmp_path, capsys, files, "perturb-check",
                             ["e", "e", "i", "--lambda", "1e308"])
        assert result["lhs_27"] is None
        assert result["condition_27_ok"] is False
        assert result["params"]["lambda"] == 1e308


class TestUnwritableOutput:
    """A failed write is an input or usage error (2), never a negative verdict (1)."""

    def test_report_in_missing_directory(self, tmp_path, capsys):
        save_frame(tmp_path / "basis.json", Frame(np.eye(2)))
        code, out, err = run(capsys, "frame-bounds", str(tmp_path / "basis.json"),
                             "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 2
        assert "classification: frame" in out
        assert err.startswith("error: ") and "Traceback" not in err

    def test_csv_in_missing_directory(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        files = [str(tmp_path / f) for f in ("f1.json", "f2.json", "k.json")]
        code, _, err = run(capsys, "weave-certify", *files,
                           "--csv", str(tmp_path / "missing" / "t.csv"))
        assert code == 2
        assert "missing" in err

    def test_emit_onto_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code, _, err = run(capsys, "paper-example", "example_a", "--dim", "4",
                           "--emit", str(target))
        assert code == 2
        assert "taken" in err


class TestOutputPaths:
    """An output path that names an input or another output exits 2 before any write."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        emit_example("example_pr2", 4, tmp_path)
        capsys.readouterr()
        return {name: str(tmp_path / f"{name}.json") for name in ("f1", "f2", "k", "u")}

    def contents(self, files):
        return {name: Path(path).read_bytes() for name, path in files.items()}

    @pytest.mark.parametrize("alias", [False, True], ids=["same-path", "hard-link"])
    def test_csv_onto_an_input(self, tmp_path, capsys, files, alias):
        target = files["f1"]
        if alias:
            target = str(tmp_path / "alias.json")
            os.link(files["f1"], target)
        before = self.contents(files)
        out_path = tmp_path / "rep.json"
        code, out, err = run(capsys, "weave-certify", files["f1"], files["f2"], files["k"],
                             "--csv", target, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == f"error: --csv {target} is the input file {files['f1']}\n"
        assert self.contents(files) == before
        assert not out_path.exists()

    @pytest.mark.parametrize("csv_path", ["x.csv", "./x.csv"])
    def test_csv_and_out_on_one_path(self, tmp_path, capsys, files, monkeypatch, csv_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "weave-certify", files["f1"], files["f2"], files["k"],
                             "--csv", csv_path, "--out", "x.csv")
        assert code == 2
        assert out == ""
        assert err == f"error: --out x.csv and --csv {csv_path} are the same file\n"
        assert not (tmp_path / "x.csv").exists()

    OUT_CASES = {  # subcommand: (its arguments, the input that --out names)
        "frame-bounds": (["f1"], "f1"),
        "kframe-check": (["f1", "k"], "k"),
        "weave-certify": (["f1", "f2", "k"], "f2"),
        "weave-transform": (["f1", "f2", "k", "--u", "u"], "u"),
        "perturb-check": (["f1", "f2", "k", "--certify"], "f1"),
        "douglas": (["k", "u"], "u"),
    }

    @pytest.mark.parametrize("subcommand", sorted(OUT_CASES))
    def test_out_onto_an_input(self, capsys, files, subcommand):
        args, target = self.OUT_CASES[subcommand]
        before = self.contents(files)
        code, out, err = run(capsys, subcommand, *[files.get(a, a) for a in args],
                             "--out", files[target])
        assert code == 2
        assert out == ""
        assert err == f"error: --out {files[target]} is the input file {files[target]}\n"
        assert self.contents(files) == before

    def test_out_onto_an_emitted_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "k.json")
        code, out, err = run(capsys, "paper-example", "example_a", "--dim", "4",
                             "--emit", str(tmp_path), "--out", out_path)
        assert code == 2
        assert out == ""
        assert err == f"error: --out {out_path} and --emit {out_path} are the same file\n"
        assert list(tmp_path.iterdir()) == []


class TestTopLevel:
    def test_commands_run_on_one_blas_thread(self, tmp_path, capsys, monkeypatch):
        import kweave.cli
        from kweave import linalg

        _, get_threads = linalg._openblas_threads()
        before = get_threads()
        if before is None:
            pytest.skip("numpy does not use the OpenBLAS of its wheel here")
        seen = []
        douglas_check = kweave.cli.douglas_check
        monkeypatch.setattr(kweave.cli, "douglas_check",
                            lambda *a: seen.append(get_threads()) or douglas_check(*a))
        emit_example("example_a", 4, tmp_path)
        k = str(tmp_path / "k.json")
        assert run(capsys, "douglas", k, k)[0] == 0
        assert run(capsys, "douglas", k, str(tmp_path / "missing.json"))[0] == 2
        assert seen == [1]
        assert get_threads() == before

    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        emit_example("example_a", 4, tmp_path)
        files = [str(tmp_path / f) for f in ("f1.json", "f2.json", "k.json")]
        sampled = ["weave-certify", *files, "--mode", "sampled", "--budget", "25"]
        assert run(capsys, *sampled, "--seed", "5")[0] == 0
        assert run(capsys, *sampled, "--seed", "9", "--mode", "bogus")[0] == 2
        out_path = tmp_path / "r.json"
        code, out, _ = run(capsys, *sampled, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["seed"] == 0
        assert kweave.cli._parser() is kweave.cli._parser()

        env = dict(os.environ)
        package_root = str(Path(kweave.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        fresh_path = tmp_path / "fresh.json"
        fresh = subprocess.run(
            [sys.executable, "-m", "kweave.cli", *sampled, "--out", str(fresh_path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == out
        assert (json.loads(fresh_path.read_text())["result"]
                == json.loads(out_path.read_text())["result"])

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == f"kweave {kweave.__version__}"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_example_name(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "paper-example", "example_z", "--dim", "4", "--emit", str(tmp_path)
        )
        assert code == 2

    def test_console_script_installed(self, tmp_path):
        # The promise is that the console script declared in pyproject.toml
        # starts kweave and prints the version.  Build that script the way an
        # installer would (PyPA entry-point spec) rather than trusting
        # whichever `kweave` happens to be on PATH, so the test checks this
        # checkout with or without an install.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"kweave": "kweave.cli:main"}

        module, _, attr = scripts["kweave"].partition(":")
        launcher = tmp_path / "kweave"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)

        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        package_root = str(Path(kweave.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            ["kweave", "--version"], capture_output=True, text=True, timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"kweave {kweave.__version__}", proc.stderr
