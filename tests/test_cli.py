import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kweave
from kweave.cli import main
from kweave.fileio import load_frame, load_operator, save_frame, save_operator
from kweave.frames import Frame
from kweave.generators import paper_example


def emit_example(name, dim, directory):
    assert main(["paper-example", name, "--dim", str(dim), "--emit", str(directory)]) == 0


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def refuse_partitions(*args, **kwargs):
    raise AssertionError("an invalid threshold must be refused before any partition")


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
        cells = [r[0] for r in rows]
        assert cells == [f"{a}-{b}" for a in range(11) for b in range(11)]
        lowers = np.array([float(r[1]) for r in rows])
        result = json.loads(out_path.read_text())["result"]
        assert result["worst_partition"] == cells[int(np.argmin(lowers))]

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

    def test_mu_premise_report_is_exact_without_seed(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        out_path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "perturb-check", *files, "--lambda", "0.5", "--mu", "0.1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "hypotheses_ok     = true (exact premise check)" in out
        report = json.loads(out_path.read_text())
        assert report["seed"] is None
        assert report["result"]["verification_mode"] == "exact"

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        files = self.write_pair(tmp_path)
        code, _, err = run(capsys, "perturb-check", *files, "--seed", "5")
        assert code == 2
        assert "unrecognized arguments: --seed" in err

    def test_unresolved_premise_exits_one(self, tmp_path, capsys, unresolved_triple):
        f1, f2, k, params = unresolved_triple
        save_frame(tmp_path / "f1.json", f1)
        save_frame(tmp_path / "f2.json", f2)
        save_operator(tmp_path / "k.json", k.matrix)
        out_path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "perturb-check", str(tmp_path / "f1.json"), str(tmp_path / "f2.json"),
            str(tmp_path / "k.json"), f"--lambda={params.lam!r}", f"--mu={params.mu!r}",
            f"--nu={params.nu!r}", "--out", str(out_path),
        )
        assert code == 1
        assert "hypotheses_ok     = false (unresolved premise check)" in out
        assert json.loads(out_path.read_text())["result"]["verification_mode"] == "unresolved"


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
