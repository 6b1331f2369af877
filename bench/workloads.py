"""Seeded inputs, CLI calls and output checks for the benchmark workloads.

Every input file is written by the benchmark itself in kweave's JSON
formats, except the bundled examples, which users obtain from
``kweave paper-example`` and so does the benchmark.  Each :class:`Op`
carries the exit code the closed-form reference predicts and a check
that compares the op's ``--out`` report (and ``--csv`` table) with the
reference; checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

#: weave-dense shape: 2^14 = 16,384 partitions per call.
DENSE_DIM, DENSE_COUNT = 8, 14
#: Singular values of the random K; a fixed spectrum keeps the pencil's
#: initial bracket, and so its sweep count, the same for every seed.
DENSE_K_SPECTRUM = np.geomspace(1.0, 0.1, DENSE_DIM)
#: The bundled examples and the dimension each is certified at.
EXAMPLES = (("example_a", 8), ("example_b", 12), ("example_pr2", 8))
BATCH_INSTANCES = 100
#: douglas cases, (d, range included), spread evenly over the instances.
#: The 24 included d=64 calls are the slowest ~5% of a cycle, so the
#: run's tail percentile (p99 or p98, at least ten calls beyond) falls
#: inside that group rather than on the edge between groups, where it
#: would jump from run to run.
DOUGLAS_CASES = tuple((d, included) for d in (8, 16, 32, 64, 64)
                      for included in (True, True, True, False, False))
BATCH_BUDGET = 30
#: perturb-check also certifies exhaustively (2^d partitions) up to this d.
CERTIFY_MAX_DIM = 6
#: Sampled-mode budget of the untimed warm-up calls on the weave workloads.
WARMUP_BUDGET = 64


@dataclass
class Op:
    """One CLI call: its argv, predicted exit code and output check."""

    argv: list[str]
    out: str
    expect_rc: int
    check: Callable[[dict], list[str]]
    csv: str | None = None
    csv_check: Callable[[list[list[str]]], list[str]] | None = None

    def inputs(self) -> list[tuple[str, str]]:
        """(kind, path) of each input file: "frame", "k" or "matrix"."""
        argv = self.argv
        files = [a for i, a in enumerate(argv[1:], 1)
                 if not a.startswith("--") and not argv[i - 1].startswith("--")]
        if argv[0] in ("frame-bounds", "douglas"):
            kinds = ["frame"] * len(files)
        else:
            kinds = ["frame"] * (len(files) - 1) + ["k"]
        if "--u" in argv:
            files.append(argv[argv.index("--u") + 1])
            kinds.append("matrix")
        return list(zip(kinds, files))


# -- writing inputs --------------------------------------------------------

def _pairs(v) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_frame(path: str, m: np.ndarray) -> None:
    _dump(path, {"format_version": "kweave-frame-v1", "dim": m.shape[0],
                 "count": m.shape[1], "vectors": [_pairs(m[:, j]) for j in range(m.shape[1])]})


def write_operator(path: str, m: np.ndarray) -> None:
    _dump(path, {"format_version": "kweave-op-v1", "dim": m.shape[0],
                 "rows": [_pairs(row) for row in m]})


def _gauss(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gauss(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _operator_with_spectrum(rng, sigmas) -> np.ndarray:
    d = len(sigmas)
    return (_unitary(rng, d) * np.asarray(sigmas)) @ _unitary(rng, d).conj().T


def _well_conditioned(rng, d: int, cond: float = 30.0) -> np.ndarray:
    while True:
        q = _gauss(rng, d, d)
        if np.linalg.cond(q) < cond:
            return q


# -- checks shared by ops ------------------------------------------------

def _close(name: str, got, want: float, rtol: float, atol: float = 0.0) -> list[str]:
    if got is None or not abs(float(got) - want) <= atol + rtol * abs(want):
        return [f"{name}: got {got!r}, reference {want!r}"]
    return []


def _floor(upper):
    """Absolute slack on a lower bound: kweave accepts S - A*KK^* as PSD down
    to -1e-9 * (1 + lambda_max(S)), so a bound that is exactly 0 can come
    back as a tiny positive number."""
    return 1e-9 * (1.0 + np.asarray(upper))


def _expect(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, expected {want!r}"]


def _digits_of(text: str, m: int) -> np.ndarray:
    parts = text.split("-") if m > 10 else list(text)
    return np.array([int(x) for x in parts])


def _witness_violates(frames: np.ndarray, k: np.ndarray, digits: np.ndarray,
                      witness, threshold: float) -> bool:
    """<S w, w> < threshold * ||K^* w||^2 for the weaving picked by digits."""
    w = ref.vector_from_pairs(witness)
    s = ref.weaving_operators(frames, digits[None])[0]
    return float(np.vdot(w, s @ w).real) < threshold * float(np.linalg.norm(k.conj().T @ w)) ** 2


class ExhaustiveReference:
    """Checks an exhaustive weave-certify/-transform call against the
    reference table of every partition, built on first use."""

    def __init__(self, paths, *, u_path=None, woven: bool, failing: str | None = None,
                 bounds: tuple[float, float] | None = None) -> None:
        self.paths, self.u_path = paths, u_path
        self.woven, self.failing, self.bounds = woven, failing, bounds
        self._table = None

    def table(self):
        """(frames, k, digits, lowers, uppers) of the certified family."""
        if self._table is None:
            mats = [ref.read_matrix(p) for p in self.paths]
            frames, k = np.stack(mats[:-1]), mats[-1]
            if self.u_path is not None:
                u = ref.read_matrix(self.u_path)
                frames, k = u @ frames, u @ k
            digits = ref.partition_digits(frames.shape[0], frames.shape[2])
            self._table = (frames, k, digits, *ref.weaving_table(frames, k, digits))
        return self._table

    def check_report(self, report: dict) -> list[str]:
        frames, k, digits, lowers, uppers = self.table()
        m = frames.shape[0]
        res = report["result"]
        slack = _floor(uppers.max())
        errors = _expect("woven", res["woven"], self.woven)
        errors += _expect("exhaustive", res["exhaustive"], True)
        errors += _expect("partitions_checked", res["partitions_checked"], digits.shape[0])
        errors += _close("universal_lower", res["universal_lower"], float(lowers.min()),
                         1e-6, slack)
        errors += _close("universal_upper", res["universal_upper"], float(uppers.max()), 1e-9)
        worst = _digits_of(res["worst_partition"], m)
        row = int(np.ravel_multi_index(tuple(worst), (m,) * len(worst)))
        errors += _close("reference lower at worst_partition", float(lowers[row]),
                         float(lowers.min()), 1e-6, slack)
        if self.bounds is not None:
            errors += _close("universal_lower (pinned)", res["universal_lower"],
                             self.bounds[0], 1e-6)
            errors += _close("universal_upper (pinned)", res["universal_upper"],
                             self.bounds[1], 1e-9)
        errors += _expect("failing_partition", res["failing_partition"], self.failing)
        if not self.woven and (res["witness"] is None or not _witness_violates(
                frames, k, _digits_of(res["failing_partition"], m), res["witness"],
                res["threshold"])):
            errors.append("witness does not violate the lower K-frame inequality")
        return errors

    def check_csv(self, rows: list[list[str]]) -> list[str]:
        frames, _, digits, lowers, uppers = self.table()
        if rows[:1] != [["partition", "lower", "upper"]] or len(rows) != digits.shape[0] + 1:
            return [f"csv: header or row count wrong ({len(rows)} rows)"]
        if [r[0] for r in rows[1:]] != [ref.digit_string(r, frames.shape[0]) for r in digits]:
            return ["csv: partitions not in enumeration order"]
        got_lo = np.array([float(r[1]) for r in rows[1:]])
        got_up = np.array([float(r[2]) for r in rows[1:]])
        errors = []
        bad = np.abs(got_lo - lowers) > 1e-6 * np.abs(lowers) + _floor(uppers)
        if bad.any():
            errors.append(f"csv: {int(bad.sum())} lower bounds differ from the reference")
        bad = np.abs(got_up - uppers) > 1e-9 * (1.0 + np.abs(uppers))
        if bad.any():
            errors.append(f"csv: {int(bad.sum())} upper bounds differ from the reference")
        return errors


# -- weave-dense -------------------------------------------------------------

def dense_instance(seed: int):
    """(F1, F2, K) of the seeded dense complex two-frame family."""
    rng = np.random.default_rng([seed, 0])
    f1 = _gauss(rng, DENSE_DIM, DENSE_COUNT)
    f2 = _gauss(rng, DENSE_DIM, DENSE_COUNT)
    return f1, f2, _operator_with_spectrum(rng, DENSE_K_SPECTRUM)


def weave_dense(seed: int, indir: str, outdir: str) -> list[Op]:
    f1, f2, k = dense_instance(seed)
    paths = [os.path.join(indir, f"dense_{n}.json") for n in ("f1", "f2", "k")]
    write_frame(paths[0], f1)
    write_frame(paths[1], f2)
    write_operator(paths[2], k)
    out = os.path.join(outdir, "dense.json")
    check = ExhaustiveReference(paths, woven=True).check_report
    return [Op(["weave-certify", *paths, "--out", out], out, 0, check)]


# -- weave-structured --------------------------------------------------------

def example_commands(indir: str) -> list[list[str]]:
    """``kweave paper-example`` calls that emit the bundled examples."""
    return [["paper-example", name, "--dim", str(dim), "--emit", os.path.join(indir, name)]
            for name, dim in EXAMPLES]


def weave_structured(seed: int, indir: str, outdir: str) -> list[Op]:
    ops = []
    for name, dim in EXAMPLES:
        src = os.path.join(indir, name)
        paths = [os.path.join(src, f) for f in ("f1.json", "f2.json", "k.json")]
        out = os.path.join(outdir, f"{name}.json")
        table = os.path.join(outdir, f"{name}.csv")
        if name == "example_a":
            argv = ["weave-certify", *paths]
            check = ExhaustiveReference(paths, woven=True, bounds=(1.0, 2.0))
        elif name == "example_b":
            argv = ["weave-certify", *paths]
            # The first partition (column 1 slowest) taking column 2 from
            # F2 and column 3 from F1 is the canonical failure.
            check = ExhaustiveReference(paths, woven=False, failing="01" + "0" * (dim - 1))
        else:
            u = os.path.join(src, "u.json")
            argv = ["weave-transform", *paths, "--u", u]
            check = ExhaustiveReference(paths, u_path=u, woven=True, bounds=(1.0, 2.0))
        argv += ["--csv", table, "--out", out]
        ops.append(Op(argv, out, 0 if check.woven else 1, check.check_report,
                      csv=table, csv_check=check.check_csv))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# -- cli-batch -----------------------------------------------------------------

def _batch_frames(rng, d: int, deficient: bool):
    """F1, F2 sharing d well-conditioned columns; F1 misses a direction if deficient."""
    extra = int(rng.integers(1, 3))
    q = _well_conditioned(rng, d)
    f2 = np.concatenate([q, _gauss(rng, d, extra)], axis=1)
    f1 = np.concatenate([q, _gauss(rng, d, extra)], axis=1)
    if deficient:
        v = _gauss(rng, d, 1)
        v /= np.linalg.norm(v)
        f1 = f1 - v @ (v.conj().T @ f1)
    return f1, f2


def _perturbed_pair(rng, d: int, k: np.ndarray, ratio: float):
    """Orthogonal F1, F2 = F1 + eps*E, and lambda, with lhs/rhs of (27) near ratio."""
    f1 = _unitary(rng, d) * np.sqrt(rng.uniform(1.0, 2.0, d))
    e = _gauss(rng, d, d)
    e /= np.linalg.norm(e, 2)
    g = k @ k.conj().T
    sigma_min = float(np.linalg.svd(k, compute_uv=False)[-1])
    b1 = float(ref.spectrum(ref.frame_operator(f1))[-1])
    alpha = float(np.min(np.sum(np.abs(f1) ** 2, axis=0)))
    a1 = float(ref.pencil_sup(ref.frame_operator(f1)[None], g)[0])
    rhs = np.sqrt(alpha * a1)
    eps = ratio * rhs * sigma_min / (2.0 * np.sqrt(b1))
    for _ in range(4):
        f2 = f1 + eps * e
        b2 = float(ref.spectrum(ref.frame_operator(f2))[-1])
        lam = float(np.linalg.norm(f1 - f2, 2)) * (1.0 + 1e-6)
        lhs = (np.sqrt(b1) + np.sqrt(b2)) * lam / sigma_min
        eps *= ratio * rhs / lhs
    return f1, f2, lam, dict(lhs=lhs, rhs=rhs, b1=b1, b2=b2)


def _douglas_pair(rng, d: int, included: bool):
    """L1, L2 with R(L2) = span of d - z basis vectors, exactly (zero rows)."""
    z = int(rng.integers(1, max(1, d // 4) + 1))
    live = d - z
    a = _gauss(rng, live, live + max(2, live // 4))
    b = _gauss(rng, live, int(rng.integers(1, 5)))
    l2 = np.zeros((d, a.shape[1]), dtype=np.complex128)
    l1 = np.zeros((d, b.shape[1]), dtype=np.complex128)
    l2[:live], l1[:live] = a, b
    if not included:
        l1[live, 0] = 1.0 + 0.5j
    perm = rng.permutation(d)
    return l1[perm], l2[perm]


def _stratified(rng, values) -> list:
    """``values`` spread evenly over the instances, in seeded order."""
    values = np.asarray(values)
    return list(rng.permutation(np.resize(values, BATCH_INSTANCES)))


def cli_batch(seed: int, indir: str, outdir: str) -> list[Op]:
    # Sizes and outcomes are stratified rather than drawn independently,
    # so every seed gets the same mix of work and only the matrices
    # (and which instance gets which size) change with the seed.
    rng = np.random.default_rng([seed, 999])
    dims = _stratified(rng, range(2, 13))
    douglas_at = _stratified(rng, range(len(DOUGLAS_CASES)))
    deficient_at = _stratified(rng, [True] * 3 + [False] * 7)
    holds_at = _stratified(rng, [True] * 3 + [False] * 2)
    ops = []
    for i in range(BATCH_INSTANCES):
        rng = np.random.default_rng([seed, 1000 + i])
        d = int(dims[i])
        deficient = bool(deficient_at[i])
        f1, f2 = _batch_frames(rng, d, deficient)
        k = _operator_with_spectrum(rng, np.geomspace(1.0, 0.3, d))
        g = k @ k.conj().T
        p = {name: os.path.join(indir, f"i{i:03d}_{name}.json")
             for name in ("f1", "f2", "k", "p1", "p2", "l1", "l2")}
        o = {name: os.path.join(outdir, f"i{i:03d}_{name}.json")
             for name in ("fb", "kc", "ws", "pc", "dg")}
        write_frame(p["f1"], f1)
        write_frame(p["f2"], f2)
        write_operator(p["k"], k)
        s1 = ref.frame_operator(f1)
        spec1 = ref.spectrum(s1)
        low1 = float(ref.pencil_sup(s1[None], g)[0])
        common = float(ref.pencil_sup(ref.frame_operator(f1[:, :d])[None], g)[0])
        if deficient != (low1 == 0.0) or (not deficient and min(low1, common) < 1e-4):
            raise RuntimeError(f"cli-batch instance {i}: reference disagrees with construction")
        rc = 1 if deficient else 0

        def frame_check(report, spec=spec1, rc=rc):
            res = report["result"]
            return (_close("lower", res["lower"], max(spec[0], 0.0), 1e-9, 1e-9 * spec[-1])
                    + _close("upper", res["upper"], spec[-1], 1e-9)
                    + _expect("is_frame", res["is_frame"], rc == 0))

        ops.append(Op(["frame-bounds", p["f1"], "--out", o["fb"]], o["fb"], rc, frame_check))

        def kframe_check(report, low=low1, rc=rc, top=float(spec1[-1])):
            res = report["result"]
            return (_close("lower", res["lower"], low, 1e-6, _floor(top))
                    + _expect("is_kframe", res["is_kframe"], rc == 0))

        ops.append(Op(["kframe-check", p["f1"], p["k"], "--out", o["kc"]], o["kc"], rc,
                      kframe_check))

        frames = np.stack([f1, f2])

        def sampled_check(report, frames=frames, k=k, rc=rc):
            res = report["result"]
            worst = _digits_of(res["worst_partition"], 2)
            s = ref.weaving_operators(frames, worst[None])
            errors = (_expect("woven", res["woven"], rc == 0)
                      + _expect("exhaustive", res["exhaustive"], False)
                      + _expect("partitions_checked", res["partitions_checked"],
                                BATCH_BUDGET + 2)
                      + _close("universal_lower", res["universal_lower"],
                               float(ref.pencil_sup(s, k @ k.conj().T)[0]), 1e-6,
                               _floor(res["universal_upper"])))
            if rc and (res["witness"] is None or not _witness_violates(
                    frames, k, _digits_of(res["failing_partition"], 2), res["witness"],
                    res["threshold"])):
                errors.append("witness does not violate the lower K-frame inequality")
            return errors

        ops.append(Op(["weave-certify", p["f1"], p["f2"], p["k"], "--mode", "sampled",
                       "--budget", str(BATCH_BUDGET), "--seed", str(i), "--out", o["ws"]],
                      o["ws"], rc, sampled_check))

        holds = bool(holds_at[i])
        q1, q2, lam, want = _perturbed_pair(rng, d, k, 0.3 if holds else 3.0)
        write_frame(p["p1"], q1)
        write_frame(p["p2"], q2)
        argv = ["perturb-check", p["p1"], p["p2"], p["k"], "--lambda", repr(lam)]
        certify = d <= CERTIFY_MAX_DIM
        if certify:
            argv.append("--certify")

        def perturb_check(report, want=want, holds=holds, certify=certify):
            res = report["result"]
            errors = (_expect("condition_27_ok", res["condition_27_ok"], holds)
                      + _expect("hypotheses_ok", res["hypotheses_ok"], True)
                      + _expect("verification_mode", res["verification_mode"], "exact")
                      + _close("lhs_27", res["lhs_27"], want["lhs"], 1e-6)
                      + _close("rhs_27", res["rhs_27"], want["rhs"], 1e-6)
                      + _close("predicted_upper", res["predicted_upper"],
                               want["b1"] + want["b2"], 1e-9))
            if certify:
                errors += _expect("consistent", res.get("consistent"), True)
                if holds:
                    errors += _expect("measured woven", res["measured"]["woven"], True)
            return errors

        ops.append(Op(argv + ["--out", o["pc"]], o["pc"], 0 if holds else 1, perturb_check))

        dd, included = DOUGLAS_CASES[douglas_at[i]]
        l1, l2 = _douglas_pair(rng, dd, included)
        if (ref.numerical_rank(np.concatenate([l2, l1], axis=1))
                == ref.numerical_rank(l2)) != included:
            raise RuntimeError(f"cli-batch instance {i}: douglas pair not as constructed")
        write_frame(p["l1"], l1)
        write_frame(p["l2"], l2)
        lam_sq = ref.douglas_lambda_sq(l1, l2)

        def douglas_check(report, lam_sq=lam_sq, included=included):
            res = report["result"]
            errors = _expect("range_included", res["range_included"], included)
            if included:
                errors += _close("lambda_sq", res["lambda_sq"], lam_sq, 1e-5)
                errors += _close("factor_norm_sq", res["factor_norm_sq"], lam_sq, 1e-5)
            else:
                errors += _expect("lambda_sq", res["lambda_sq"], None)
            return errors

        ops.append(Op(["douglas", p["l1"], p["l2"], "--out", o["dg"]], o["dg"],
                      0 if included else 1, douglas_check))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def warmup_argvs(workload: str, ops: list[Op], outdir: str) -> list[list[str]]:
    """Untimed calls that import, start the pool and touch every code path.

    The weave workloads warm up with a cheap sampled call on each family;
    cli-batch runs one call of every subcommand.
    """
    out = ["--out", os.path.join(outdir, "warmup.json")]
    if workload == "cli-batch":
        first = {}
        for op in ops:
            first.setdefault(op.argv[0], op.argv[:op.argv.index("--out")])
        return [argv + out for argv in first.values()]
    argvs = []
    for op in ops:
        argv = op.argv[:op.argv.index("--csv" if op.csv else "--out")]
        argvs.append(argv + ["--mode", "sampled", "--budget", str(WARMUP_BUDGET)] + out)
    return argvs


#: Workload name -> function(seed, indir, outdir) writing inputs, returning ops.
WORKLOADS = {"weave-dense": weave_dense, "weave-structured": weave_structured,
             "cli-batch": cli_batch}


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))
