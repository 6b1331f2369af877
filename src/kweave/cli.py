"""Command-line front end.

Subcommands load frames/operators from JSON files, run the library,
print an aligned human-readable summary to stdout, and exit with a
scriptable verdict code:

    0   computation succeeded with a positive verdict
    1   computation succeeded with a negative certificate
        (not a frame / not a K-frame / not woven / condition fails)
    2   input or usage error

``--out report.json`` additionally writes a machine-readable report
(command echo, sha256 digests of the inputs, all result fields, tool
version, seed when sampling was used).  Reports are byte-identical
across reruns with the same inputs and seed, except for the
``generated_at`` timestamp.  ``--csv`` on the weaving subcommands
writes one row per evaluated partition for external plotting.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import os
import sys

import numpy as np

from . import __version__, fileio, linalg
from .errors import CapExceeded, HypothesesViolated, InvalidInput, KweaveError
from .frames import frame_bounds, is_frame
from .generators import EXAMPLE_NAMES, paper_example
from .kframe import KOperator, douglas_check, is_kframe
from .perturbation import (
    PerturbationParams,
    check_orthogonal_alpha,
    perturbation_certify,
    perturbation_condition,
)
from .weaving import (
    DEFAULT_BUDGET,
    WOVEN_THRESHOLD_SCALE,
    partition_label,
    report_from_table,
    transformed_family,
    weaving_bound_table,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_vector(v: np.ndarray) -> str:
    parts = [f"{z.real:.6g}{z.imag:+.6g}i" for z in v]
    return "[" + ", ".join(parts) + "]"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _load_matrix(path) -> np.ndarray:
    """Accept either file format as a plain matrix (for douglas)."""
    payload = fileio.read_json(path)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version == fileio.FRAME_FORMAT:
        return fileio.frame_from_payload(payload).matrix
    if version == fileio.OPERATOR_FORMAT:
        return fileio.operator_from_payload(payload)
    raise InvalidInput(f"{path}: unsupported format_version {version!r}")


def _write_report(ns, inputs, result, seed=None) -> None:
    if not getattr(ns, "out", None):
        return
    payload = {
        "format_version": fileio.REPORT_FORMAT,
        "tool": {"name": "kweave", "version": __version__},
        "command": list(ns._argv),
        "generated_at": _utc_now(),
        "inputs": {str(p): fileio.file_digest(p) for p in inputs},
        "seed": seed,
        "result": result,
    }
    fileio.write_json(ns.out, payload)


def _write_csv(path, table) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "lower", "upper"])
        # Row by row: whole-table .tolist() copies would cost ~8 MB at 2^15 rows.
        for digits, lower, upper in zip(table.digits, table.lowers, table.uppers):
            writer.writerow([partition_label(digits.tolist(), table.num_frames),
                             f"{lower:.17g}", f"{upper:.17g}"])


def _weaving_result(report) -> dict:
    return {
        "woven": report.woven,
        "universal_lower": report.universal_lower,
        "universal_upper": report.universal_upper,
        "worst_partition": report.worst_partition.label(),
        "failing_partition": (
            report.failing_partition.label() if report.failing_partition else None
        ),
        "witness": fileio.vector_payload(report.witness) if report.witness is not None else None,
        "partitions_checked": report.partitions_checked,
        "exhaustive": report.exhaustive,
        "threshold": report.threshold,
    }


def _print_weaving(report) -> None:
    if report.woven and report.exhaustive:
        verdict = "woven (exhaustive certificate)"
    elif report.woven:
        verdict = "no counterexample found (sampled; not a certificate)"
    else:
        verdict = "not woven"
    print(f"verdict            = {verdict}")
    print(f"universal_lower    = {_fmt(report.universal_lower)}")
    print(f"universal_upper    = {_fmt(report.universal_upper)}")
    print(f"woven_threshold    = {_fmt(report.threshold)}")
    print(f"worst_partition    = {report.worst_partition.label()}")
    if report.failing_partition is not None:
        p = report.failing_partition
        print(f"failing_partition  = {p.label()}")
        if p.num_frames == 2:
            moved = ",".join(str(j + 1) for j in p.subset(1))
            print(f"  (columns sent to frame 2: {{{moved}}})")
        if report.witness is not None:
            print(f"witness            = {_fmt_vector(report.witness)}")
    print(f"partitions_checked = {report.partitions_checked}"
          + (" (exhaustive)" if report.exhaustive else " (sampled)"))


def cmd_frame_bounds(ns) -> int:
    frame = fileio.load_frame(ns.frame)
    bounds = frame_bounds(frame)
    ok = is_frame(bounds)
    print(f"lower={_fmt(bounds.lower)} upper={_fmt(bounds.upper)}")
    print(f"classification: {'frame' if ok else 'bessel-only (not a frame)'}")
    _write_report(ns, [ns.frame], {
        "lower": bounds.lower, "upper": bounds.upper, "is_frame": ok,
    })
    return 0 if ok else 1


def cmd_kframe_check(ns) -> int:
    frame = fileio.load_frame(ns.frame)
    k = KOperator(fileio.load_operator(ns.operator))
    upper = frame_bounds(frame).upper
    threshold = ns.threshold if ns.threshold is not None else WOVEN_THRESHOLD_SCALE * (1.0 + upper)
    report = is_kframe(frame, k, threshold)
    print(f"is_kframe = {str(report.is_kframe).lower()}")
    print(f"lower     = {_fmt(report.lower)}")
    print(f"upper     = {_fmt(report.upper)}")
    print(f"threshold = {_fmt(threshold)}")
    if report.witness is not None:
        print(f"witness   = {_fmt_vector(report.witness)}")
    _write_report(ns, [ns.frame, ns.operator], {
        "is_kframe": report.is_kframe,
        "lower": report.lower,
        "upper": report.upper,
        "threshold": threshold,
        "witness": fileio.vector_payload(report.witness) if report.witness is not None else None,
    })
    return 0 if report.is_kframe else 1


def cmd_weave_certify(ns) -> int:
    paths = list(ns.files)
    if len(paths) < 2:
        raise InvalidInput("need at least one frame file followed by an operator file")
    frames = [fileio.load_frame(p) for p in paths[:-1]]
    k = KOperator(fileio.load_operator(paths[-1]))
    if ns.u:
        frames, k = transformed_family(frames, k, fileio.load_operator(ns.u))
        paths.append(ns.u)
    try:
        table = weaving_bound_table(frames, k, ns.mode, budget=ns.budget, seed=ns.seed)
    except CapExceeded as exc:
        print(f"warning: {exc}; switching to sampled mode (budget {ns.budget})",
              file=sys.stderr)
        table = weaving_bound_table(frames, k, "sampled", budget=ns.budget, seed=ns.seed)
    report = report_from_table(table, frames, k, ns.threshold)
    if ns.csv:
        _write_csv(ns.csv, table)
    _print_weaving(report)
    _write_report(ns, paths, _weaving_result(report), seed=table.seed)
    return 0 if report.woven else 1


def cmd_perturb_check(ns) -> int:
    f1 = fileio.load_frame(ns.frame1)
    f2 = fileio.load_frame(ns.frame2)
    k = KOperator(fileio.load_operator(ns.operator))
    alpha = ns.alpha
    if alpha is None:
        alpha = check_orthogonal_alpha(f1).alpha_max
        if alpha <= 0:
            raise HypothesesViolated("F1 has no nonzero columns, so no alpha > 0 exists")
    try:
        params = PerturbationParams(lam=ns.lam, mu=ns.mu, nu=ns.nu, alpha=alpha)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc
    result: dict
    if ns.certify:
        cert = perturbation_certify(f1, f2, k, params, seed=ns.seed)
        report = cert.report
    else:
        cert = None
        report = perturbation_condition(f1, f2, k, params, seed=ns.seed)
    print(f"hypotheses_ok     = {str(report.hypotheses_ok).lower()} "
          f"({report.verification_mode} premise check)")
    print(f"condition_27_ok   = {str(report.condition_27_ok).lower()}")
    print(f"lhs_27            = {_fmt(report.lhs_27)}")
    print(f"rhs_27            = {_fmt(report.rhs_27)}")
    if report.predicted_lower is not None:
        print(f"predicted_lower   = {_fmt(report.predicted_lower)}")
    print(f"predicted_upper   = {_fmt(report.predicted_upper)}")
    print(f"alpha             = {_fmt(params.alpha)}")
    result = {
        "hypotheses_ok": report.hypotheses_ok,
        "condition_27_ok": report.condition_27_ok,
        "predicted_lower": fileio.finite_or_none(report.predicted_lower),
        "predicted_upper": report.predicted_upper,
        "lhs_27": report.lhs_27,
        "rhs_27": report.rhs_27,
        "verification_mode": report.verification_mode,
        "params": {"lambda": params.lam, "mu": params.mu, "nu": params.nu,
                   "alpha": params.alpha},
    }
    ok = report.hypotheses_ok and report.condition_27_ok
    if cert is not None:
        print("measured (exhaustive):")
        _print_weaving(cert.measured)
        print(f"consistent        = {str(cert.consistent).lower()}")
        result["measured"] = _weaving_result(cert.measured)
        result["consistent"] = cert.consistent
        ok = ok and cert.consistent
    seed = ns.seed if report.verification_mode == "sampled" else None
    _write_report(ns, [ns.frame1, ns.frame2, ns.operator], result, seed=seed)
    return 0 if ok else 1


def cmd_douglas(ns) -> int:
    l1 = _load_matrix(ns.l1)
    l2 = _load_matrix(ns.l2)
    report = douglas_check(l1, l2)
    print(f"range_included  = {str(report.range_included).lower()}")
    lam = "inf" if not np.isfinite(report.lambda_sq) else _fmt(report.lambda_sq)
    print(f"lambda_sq       = {lam}")
    if report.factor_c is not None:
        print(f"factor_norm_sq  = {_fmt(report.factor_norm_sq)}")
        print(f"factor shape    = {report.factor_c.shape[0]}x{report.factor_c.shape[1]}")
    _write_report(ns, [ns.l1, ns.l2], {
        "range_included": report.range_included,
        "lambda_sq": fileio.finite_or_none(report.lambda_sq),
        "factor_norm_sq": fileio.finite_or_none(report.factor_norm_sq),
        "factor_c": (
            fileio.matrix_payload(report.factor_c) if report.factor_c is not None else None
        ),
    })
    return 0 if report.range_included else 1


def cmd_paper_example(ns) -> int:
    ex = paper_example(ns.name, ns.dim)
    outdir = ns.emit or "."
    os.makedirs(outdir, exist_ok=True)
    files = {
        "f1": os.path.join(outdir, "f1.json"),
        "f2": os.path.join(outdir, "f2.json"),
        "k": os.path.join(outdir, "k.json"),
    }
    fileio.save_frame(files["f1"], ex.frames[0])
    fileio.save_frame(files["f2"], ex.frames[1])
    fileio.save_operator(files["k"], ex.k.matrix)
    if ex.u is not None:
        files["u"] = os.path.join(outdir, "u.json")
        fileio.save_operator(files["u"], ex.u)
    print(f"example = {ex.name} (dim {ex.dim}, {ex.count} columns)")
    for key in sorted(files):
        print(f"wrote {key}: {files[key]}")
    _write_report(ns, [], {
        "name": ex.name, "dim": ex.dim, "count": ex.count,
        "files": {key: str(path) for key, path in sorted(files.items())},
    })
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="REPORT.json",
                   help="write a machine-readable report to this path")


def _add_weave_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="sampled-mode partition draws (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled mode (default %(default)s)")
    p.add_argument("--threshold", type=float, default=None,
                   help="woven threshold (default 1e-8 * (1 + universal_upper))")
    p.add_argument("--csv", metavar="TABLE.csv",
                   help="write a per-partition lower/upper bound table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kweave",
        description="Frames, K-frames, and weaving certification in C^d.",
    )
    parser.add_argument("--version", action="version", version=f"kweave {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("frame-bounds", help="optimal classical frame bounds")
    p.add_argument("frame")
    _add_common(p)
    p.set_defaults(func=cmd_frame_bounds)

    p = sub.add_parser("kframe-check", help="lower K-frame inequality at a threshold")
    p.add_argument("frame")
    p.add_argument("operator")
    p.add_argument("--threshold", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_kframe_check)

    p = sub.add_parser("weave-certify",
                       help="universal K-frame bounds over all (or sampled) weavings")
    p.add_argument("files", nargs="+",
                   metavar="FILE", help="frame files..., then the operator file")
    _add_weave_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_weave_certify, u=None)

    p = sub.add_parser("weave-transform",
                       help="certify the U-image family under the operator U*K")
    p.add_argument("files", nargs="+",
                   metavar="FILE", help="frame files..., then the operator file")
    p.add_argument("--u", required=True, metavar="U.json")
    _add_weave_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_weave_certify)

    p = sub.add_parser("perturb-check",
                       help="perturbation sufficiency condition and predicted bounds")
    p.add_argument("frame1")
    p.add_argument("frame2")
    p.add_argument("operator")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=None,
                   help="default: smallest squared column norm of frame 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certify", action="store_true",
                   help="also certify exhaustively and cross-check")
    _add_common(p)
    p.set_defaults(func=cmd_perturb_check)

    p = sub.add_parser("douglas", help="range inclusion R(L1) in R(L2) with minimal factor")
    p.add_argument("l1")
    p.add_argument("l2")
    _add_common(p)
    p.set_defaults(func=cmd_douglas)

    p = sub.add_parser("paper-example", help="emit a bundled example family as JSON files")
    p.add_argument("name", choices=list(EXAMPLE_NAMES))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--emit", metavar="DIR", help="output directory (default .)")
    _add_common(p)
    p.set_defaults(func=cmd_paper_example)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    ns._argv = argv
    try:
        with linalg.single_threaded_blas():
            return ns.func(ns)
    except HypothesesViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except KweaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
