"""Command-line front end.

Subcommands load frames/operators from JSON files, run the library,
print an aligned human-readable summary to stdout, and exit with a
scriptable verdict code:

    0   computation succeeded with a positive verdict
    1   computation succeeded with a negative or unproved verdict (not a
        frame / not a K-frame / not woven / condition fails / premise fails)
    2   input or usage error, including exhaustive mode past the partition cap
        and an output path that cannot be written

``--out report.json`` additionally writes a machine-readable report
(command echo, sha256 digests of the inputs, all result fields, tool
version, seed when sampling was used).  Reports are byte-identical
across reruns with the same inputs and seed, except for the
``generated_at`` timestamp.  ``--csv`` on the weaving subcommands
writes one row per partition of the table for external plotting.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import sys

import numpy as np

from . import __version__, fileio, linalg
from .errors import HypothesesViolated, InvalidInput, KweaveError
from .frames import frame_bounds, is_frame
from .generators import EXAMPLE_NAMES, paper_example
from .kframe import KOperator, douglas_check, is_kframe, require_threshold
from .perturbation import perturbation_certify, perturbation_condition
# Unused here: bench/spans.py patches cli.check_orthogonal_alpha until ROADMAP item 1.
from .perturbation import check_orthogonal_alpha  # noqa: F401
from .weaving import (
    DEFAULT_BUDGET,
    _exhaustive_digits,
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


def _write_report(ns, inputs, report, seed=None, **extras) -> None:
    """Write ``--out``: its ``result`` holds the fields of ``report``, then ``extras``."""
    if not getattr(ns, "out", None):
        return
    payload = {
        "format_version": fileio.REPORT_FORMAT,
        "tool": {"name": "kweave", "version": __version__},
        "command": list(ns._argv),
        "generated_at": _utc_now(),
        "inputs": {str(p): fileio.file_digest(p) for p in inputs},
        "seed": seed,
        "result": {**fileio.encode(report), **fileio.encode(extras)},
    }
    fileio.write_json(ns.out, payload)


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _refuse_overwrite(ns, inputs, emitted=()) -> None:
    """Refuse, before anything is written, an output path that names an input or another output.

    The outputs are ``--out``, ``--csv`` and ``emitted`` (``--emit`` files).
    """
    outputs = [(f"--{flag}", getattr(ns, flag, None)) for flag in ("out", "csv")]
    outputs = [(flag, path) for flag, path in outputs if path]
    outputs += [("--emit", path) for path in emitted]
    for i, (flag, path) in enumerate(outputs):
        for source in inputs:
            if _same_file(path, source):
                raise InvalidInput(f"{flag} {path} is the input file {source}")
        for other_flag, other in outputs[i + 1:]:
            if _same_file(path, other):
                raise InvalidInput(f"{flag} {path} and {other_flag} {other} are the same file")


#: Rows per write: the writer holds one block's byte matrix, never the
#: whole table.  A sampled table goes in blocks of CSV_BLOCK rows.  An
#: exhaustive table goes in blocks of m^k rows, k >= 1 the largest with
#: m^k <= CSV_BLOCK and k <= n (so m rows when m > CSV_BLOCK): each block
#: is the rows that share their first n - k digits.
CSV_BLOCK = 4096


def _label_bytes(digits: np.ndarray, m: int, starts: bool = True) -> np.ndarray:
    """The partition labels of a digit block, one NUL-padded uint8 row each.

    With ``starts`` false the rows are the tails of longer labels, so
    past ten frames each keeps its leading "-".
    """
    if m <= 10:
        return digits.astype(np.uint8) + ord("0")
    # Each distinct digit's "-3" "-12" once, then each row less its leading "-"
    distinct, index = np.unique(digits, return_inverse=True)
    texts = np.array([f"-{x}" for x in distinct.tolist()], dtype="S")
    label = texts.view(np.uint8).reshape(distinct.size, -1)[index.reshape(digits.shape)]
    return label.reshape(len(digits), -1)[:, int(starts):]


def _fields(matrix: np.ndarray) -> np.ndarray:
    """Each row of a uint8 matrix as one fixed-size byte field."""
    matrix = np.ascontiguousarray(matrix)
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


def _texts(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """The NUL-padded ",lower,upper\\r\\n" of each bound pair, as byte fields."""
    pairs = zip(lowers.tolist(), uppers.tolist())
    texts = np.array([f",{lo:.17g},{up:.17g}\r\n" for lo, up in pairs], dtype="S")
    return texts.view(f"V{texts.itemsize}")


def _sampled_blocks(table):
    """The rows of each block of a sampled table, one text formatted per row."""
    for start in range(0, len(table), CSV_BLOCK):
        block = slice(start, start + CSV_BLOCK)
        labels = _fields(_label_bytes(table.evaluated_digits[block], table.num_frames))
        texts = _texts(table.evaluated_lowers[block], table.evaluated_uppers[block])
        rows = np.empty(len(labels), dtype=[("label", labels.dtype), ("text", texts.dtype)])
        rows["label"], rows["text"] = labels, texts
        yield rows


def _exhaustive_blocks(table):
    """The rows of each block of an exhaustive table, one text formatted per weaving.

    A row's weaving is the evaluated row ``digits @ table.weights``, the
    sum of its first n - k digits' part and its last k digits' part.
    Every block enumerates the same last k digits, so their labels and
    their part (``inverse``) are found once.  A block's weavings are
    then one contiguous run of evaluated rows, starting at its first
    n - k digits' part.  A block on the same run as the last only writes
    its first n - k digits over the last block's rows.
    """
    m, n = table.num_frames, table.evaluated_digits.shape[1]
    k = 1
    while k < n and m ** (k + 1) <= CSV_BLOCK:
        k += 1
    head = n - k
    tails = _exhaustive_digits(m, k, range(k))
    inverse = tails @ table.weights[head:]
    run = int(inverse[-1]) + 1
    tail = _fields(_label_bytes(tails, m, starts=head == 0))
    # The first n - k digits of each block: their labels and the block's first weaving.
    heads = _exhaustive_digits(m, head, range(head))
    leads = _fields(_label_bytes(heads, m)) if head else [None]
    lead_field = [("lead", leads.dtype)] if head else []
    rows = last = None
    for lead, first in zip(leads, (heads @ table.weights[:head]).tolist()):
        if first != last:
            texts = _texts(table.evaluated_lowers[first:first + run],
                           table.evaluated_uppers[first:first + run])
            rows = np.empty(len(tail), dtype=lead_field + [("tail", tail.dtype),
                                                           ("text", texts.dtype)])
            rows["tail"], rows["text"] = tail, texts[inverse]
            last = first
        if head:
            rows["lead"] = lead
        yield rows


def _write_csv(path, table) -> None:
    """The table as RFC 4180 CSV (no field needs quoting), one byte matrix per block.

    Each row of a block holds its label, then ",lower,upper\\r\\n", in
    NUL-padded fixed-size fields, so each field is filled in one copy.
    The writer reads only the table's evaluated rows: an exhaustive block
    formats one text per distinct weaving and copies it to every row of
    that weaving.
    """
    blocks = _exhaustive_blocks(table) if table.exhaustive else _sampled_blocks(table)
    with open(path, "wb") as fh:
        fh.write(b"partition,lower,upper\r\n")
        for rows in blocks:
            rows = rows.view(np.uint8).reshape(len(rows), -1)
            fh.write(rows if rows.all() else rows[rows != 0])  # drop any NUL padding


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
    _refuse_overwrite(ns, [ns.frame])
    frame = fileio.load_frame(ns.frame)
    bounds = frame_bounds(frame)
    ok = is_frame(bounds)
    print(f"lower={_fmt(bounds.lower)} upper={_fmt(bounds.upper)}")
    print(f"classification: {'frame' if ok else 'bessel-only (not a frame)'}")
    _write_report(ns, [ns.frame], bounds, is_frame=ok)
    return 0 if ok else 1


def cmd_kframe_check(ns) -> int:
    _refuse_overwrite(ns, [ns.frame, ns.operator])
    frame = fileio.load_frame(ns.frame)
    k = KOperator(fileio.load_operator(ns.operator))
    report = is_kframe(frame, k, ns.threshold)
    print(f"is_kframe = {str(report.is_kframe).lower()}")
    print(f"lower     = {_fmt(report.lower)}")
    print(f"upper     = {_fmt(report.upper)}")
    print(f"threshold = {_fmt(report.threshold)}")
    if report.witness is not None:
        print(f"witness   = {_fmt_vector(report.witness)}")
    _write_report(ns, [ns.frame, ns.operator], report)
    return 0 if report.is_kframe else 1


def cmd_weave_certify(ns) -> int:
    paths = list(ns.files)
    if len(paths) < 2:
        raise InvalidInput("need at least one frame file followed by an operator file")
    _refuse_overwrite(ns, paths + ([ns.u] if ns.u else []))
    if ns.threshold is not None:
        require_threshold(ns.threshold)
    frames = [fileio.load_frame(p) for p in paths[:-1]]
    k = KOperator(fileio.load_operator(paths[-1]))
    if ns.u:
        frames, k = transformed_family(frames, k, fileio.load_operator(ns.u))
        paths.append(ns.u)
    table = weaving_bound_table(frames, k, ns.mode, budget=ns.budget, seed=ns.seed,
                                every_row=bool(ns.csv))
    report = report_from_table(table, frames, k, ns.threshold)
    if ns.csv:
        _write_csv(ns.csv, table)
    _print_weaving(report)
    _write_report(ns, paths, report, seed=ns.seed if ns.mode == "sampled" else None)
    return 0 if report.woven else 1


def cmd_perturb_check(ns) -> int:
    _refuse_overwrite(ns, [ns.frame1, ns.frame2, ns.operator])
    f1 = fileio.load_frame(ns.frame1)
    f2 = fileio.load_frame(ns.frame2)
    k = KOperator(fileio.load_operator(ns.operator))
    if ns.certify:
        cert = perturbation_certify(f1, f2, k, ns.lam)
        report = cert.report
    else:
        cert = None
        report = perturbation_condition(f1, f2, k, ns.lam)
    print(f"hypotheses_ok     = {str(report.hypotheses_ok).lower()} "
          f"({report.verification_mode} premise check)")
    print(f"condition_27_ok   = {str(report.condition_27_ok).lower()}")
    print(f"lhs_27            = {_fmt(report.lhs_27)}")
    print(f"rhs_27            = {_fmt(report.rhs_27)}")
    if report.predicted_lower is not None:
        print(f"predicted_lower   = {_fmt(report.predicted_lower)}")
    print(f"predicted_upper   = {_fmt(report.predicted_upper)}")
    print(f"alpha             = {_fmt(report.alpha)}")
    extras = {"params": {"lambda": ns.lam}}
    ok = report.hypotheses_ok and report.condition_27_ok
    if cert is not None:
        print("measured (exhaustive):")
        _print_weaving(cert.measured)
        print(f"consistent        = {str(cert.consistent).lower()}")
        extras.update(measured=cert.measured, consistent=cert.consistent)
        ok = ok and cert.consistent
    _write_report(ns, [ns.frame1, ns.frame2, ns.operator], report, **extras)
    return 0 if ok else 1


def cmd_douglas(ns) -> int:
    _refuse_overwrite(ns, [ns.l1, ns.l2])
    l1 = _load_matrix(ns.l1)
    l2 = _load_matrix(ns.l2)
    report = douglas_check(l1, l2)
    print(f"range_included  = {str(report.range_included).lower()}")
    lam = "inf" if not np.isfinite(report.lambda_sq) else _fmt(report.lambda_sq)
    print(f"lambda_sq       = {lam}")
    if report.factor_c is not None:
        print(f"factor_norm_sq  = {_fmt(report.factor_norm_sq)}")
        print(f"factor shape    = {report.factor_c.shape[0]}x{report.factor_c.shape[1]}")
    _write_report(ns, [ns.l1, ns.l2], report)
    return 0 if report.range_included else 1


def cmd_paper_example(ns) -> int:
    ex = paper_example(ns.name, ns.dim)
    outdir = ns.emit or "."
    keys = ["f1", "f2", "k"] + (["u"] if ex.u is not None else [])
    files = {key: os.path.join(outdir, f"{key}.json") for key in keys}
    _refuse_overwrite(ns, [], files.values())
    os.makedirs(outdir, exist_ok=True)
    fileio.save_frame(files["f1"], ex.frames[0])
    fileio.save_frame(files["f2"], ex.frames[1])
    fileio.save_operator(files["k"], ex.k.matrix)
    if ex.u is not None:
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
                   help="non-negative seed for sampled mode (default %(default)s)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    ns._argv = argv
    try:
        with linalg.single_threaded_blas():
            return ns.func(ns)
    except HypothesesViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except (KweaveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
