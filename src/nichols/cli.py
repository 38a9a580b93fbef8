"""Command-line front end: single-point queries, verification runs, and
exhaustive parameter sweeps over finite fields.

Subcommands: jset, multiplicity, verify, dim, table1, scan.  Parameters are
given either in shorthand (--q --r --s, which fixes q21 = 1 and q12 = r; all
reported quantities depend on the matrix only through q, r, s) or as the
explicit matrix (--q11 --q12 --q21 --q22).  Exit status: 0 success, 1 a
verification failure was found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from multiprocessing import get_context

from .errors import HypothesisViolated, NicholsError, UsageError
from .fields import Field, parse_field_spec
from .jset import compute_J, m_prime, multiplicity, non_root_table_check
from .oracle import (
    DEGREE_CEILING,
    LEVEL_CEILING,
    in_kernel,
    in_kernel_by_derivations,
    nichols_dim,
    verify_levels,
)
from .qcalc import BraidingParams
from .rootvec import p_k, uhat_pair_words

SCHEMA_PREFIX = "nichols"
SCHEMA_VERSION = "v1"
# Most (q, r, s) unit triples a scan may visit, checked before any unit is
# listed: (order - 1)^3 = 4096 for Fp:17, 17 576 for F_27, 21 952 for Fp:29.
SCAN_POINT_BUDGET = 20_000


def _schema(command: str) -> str:
    return f"{SCHEMA_PREFIX}/{command}/{SCHEMA_VERSION}"


def _nonneg_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nichols",
        description="Exact root-multiplicity computations for rank-2 "
        "diagonal braidings over Q, F_p, and small extensions.",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="file with one run per line (same flags as the command line)",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p: argparse.ArgumentParser, with_params: bool = True) -> None:
        p.add_argument("--field", required=True, help="Q | Fp:<p> | ext:...")
        if with_params:
            p.add_argument("--q", help="q = q11 (shorthand mode)")
            p.add_argument("--r", help="r = q12 q21 (shorthand mode, q21 = 1)")
            p.add_argument("--s", help="s = q22 (shorthand mode)")
            p.add_argument("--q11", help="explicit braiding matrix entry")
            p.add_argument("--q12", help="explicit braiding matrix entry")
            p.add_argument("--q21", help="explicit braiding matrix entry")
            p.add_argument("--q22", help="explicit braiding matrix entry")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )

    p_jset = sub.add_parser("jset", help="classify J ∩ [0, max]")
    add_common(p_jset)
    p_jset.add_argument("--max", "--max-m", type=_nonneg_int, required=True, dest="max")

    p_mult = sub.add_parser("multiplicity", help="multiplicity table up to max")
    add_common(p_mult)
    p_mult.add_argument("--max", "--max-m", type=_nonneg_int, required=True, dest="max")

    p_verify = sub.add_parser("verify", help="kernel-basis verification per m")
    add_common(p_verify)
    levels = p_verify.add_mutually_exclusive_group(required=True)
    levels.add_argument("--m", type=_nonneg_int, help="verify a single m")
    levels.add_argument("--max", "--max-m", type=_nonneg_int, dest="max")

    p_dim = sub.add_parser("dim", help="Nichols-algebra dimension in one degree")
    add_common(p_dim)
    p_dim.add_argument("--deg", required=True, metavar="a,b")

    p_table = sub.add_parser("table1", help="evaluate the non-root table")
    add_common(p_table)
    p_table.add_argument("--m", type=_nonneg_int, help="single row (default: all)")

    p_scan = sub.add_parser("scan", help="sweep all (q,r,s) unit triples")
    add_common(p_scan, with_params=False)
    p_scan.add_argument("--max", "--max-m", type=_nonneg_int, required=True, dest="max")
    p_scan.add_argument(
        "--check", choices=("main", "oracles", "table1"), default="main"
    )
    p_scan.add_argument("--jobs", type=int, default=1)
    return parser


def _params_from_args(field: Field, args) -> BraidingParams:
    shorthand = [args.q, args.r, args.s]
    explicit = [args.q11, args.q12, args.q21, args.q22]
    if any(v is not None for v in shorthand) and any(v is not None for v in explicit):
        raise UsageError("--q/--r/--s and --q11.. are mutually exclusive")
    if all(v is not None for v in shorthand):
        q, r, s = (field.parse(v) for v in shorthand)
        return BraidingParams.from_qrs(q, r, s)
    if all(v is not None for v in explicit):
        q11, q12, q21, q22 = (field.parse(v) for v in explicit)
        return BraidingParams(q11, q12, q21, q22)
    raise UsageError("provide --q --r --s or all of --q11..--q22")


def _params_json(field: Field, params: BraidingParams) -> dict:
    return {
        "field": field.spec,
        "q11": str(params.q11),
        "q12": str(params.q12),
        "q21": str(params.q21),
        "q22": str(params.q22),
        "q": str(params.q),
        "r": str(params.r),
        "s": str(params.s),
    }


def _emit(args, data: dict, text_lines: list) -> None:
    if args.fmt == "json":
        print(json.dumps(data))
    else:
        for line in text_lines:
            print(line)


# -- subcommand drivers ---------------------------------------------------------


def _cmd_jset(args) -> int:
    _check_level("--max", args.max, LEVEL_CEILING)
    field = parse_field_spec(args.field)
    params = _params_from_args(field, args)
    cls = compute_J(args.max, params)
    data = {"schema": _schema("jset"), "params": _params_json(field, params)}
    data.update(cls.to_json())
    lines = [
        f"J ∩ [0,{args.max}] = {cls.j_set()}",
        f"J1 = {cls.j1()}",
        f"J2 = {[(e.j, e.witness) for e in cls.members if e.cls == 'J2']}",
    ]
    lines += [f"anomaly: {a}" for a in cls.anomalies]
    _emit(args, data, lines)
    return 0


def _cmd_multiplicity(args) -> int:
    _check_level("--max", args.max, LEVEL_CEILING)
    field = parse_field_spec(args.field)
    params = _params_from_args(field, args)
    classification = compute_J(args.max, params)
    rows = []
    lines = [f"{'m':>3} {'m_prime':>8} {'|J∩[0,m]|':>10} {'multiplicity':>13}"]
    for m in range(args.max + 1):
        if not params.scalars.hypothesis(m):
            rows.append({"m": m, "skipped": f"({m})_q^! b_{m} = 0"})
            lines.append(f"{m:>3} {'—':>8} {'—':>10} {'skipped':>13}")
            continue
        count = classification.count_upto(m)
        mp = m_prime(m, params)
        mult = multiplicity(m, params, classification)
        rows.append({"m": m, "m_prime": mp, "j_count": count, "multiplicity": mult})
        lines.append(f"{m:>3} {mp:>8} {count:>10} {mult:>13}")
    data = {
        "schema": _schema("multiplicity"),
        "params": _params_json(field, params),
        "rows": rows,
    }
    _emit(args, data, lines)
    return 0


def _check_level(flag: str, m: int, ceiling: int) -> None:
    if m > ceiling:
        raise UsageError(f"{flag} {m} exceeds the level ceiling {ceiling}")


def _cmd_verify(args) -> int:
    if args.m is not None:
        _check_level("--m", args.m, LEVEL_CEILING)
    else:
        _check_level("--max", args.max, LEVEL_CEILING)
    field = parse_field_spec(args.field)
    params = _params_from_args(field, args)
    levels = range(args.m, args.m + 1) if args.m is not None else range(args.max + 1)
    reports = []
    lines = []
    failed = False
    for m, rep in zip(levels, verify_levels(levels, params)):
        if rep is None:
            reports.append({"m": m, "skipped": f"({m})_q^! b_{m} = 0"})
            lines.append(f"m={m}: skipped (({m})_q^! b_{m} = 0)")
            continue
        reports.append(rep.to_json())
        verdict = "ok" if rep.matches_theorem else "MISMATCH"
        lines.append(
            f"m={m}: dim={rep.dim} candidates={[c for c, _ in rep.candidates]} "
            f"independent={rep.independent} -> {verdict}"
        )
        if not rep.matches_theorem:
            failed = True
    data = {
        "schema": _schema("verify"),
        "params": _params_json(field, params),
        "reports": reports,
    }
    _emit(args, data, lines)
    return 1 if failed else 0


def _cmd_dim(args) -> int:
    field = parse_field_spec(args.field)
    params = _params_from_args(field, args)
    try:
        a, b = (int(part) for part in args.deg.split(","))
    except ValueError:
        raise UsageError("--deg expects two integers: a,b") from None
    value = nichols_dim((a, b), params)
    data = {
        "schema": _schema("dim"),
        "params": _params_json(field, params),
        "deg": [a, b],
        "dim": value,
    }
    _emit(args, data, [f"dim B(V)_({a},{b}) = {value}"])
    return 0


def _cmd_table1(args) -> int:
    field = parse_field_spec(args.field)
    params = _params_from_args(field, args)
    targets = [args.m] if args.m is not None else [1, 2, 3, 4, 6]
    rows = []
    lines = []
    for m in targets:
        try:
            verdict = non_root_table_check(m, params)
        except HypothesisViolated as exc:
            rows.append({"m": m, "skipped": str(exc)})
            lines.append(f"m={m}: skipped ({exc})")
            continue
        rows.append({"m": m, "non_root": verdict})
        lines.append(f"m={m}: {'non-root' if verdict else 'root'}")
    data = {
        "schema": _schema("table1"),
        "params": _params_json(field, params),
        "rows": rows,
    }
    _emit(args, data, lines)
    return 0


# -- scan -------------------------------------------------------------------------


def _scan_point(task: tuple) -> dict:
    """Sweep worker: run one (q, r, s) triple; returns a summary row."""
    _, q, r, s, max_m, check = task
    params = BraidingParams.from_qrs(q, r, s)
    row = {
        "q": str(q),
        "r": str(r),
        "s": str(s),
        "checks": 0,
        "skipped": 0,
        "violations": [],
    }
    if check == "main":
        levels = range(max_m + 1)
        for m, rep in zip(levels, verify_levels(levels, params)):
            if rep is None:
                row["skipped"] += 1
                continue
            row["checks"] += 1
            if not rep.matches_theorem:
                row["violations"].append({"m": m, "report": rep.to_json()})
    elif check == "oracles":
        for m in range(max_m + 1):
            if not params.scalars.hypothesis(m):
                row["skipped"] += 1
                continue
            elements = [uhat_pair_words(i, m, params) for i in range(m + 1)]
            elements.append(p_k(m, params).to_words())
            for idx, el in enumerate(elements):
                row["checks"] += 1
                if in_kernel(el, params) != in_kernel_by_derivations(el, params):
                    row["violations"].append({"m": m, "element": idx})
    else:  # table1
        targets = [m for m in (1, 2, 3, 4, 6) if m <= max_m]
        classification = compute_J(targets[-1], params) if targets else None
        for m in targets:
            try:
                table_says_nonroot = non_root_table_check(m, params)
                mult = multiplicity(m, params, classification)
            except HypothesisViolated:
                row["skipped"] += 1
                continue
            row["checks"] += 1
            if (mult == 0) != table_says_nonroot:
                row["violations"].append(
                    {"m": m, "multiplicity": mult, "table": table_says_nonroot}
                )
    return row


def _cmd_scan(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise UsageError(f"--jobs must be between 1 and {cpus} (the CPU count)")
    if args.check == "main":
        _check_level("--max", args.max, LEVEL_CEILING)
    elif args.check == "oracles":
        # the oracles expand U_m into words of length m + 2
        _check_level("--max", args.max, DEGREE_CEILING - 2)
    field = parse_field_spec(args.field)
    if field.order is None:
        raise UsageError("scan requires a finite field")
    points = (field.order - 1) ** 3
    if points > SCAN_POINT_BUDGET:
        raise UsageError(
            f"scan over {field.spec} has {points} points, "
            f"above the budget of {SCAN_POINT_BUDGET}"
        )
    units = list(field.units())
    tasks = [
        (field, q, r, s, args.max, args.check)
        for q in units
        for r in units
        for s in units
    ]
    if args.jobs > 1:
        with get_context("fork").Pool(args.jobs) as pool:
            rows = pool.map(_scan_point, tasks)
    else:
        rows = [_scan_point(t) for t in tasks]

    total_checks = sum(r["checks"] for r in rows)
    total_skipped = sum(r["skipped"] for r in rows)
    details = [
        {"q": r["q"], "r": r["r"], "s": r["s"], "violations": r["violations"]}
        for r in rows
        if r["violations"]
    ]
    violations = sum(len(r["violations"]) for r in rows)
    data = {
        "schema": _schema("scan"),
        "field": field.spec,
        "check": args.check,
        "max_m": args.max,
        "points": len(tasks),
        "checks": total_checks,
        "skipped": total_skipped,
        "violations": violations,
        "details": details,
    }
    lines = [
        f"scan {field.spec} check={args.check} max_m={args.max}: "
        f"points={len(tasks)} checks={total_checks} skipped={total_skipped} "
        f"violations={violations}"
    ]
    for d in details:
        lines.append(f"  violation at q={d['q']} r={d['r']} s={d['s']}: {d['violations']}")
    _emit(args, data, lines)
    return 1 if violations else 0


_DISPATCH = {
    "jset": _cmd_jset,
    "multiplicity": _cmd_multiplicity,
    "verify": _cmd_verify,
    "dim": _cmd_dim,
    "table1": _cmd_table1,
    "scan": _cmd_scan,
}


def _attach_dash_values(argv: list) -> list:
    """Rewrite ``--opt -3/5`` as ``--opt=-3/5``.

    argparse reads a token that begins with "-" as an option unless it looks
    like a negative number, so values such as -3/5, -t or -1,2 would be
    refused.  Every long option of this CLI except --help takes a value, and
    its only short option is -h, so such a token can only be a value.
    """
    out: list = []
    for token in argv:
        prev = out[-1] if out else ""
        if (
            prev.startswith("--")
            and "=" not in prev
            and not "--help".startswith(prev)
            and token.startswith("-")
            and not token.startswith("--")
            and token != "-h"
        ):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _run_config(path: str) -> int:
    status = 0
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                status = max(status, _run(shlex.split(line), in_config=True))
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    return status


def run_command(argv: list) -> int:
    return _run(argv, in_config=False)


def _run(argv: list, in_config: bool) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(_attach_dash_values(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        # --config replaces the subcommand with runs read from a file
        if args.config is not None:
            if in_config:
                raise UsageError("--config cannot appear inside a config file")
            if args.command is not None:
                raise UsageError("--config cannot be combined with a subcommand")
            return _run_config(args.config)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        return _DISPATCH[args.command](args)
    except NicholsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
