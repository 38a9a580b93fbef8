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
import functools
import itertools
import json
import os
import shlex
import sys

from .errors import HypothesisViolated, NicholsError, UsageError
from .fields import LITERAL_LENGTH, Field, parse_field_spec
from .jset import TABLE_ROWS, compute_J, m_prime, multiplicity, non_root_table_check
from .oracle import (DEGREE_CEILING, LEVEL_CEILING, compare_routes, nichols_dim,
                     verify_levels, verify_pair)
from .qcalc import BraidingParams, ScalarTable

SCHEMA_PREFIX = "nichols"
SCHEMA_VERSION = "v1"
# Most (q, r, s) unit triples a scan may visit, checked before any unit is
# listed: (order - 1)^3 = 4096 for Fp:17, 17 576 for F_27, 21 952 for Fp:29.
SCAN_POINT_BUDGET = 20_000
# Most characters a --config file may hold, read before any run starts.
CONFIG_LENGTH = 1_000_000


def _schema(command: str) -> str:
    return f"{SCHEMA_PREFIX}/{command}/{SCHEMA_VERSION}"


def _nonneg_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: argparse
    reads sys.stdout and sys.stderr only when it prints."""
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


def _params_json(params: BraidingParams) -> dict:
    return {
        "field": params.field.spec,
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


# -- point commands: each returns (body, text lines, exit status) to _run -------


def _check_level(flag: str, m: int, ceiling: int) -> None:
    if m > ceiling:
        raise UsageError(f"{flag} {m} exceeds the level ceiling {ceiling}")


def _skipped(m: int) -> dict:
    return {"m": m, "skipped": ScalarTable.failure(m)}


def _cmd_jset(args, params: BraidingParams) -> tuple:
    cls = compute_J(args.max, params)
    lines = [
        f"J ∩ [0,{args.max}] = {cls.j_set()}",
        f"J1 = {cls.j1()}",
        f"J2 = {[(e.j, e.witness) for e in cls.members if e.cls == 'J2']}",
    ]
    lines += [f"anomaly: {a}" for a in cls.anomalies]
    return cls.to_json(), lines, 0


def _cmd_multiplicity(args, params: BraidingParams) -> tuple:
    classification = compute_J(args.max, params)
    rows = []
    lines = [f"{'m':>3} {'m_prime':>8} {'|J∩[0,m]|':>10} {'multiplicity':>13}"]
    for m in range(args.max + 1):
        if not params.scalars.hypothesis(m):
            rows.append(_skipped(m))
            lines.append(f"{m:>3} {'—':>8} {'—':>10} {'skipped':>13}")
            continue
        count = classification.count_upto(m)
        mp = m_prime(m, params)
        mult = multiplicity(m, params, classification)
        rows.append({"m": m, "m_prime": mp, "j_count": count, "multiplicity": mult})
        lines.append(f"{m:>3} {mp:>8} {count:>10} {mult:>13}")
    return {"rows": rows}, lines, 0


def _cmd_verify(args, params: BraidingParams) -> tuple:
    levels = range(args.m, args.m + 1) if args.m is not None else range(args.max + 1)
    reports = []
    lines = []
    failed = False
    for m, rep in zip(levels, verify_levels(levels, params)):
        if rep is None:
            reports.append(_skipped(m))
            lines.append(f"m={m}: skipped ({reports[-1]['skipped']})")
            continue
        reports.append(rep.to_json())
        verdict = "ok" if rep.matches_theorem else "MISMATCH"
        lines.append(
            f"m={m}: dim={rep.dim} candidates={[c for c, _ in rep.candidates]} "
            f"independent={rep.independent} -> {verdict}"
        )
        if not rep.matches_theorem:
            failed = True
    return {"reports": reports}, lines, 1 if failed else 0


def _cmd_dim(args, params: BraidingParams) -> tuple:
    parts = args.deg.split(",")  # int() would also read "2_0", "+2" and " 2"
    if len(parts) != 2 or not all(part.removeprefix("-").isdecimal() for part in parts):
        raise UsageError("--deg expects two integers: a,b")
    longest = max(map(len, parts))
    if longest > LITERAL_LENGTH:
        raise UsageError(f"--deg numeral of {longest} characters exceeds {LITERAL_LENGTH}")
    a, b = map(int, parts)
    value = nichols_dim((a, b), params)
    return {"deg": [a, b], "dim": value}, [f"dim B(V)_({a},{b}) = {value}"], 0


def _cmd_table1(args, params: BraidingParams) -> tuple:
    targets = [args.m] if args.m is not None else TABLE_ROWS
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
    return {"rows": rows}, lines, 0


# -- scan -------------------------------------------------------------------------


def _scan_pair(task: tuple) -> tuple:
    """Sweep worker: check the points (q, r, s) of one (q, r), s in unit
    order; returns (checks, skipped, per_point), per_point[j] listing the
    violations at the j-th unit s.  The oracle and main checks are one
    library call per pair, ``compare_routes`` and ``verify_pair``; table1
    runs each point."""
    q, r, units, max_m, check = task
    if check == "oracles":
        checks, skipped, found = compare_routes(q, r, units, max_m)
        per_point = [[{"m": m, "element": idx} for m, idx in tags] for tags in found]
    elif check == "main":
        checks, skipped, found = verify_pair(q, r, units, max_m)
        per_point = [[{"m": m, "report": rep.to_json()} for m, rep in reports]
                     for reports in found]
    else:  # table1
        checks = skipped = 0
        per_point = []
        for s in units:
            params = BraidingParams.from_qrs(q, r, s)
            violations = []
            per_point.append(violations)
            targets = [m for m in TABLE_ROWS if m <= max_m]
            classification = compute_J(targets[-1], params) if targets else None
            for m in targets:
                if not params.scalars.hypothesis(m):
                    skipped += 1
                    continue
                checks += 1
                nonroot = non_root_table_check(m, params)
                mult = multiplicity(m, params, classification)
                if (mult == 0) != nonroot:
                    violations.append({"m": m, "multiplicity": mult, "table": nonroot})
    return checks, skipped, per_point


def _pair_orbits(units: list, p: int) -> tuple:
    """The orbits of the Frobenius x -> x^p on the (q, r) pairs of units, by
    unit index: (representatives, orbit).  Each representative is its orbit's
    first pair in unit order; orbit[(i, j)] is (the index of the pair's
    representative, sigma), sigma a power of the Frobenius as a permutation
    of unit indices that carries the representative to (i, j)."""
    position = {u: i for i, u in enumerate(units)}
    frobenius = [position[u**p] for u in units]
    powers = [list(range(len(units)))]
    while (image := [frobenius[i] for i in powers[-1]]) != powers[0]:
        powers.append(image)
    representatives: list = []
    orbit: dict = {}
    for i, j in itertools.product(range(len(units)), repeat=2):
        if (i, j) not in orbit:
            for sigma in powers:
                orbit.setdefault((sigma[i], sigma[j]), (len(representatives), sigma))
            representatives.append((i, j))
    return representatives, orbit


def _cmd_scan(args) -> int:
    """Sweep every (q, r, s) unit triple.  A task is one (q, r) pair, the
    first in unit order of its orbit under the Frobenius sigma: x -> x^p;
    its worker checks every s in unit order, a main task walking the levels
    only at the s where an s-equation holds.  Every route uses field
    operations only, so the results at (sigma q, sigma r, sigma s) are those
    at (q, r, s).  After the pool, each pair sigma^i of a representative
    copies its checks and skips, and lists at s the violations the
    representative found at sigma^-i s.  Over a prime field every orbit is
    one pair.  The details come in the order q, r, s with s innermost,
    serially and under ``--jobs N`` alike."""
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
    representatives, orbit = _pair_orbits(units, field.characteristic)
    tasks = [(units[i], units[j], units, args.max, args.check) for i, j in representatives]
    if args.jobs > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(args.jobs) as pool:
            results = pool.map(_scan_pair, tasks)
    else:
        results = list(map(_scan_pair, tasks))
    total_checks = total_skipped = 0
    details = []
    for (i, j), (task, sigma) in sorted(orbit.items()):
        checks, skipped, per_point = results[task]
        total_checks += checks
        total_skipped += skipped
        moved = {sigma[k]: found for k, found in enumerate(per_point) if found}
        details += [{"q": str(units[i]), "r": str(units[j]), "s": str(units[k]),
                     "violations": moved[k]} for k in sorted(moved)]
    violations = sum(len(d["violations"]) for d in details)
    data = {
        "schema": _schema("scan"),
        "field": field.spec,
        "check": args.check,
        "max_m": args.max,
        "points": points,
        "checks": total_checks,
        "skipped": total_skipped,
        "violations": violations,
        "details": details,
    }
    lines = [
        f"scan {field.spec} check={args.check} max_m={args.max}: "
        f"points={points} checks={total_checks} skipped={total_skipped} "
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
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read(CONFIG_LENGTH + 1)
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if len(text) > CONFIG_LENGTH:
        raise UsageError(f"{path}: longer than {CONFIG_LENGTH} characters")
    status = 0
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            status = max(status, _report(UsageError(f"{path}:{number}: {exc}")))
            continue
        status = max(status, _run(argv, in_config=True))
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
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "verify" and args.m is not None:
            _check_level("--m", args.m, LEVEL_CEILING)
        elif args.command in ("jset", "multiplicity", "verify"):
            _check_level("--max", args.max, LEVEL_CEILING)
        params = _params_from_args(parse_field_spec(args.field), args)
        body, lines, status = _DISPATCH[args.command](args, params)
        _emit(args, {"schema": _schema(args.command), "params": _params_json(params),
                     **body}, lines)
        return status
    except NicholsError as exc:
        return _report(exc)


def _report(exc: NicholsError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
