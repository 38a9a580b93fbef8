"""Seeded command-line generator for the nichols benchmark workloads.

A workload is a fixed list of slots.  A slot is either one fixed command
line or a template whose parameter point the run seed draws from a pool.
Pools are built from the public library (``parse_field_spec``,
``BraidingParams.from_qrs``, ``qfact_b``, ``compute_J``) by a procedure
that does not depend on the run seed, so every command any seed can
produce is known in advance and has a recorded reference digest.  The
program under test only ever receives the generated command lines.

Parameters are emitted as ``--q=<v>``: argparse reads ``--r -3/5`` as an
unknown option and exits 2, so a negative rational must be glued to its
flag.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

from nichols.fields import parse_field_spec
from nichols.jset import compute_J
from nichols.qcalc import BraidingParams, qfact_b

F9_MODULI = ("1,0,1", "2,1,1", "2,2,1")  # the monic irreducible quadratics over F_3
F16_MODULI = ("1,1,0,0,1", "1,0,0,1,1", "1,1,1,1,1")  # the irreducible quartics over F_2
F25 = "ext:Fp:5:2,0,1"
POOL_SIZE = 16

WORKLOADS = ("sweep-main", "dim-rank", "sweep-oracles", "scalar-table")


def _params(field, q: str, r: str, s: str) -> BraidingParams:
    return BraidingParams.from_qrs(field.parse(q), field.parse(r), field.parse(s))


def _swapped(params: BraidingParams) -> BraidingParams:
    """The same braiding with the roles of x1 and x2 exchanged."""
    return BraidingParams.from_qrs(params.s, params.r, params.q)


def _small_rational(rng: random.Random, height: int) -> Fraction:
    """A rational of height <= ``height`` other than 0 and the roots of unity ±1."""
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value not in (0, 1, -1):
            return value


@lru_cache(maxsize=None)
def j2_points(spec: str, max_m: int) -> tuple:
    """Every unit triple with s = -1 whose J ∩ [0, max_m] has a J2 member n
    with (n)_q^! b_n != 0, so that ``verify`` reaches ``l_n`` and
    ``ad_pow_coords``.

    Such points are rare (46 of the 13 824 F_25 triples for max_m = 7);
    s = -1 puts 0 in J1, which keeps the search to the q, r plane and gives
    every pool point the same J = {0, n} shape.
    """
    field = parse_field_spec(spec)
    units = [str(u) for u in field.units()]
    s = str(field.from_int(-1))
    out = []
    for q in units:
        for r in units:
            params = _params(field, q, r, s)
            cls = compute_J(max_m, params)
            if any(e.cls == "J2" and qfact_b(e.j, params) for e in cls.members):
                out.append((q, r, s))
    return tuple(out)


@lru_cache(maxsize=None)
def generic_points(spec: str, a: int, b: int, tag: str) -> tuple:
    """POOL_SIZE points where (a+b)_q^! b_(a+b) and its x1<->x2 mirror are
    nonzero, drawn by a fixed procedure from small values (height <= 5 over Q).

    ``tag`` only separates the draw streams of different pools.
    """
    field = parse_field_spec(spec)
    rng = random.Random(f"pool:{spec}:{a},{b}:{tag}")
    units = None if field.order is None else [str(u) for u in field.units()]
    out: list = []
    while len(out) < POOL_SIZE:
        if units is None:
            point = tuple(str(_small_rational(rng, 5)) for _ in range(3))
        else:
            point = tuple(rng.choice(units) for _ in range(3))
        params = _params(field, *point)
        if point not in out and qfact_b(a + b, params) and qfact_b(a + b, _swapped(params)):
            out.append(point)
    return tuple(out)


def _point_flags(point: tuple) -> list:
    q, r, s = point
    return [f"--q={q}", f"--r={r}", f"--s={s}"]


def _scan(spec: str, check: str, max_m: int) -> list:
    return ["scan", "--field", spec, "--max", str(max_m), "--check", check, "--format", "json"]


def _verify(spec: str, point: tuple, max_m: int) -> list:
    return ["verify", "--field", spec, *_point_flags(point), "--max", str(max_m), "--format", "json"]


def _dim(spec: str, point: tuple, a: int, b: int) -> list:
    return ["dim", "--field", spec, *_point_flags(point), "--deg", f"{a},{b}", "--format", "json"]


def _multiplicity(spec: str, point: tuple, max_m: int) -> list:
    return ["multiplicity", "--field", spec, *_point_flags(point), "--max", str(max_m), "--format", "json"]


def _f9(modulus: str) -> str:
    return f"ext:Fp:3:{modulus}"


def _f16(modulus: str) -> str:
    return f"ext:Fp:2:{modulus}"


def _slots(workload: str) -> list:
    """Each slot is a list of alternatives; the seed picks one per slot."""
    if workload == "sweep-main":
        return [
            [_scan("Fp:5", "main", 6)],
            [_scan(_f9(m), "main", 2) for m in F9_MODULI],
            [_verify(F25, p, 7) for p in j2_points(F25, 7)],
            [_verify(F25, p, 7) for p in j2_points(F25, 7)],
            [_verify("Q", p, 8) for p in generic_points("Q", 8, 0, "verify")],
        ]
    if workload == "dim-rank":
        return [
            [_dim("Fp:101", p, 4, 4) for p in generic_points("Fp:101", 4, 4, "dim")],
            [_dim("Fp:101", p, 6, 3) for p in generic_points("Fp:101", 6, 3, "dim")],
            [_dim("Q", p, 5, 3) for p in generic_points("Q", 5, 3, "dim")],
            [_dim("Q", p, 4, 3) for p in generic_points("Q", 4, 3, "dim")],
            [_dim(F25, p, 4, 3) for p in generic_points(F25, 4, 3, "dim")],
        ]
    if workload == "sweep-oracles":
        return [
            [_scan("Fp:5", "oracles", 6)],
            [_scan(_f9(m), "oracles", 2) for m in F9_MODULI],
        ]
    if workload == "scalar-table":
        return [
            [_scan("Fp:17", "table1", 8)],
            [_scan(_f16(m), "table1", 1) for m in F16_MODULI],
            [_multiplicity("Q", p, 40) for p in generic_points("Q", 40, 0, "multiplicity")],
        ]
    raise KeyError(f"unknown workload {workload!r}")


SMOKE = {
    "sweep-main": [_scan("Fp:3", "main", 4)],
    "dim-rank": [_dim("Q", ("2", "3", "5"), 2, 2)],
    "sweep-oracles": [_scan("Fp:3", "oracles", 3)],
    "scalar-table": [_scan("Fp:5", "table1", 6)],
}


def generate(workload: str, seed: int) -> list:
    """The workload's command lines (argv lists) for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [list(rng.choice(slot)) for slot in _slots(workload)]


def all_commands(workload: str) -> list:
    """Every command line any seed can generate, plus the smoke command."""
    unique = {tuple(cmd): None for slot in _slots(workload) for cmd in slot}
    unique.update((tuple(cmd), None) for cmd in SMOKE[workload])
    return [list(cmd) for cmd in unique]


def work_units(argv: list, data: dict) -> int:
    """Verified work units in one command's parsed JSON output.

    scan: elements or points compared (``checks``); verify and
    multiplicity: levels that were not skipped; dim: symmetrizer columns
    ranked, C(a+b, a).
    """
    command = argv[0]
    if command == "scan":
        return data["checks"]
    if command == "verify":
        return sum(1 for rep in data["reports"] if "skipped" not in rep)
    if command == "multiplicity":
        return sum(1 for row in data["rows"] if "skipped" not in row)
    if command == "dim":
        a, b = data["deg"]
        return comb(a + b, a)
    raise KeyError(f"no work unit for {command!r}")


def isomorphic_key(argv: list):
    """For a scan over an extension field, the command with the modulus
    removed: scans sharing this key run over isomorphic fields and must
    report identical totals.  None for every other command."""
    if argv[0] != "scan":
        return None
    spec = argv[argv.index("--field") + 1]
    if not spec.startswith("ext:"):
        return None
    _, kind, p, modulus = spec.split(":")
    degree = len(modulus.split(",")) - 1
    rest = [x for x in argv if x not in (spec, "--field")]
    return f"{kind}:{p}^{degree} " + " ".join(rest)
