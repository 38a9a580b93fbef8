"""End-to-end acceptance checks, one per headline claim.

Every check prints a single PASS/FAIL line (visible with -v through the
test name, and in captured output with the timing detail).  All equalities
are exact; there are no tolerances anywhere.
"""

import json
import random
import time

from nichols.braided import GradedElement, ad_x1_pow
from nichols.cli import run_command
from nichols.fields import parse_field_spec
from nichols.jset import compute_J, multiplicity, non_root_table_check
from nichols.oracle import (
    in_kernel,
    in_kernel_by_derivations,
    symmetrizer,
    verify_main,
    words_of_multidegree,
)
from nichols.qcalc import BraidingParams, qfact_b
from nichols.rootvec import ad_p_closed_form, p_k
from conftest import random_element
from word_oracles import first_equation, naive_symmetrizer, q2_eval, q2_poly

QQ = parse_field_spec("Q")
F3 = parse_field_spec("Fp:3")
F5 = parse_field_spec("Fp:5")
F7 = parse_field_spec("Fp:7")
F9 = parse_field_spec("ext:Fp:3:1,0,1")

F9_POINT = BraidingParams.from_qrs(F9.parse("t"), F9.parse("t"), F9.from_int(-1))
CHAR3_POINT = BraidingParams.from_qrs(F3.from_int(1), F3.from_int(2), F3.from_int(2))


def _sweep(field):
    for q in field.units():
        for r in field.units():
            for s in field.units():
                yield BraidingParams.from_qrs(q, r, s)


def _report(num: int, label: str, ok: bool, elapsed: float, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} "
          f"({elapsed:.2f}s{detail})")


def test_criterion_1_char3_classification(capsys):
    start = time.perf_counter()
    rc = run_command(
        ["jset", "--field", "Fp:3", "--q", "1", "--r", "2", "--s", "2",
         "--max", "6", "--format", "json"]
    )
    data = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    in_window = [j for j in data["J"] if j <= 3]
    j2 = {entry["n"]: entry["j_n"] for entry in data["J2"]}
    ok = (
        rc == 0
        and in_window == [0, 3]
        and data["J1"] == [0]
        and j2.get(3) == 0
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "characteristic-3 defect-set classification", ok, elapsed)
    assert ok, data


def test_criterion_2_small_number_membership(capsys):
    start = time.perf_counter()
    checked = 0
    violations = []
    for field in (F5, F7):
        minus_one = field.from_int(-1)
        one = field.one
        for p in _sweep(field):
            members = set(compute_J(2, p).j_set())
            q, r, s = p.q, p.r, p.s
            expect0 = s == minus_one
            expect1 = (r * s == one) and (s != minus_one)
            expect2 = (q * r * r * s == minus_one) and (r * s != one) and (s != minus_one)
            for j, expected in ((0, expect0), (1, expect1), (2, expect2)):
                checked += 1
                if (j in members) != expected:
                    violations.append((field.spec, str(q), str(r), str(s), j))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 10.0
    with capsys.disabled():
        _report(2, "closed conditions for 0,1,2 in the defect set", ok, elapsed,
                f", {checked} memberships")
    assert ok, violations[:5]


def test_criterion_3_p_k_vanishing(capsys):
    start = time.perf_counter()
    checked = 0
    violations = []
    for field in (F5, F7):
        for p in _sweep(field):
            for k in range(6):
                if not qfact_b(k, p):
                    continue
                checked += 1
                vanishes = in_kernel(p_k(k, p).to_words(), p)
                if vanishes != first_equation(k, p):
                    violations.append((field.spec, str(p.q), str(p.r), str(p.s), k))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    with capsys.disabled():
        _report(3, "P_k lies in the kernel iff its sign equation holds", ok,
                elapsed, f", {checked} checks")
    assert ok, violations[:5]


def test_criterion_4_main_theorem_sweeps(capsys):
    start = time.perf_counter()
    checked = skipped = 0
    violations = []
    points = list(_sweep(F5)) + list(_sweep(F7)) + [F9_POINT]
    for p in points:
        for m in range(6):
            if not qfact_b(m, p):
                skipped += 1
                continue
            checked += 1
            report = verify_main(m, p)
            if not report.matches_theorem:
                violations.append((p.field.spec, str(p.q), str(p.r), str(p.s), m))
    f9_report = verify_main(3, F9_POINT)
    labels = [label for label, _ in f9_report.candidates]
    basis_ok = f9_report.dim == 2 and labels == ["adP(3,0)", "L(3)"]
    elapsed = time.perf_counter() - start
    ok = not violations and basis_ok and elapsed < 600.0
    with capsys.disabled():
        _report(4, "kernel dimension equals the defect count", ok, elapsed,
                f", {checked} checks / {skipped} skipped")
    assert ok, (violations[:5], f9_report.to_json())


def test_criterion_5_closed_form_ad_powers(capsys):
    start = time.perf_counter()
    rng = random.Random(20260814)
    checked = 0
    violations = []
    for field in (QQ, F5, F7, F9):
        for _ in range(100):
            p = BraidingParams.from_qrs(
                random_element(field, rng, nonzero=True),
                random_element(field, rng, nonzero=True),
                random_element(field, rng, nonzero=True),
            )
            for k in range(7):
                for m in range(7 - k):
                    if not (qfact_b(k, p) and qfact_b(k + m, p)):
                        continue
                    checked += 1
                    lhs = ad_p_closed_form(m, k, p).to_words()
                    rhs = ad_x1_pow(m, p_k(k, p).to_words(), p).scale(p.q12 ** (-m))
                    if lhs != rhs:
                        violations.append((field.spec, str(p.q), str(p.r), str(p.s), m, k))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    with capsys.disabled():
        _report(5, "closed-form ad-powers equal word-level brackets", ok,
                elapsed, f", {checked} equalities")
    assert ok, violations[:5]


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for (ea, ra), ca in a.items():
        for (eb, rb), cb in b.items():
            key = (ea + eb, ra + rb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def test_criterion_6_q2_consistency(capsys):
    start = time.perf_counter()
    violations = []
    divisions = 0
    # (a) multiplying the quotient back by the divisor recovers an
    # independently rebuilt numerator, with no negative exponents anywhere
    for k in range(9):
        for m in range(9 - k):
            quotient = q2_poly(k, m)
            if any(e < 0 or f < 0 for (e, f) in quotient):
                violations.append(("negative-exponent", k, m))
                continue
            divisor = {((2 * k + m), 2): 1, (0, 0): -1}
            e_top = (2 * k + m) * (m + 1) // 2
            numerator = {(e_top, m + 1): (-1) ** (m + 1), (0, 0): -1}
            for i in range(m + 1):
                numerator = _poly_mul(numerator, {(0, 0): 1, (k + i, 1): -1})
            if _poly_mul(quotient, divisor) != numerator:
                violations.append(("division", k, m))
            divisions += 1
    # (b) the scalar vanishes at every witnessed second-kind defect point
    instances = 0
    points = list(_sweep(F5)) + list(_sweep(F7)) + [F9_POINT, CHAR3_POINT]
    for p in points:
        for entry in compute_J(8, p).members:
            if entry.cls != "J2":
                continue
            instances += 1
            if q2_eval(entry.witness, entry.j - entry.witness - 1, p):
                violations.append(
                    ("nonzero", p.field.spec, str(p.q), str(p.r), str(p.s), entry.j)
                )
    elapsed = time.perf_counter() - start
    ok = not violations
    with capsys.disabled():
        _report(6, "Q2 divides exactly and vanishes at witnessed defects", ok,
                elapsed, f", {divisions} divisions / {instances} defect points")
    assert ok, violations[:5]


def test_criterion_7_oracle_agreement(capsys):
    start = time.perf_counter()
    rng = random.Random(993)
    disagreements = []
    configs = (
        (F5, "2", "3", "4"),
        (F7, "3", "2", "6"),
        (QQ, "2", "3", "-1"),
    )
    for field, qs, rs, ss in configs:
        p = BraidingParams.from_qrs(field.parse(qs), field.parse(rs), field.parse(ss))
        for _ in range(1000):
            total = rng.randrange(1, 9)
            a = rng.randrange(0, total + 1)
            words = words_of_multidegree(a, total - a)
            x = GradedElement.zero(field)
            for w in rng.sample(words, min(len(words), rng.randrange(1, 5))):
                x = x + GradedElement.from_word(field, w, random_element(field, rng, nonzero=True))
            if in_kernel(x, p) != in_kernel_by_derivations(x, p):
                disagreements.append((field.spec, x.to_json()))
    mismatched_mds = []
    for p in (
        BraidingParams.from_qrs(QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)),
        F9_POINT,
    ):
        for n in range(7):
            for a in range(n + 1):
                md = (a, n - a)
                if symmetrizer(md, p).columns != naive_symmetrizer(md, p).columns:
                    mismatched_mds.append((p.field.spec, md))
    elapsed = time.perf_counter() - start
    ok = not disagreements and not mismatched_mds
    with capsys.disabled():
        _report(7, "derivation recursion agrees with the symmetrizer", ok,
                elapsed, ", 3000 elements / 56 matrices")
    assert ok, (disagreements[:2], mismatched_mds[:5])


def test_criterion_8_table_and_structure(capsys):
    start = time.perf_counter()
    table_checks = 0
    violations = []
    for field in (F5, F7):
        for p in _sweep(field):
            cls = compute_J(6, p)
            members = cls.j_set()
            # structural facts: spacing >= 3, hence at most m/3 + 1 members
            for a in members:
                for b in members:
                    if a != b and abs(a - b) < 3:
                        violations.append(("gap", field.spec, str(p.q), str(p.r), str(p.s)))
            for m in range(7):
                if cls.count_upto(m) > m // 3 + 1:
                    violations.append(("bound", field.spec, str(p.q), str(p.r), str(p.s), m))
            for m in (1, 2, 3, 4, 6):
                if not qfact_b(m, p):
                    continue
                table_checks += 1
                if (multiplicity(m, p) == 0) != non_root_table_check(m, p):
                    violations.append(("table", field.spec, str(p.q), str(p.r), str(p.s), m))
    elapsed = time.perf_counter() - start
    ok = not violations
    with capsys.disabled():
        _report(8, "non-root table matches vanishing multiplicity", ok, elapsed,
                f", {table_checks} table rows")
    assert ok, violations[:5]
