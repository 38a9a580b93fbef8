"""Exit codes, JSON schemas, and determinism of the command-line front end."""

import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from nichols import cli, fields, jset, oracle, qcalc, rootvec
from nichols.cli import run_command
from nichols.oracle import KernelReport
from conftest import mask_points, verify_each_point


def run_json(capsys, argv):
    rc = run_command(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_jset_char3(capsys):
    rc, data = run_json(
        capsys,
        ["jset", "--field", "Fp:3", "--q", "1", "--r", "2", "--s", "2",
         "--max", "6", "--format", "json"],
    )
    assert rc == 0
    assert data["J"] == [0, 3, 6]
    assert data["J1"] == [0]
    assert data["J2"] == [{"n": 3, "j_n": 0}, {"n": 6, "j_n": 0}]
    assert data["bound"] == 6
    assert data["params"]["q"] == "1" and data["params"]["r"] == "2"


def test_multiplicity_table(capsys):
    rc, data = run_json(
        capsys,
        ["multiplicity", "--field", "Q", "--q", "2", "--r", "3", "--s", "-1",
         "--max", "4", "--format", "json"],
    )
    assert rc == 0
    rows = {row["m"]: row for row in data["rows"]}
    assert rows[2]["multiplicity"] == 0
    assert "skipped" not in rows[2]


def test_text_and_json_agree(capsys):
    argv = ["dim", "--field", "Fp:5", "--q", "2", "--r", "3", "--s", "4",
            "--deg", "2,2"]
    rc, data = run_json(capsys, argv + ["--format", "json"])
    assert rc == 0
    rc2 = run_command(argv)
    text = capsys.readouterr().out
    assert rc2 == 0
    assert str(data["dim"]) in text


def test_explicit_matrix_mode(capsys):
    # q12=6, q21=1 against q12=3, q21=2: same r, identical classification
    rc, a = run_json(
        capsys,
        ["jset", "--field", "Q", "--q", "2", "--r", "6", "--s", "-1",
         "--max", "4", "--format", "json"],
    )
    rc2, b = run_json(
        capsys,
        ["jset", "--field", "Q", "--q11", "2", "--q12", "3", "--q21", "2",
         "--q22", "-1", "--max", "4", "--format", "json"],
    )
    assert rc == rc2 == 0
    assert a["J"] == b["J"] and a["J1"] == b["J1"] and a["J2"] == b["J2"]


def test_mixed_parameter_modes_rejected(capsys):
    rc = run_command(
        ["jset", "--field", "Q", "--q", "2", "--q11", "2", "--max", "3"]
    )
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_missing_parameters_rejected(capsys):
    rc = run_command(["jset", "--field", "Q", "--q", "2", "--max", "3"])
    assert rc == 2


def test_bad_field_spec(capsys):
    rc = run_command(
        ["jset", "--field", "Zp:9", "--q", "1", "--r", "1", "--s", "1", "--max", "2"]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_no_subcommand(capsys):
    assert run_command([]) == 2


def test_verify_f9(capsys):
    rc, data = run_json(
        capsys,
        ["verify", "--field", "ext:Fp:3:1,0,1", "--q", "t", "--r", "t",
         "--s", "-1", "--m", "3", "--format", "json"],
    )
    assert rc == 0
    report = data["reports"][0]
    assert report["dim"] == 2
    assert report["matches_theorem"] is True
    labels = [c["label"] for c in report["candidates"]]
    assert labels == ["adP(3,0)", "L(3)"]


def test_verify_reports_skips(capsys):
    rc, data = run_json(
        capsys,
        ["verify", "--field", "Fp:3", "--q", "1", "--r", "2", "--s", "2",
         "--max", "4", "--format", "json"],
    )
    assert rc == 0
    skips = [r for r in data["reports"] if "skipped" in r]
    assert {r["m"] for r in skips} == {3, 4}


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_verify(levels, params):
        for m in levels:
            yield KernelReport(
                m=m, dim=1, candidates=[], independent=True, matches_theorem=False
            )

    monkeypatch.setattr(cli, "verify_levels", fake_verify)
    rc = run_command(
        ["verify", "--field", "Q", "--q", "2", "--r", "3", "--s", "5", "--m", "2"]
    )
    assert rc == 1


def test_scan_small_field(capsys):
    rc, data = run_json(
        capsys,
        ["scan", "--field", "Fp:3", "--max", "3", "--check", "main",
         "--format", "json"],
    )
    assert rc == 0
    assert data["points"] == 8  # (F_3^x)^3
    assert data["violations"] == 0
    assert data["details"] == []


def test_scan_max_m_alias_and_determinism(capsys):
    argv = ["scan", "--field", "Fp:3", "--max-m", "2", "--check", "oracles",
            "--format", "json"]
    rc = run_command(argv)
    first = capsys.readouterr().out
    rc2 = run_command(argv)
    second = capsys.readouterr().out
    assert rc == rc2 == 0
    assert first == second


def test_scan_table1_check(capsys):
    rc, data = run_json(
        capsys,
        ["scan", "--field", "Fp:5", "--max", "4", "--check", "table1",
         "--format", "json"],
    )
    assert rc == 0
    assert data["violations"] == 0


def test_scan_rejects_infinite_field(capsys):
    rc = run_command(["scan", "--field", "Q", "--max", "3"])
    assert rc == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "runs.cfg"
    cfg.write_text(
        "# comment line\n"
        "jset --field Fp:3 --q 1 --r 2 --s 2 --max 3 --format json\n"
        "\n"
        "dim --field Fp:5 --q 2 --r 3 --s 4 --deg 1,1 --format json\n"
    )
    for argv in (["--config", str(cfg)], [f"--config={cfg}"]):
        rc = run_command(argv)
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 2
        assert json.loads(out[0])["J"] == [0, 3]
        assert json.loads(out[1])["dim"] == 2


def test_config_missing_file(capsys):
    path = "/nonexistent/path.cfg"
    for argv in (["--config", path], [f"--config={path}"]):
        rc = run_command(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_config_unclosed_quote_reported_for_its_line(tmp_path, capsys):
    # shlex raises ValueError on an unclosed quote; it is one bad line, not a bad run
    cfg = tmp_path / "runs.cfg"
    cfg.write_text(
        "jset --field Fp:3 --q 1 --r 2 --s 2 --max 3 --format json\n"
        'jset --field "Fp:3 --q 1\n'
        "jset --field Fp:3 --q 1 --r 2 --s 2 --max 2 --format json\n"
    )
    rc = run_command(["--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert [json.loads(line)["bound"] for line in captured.out.splitlines()] == [3, 2]
    assert captured.err == f"error: {cfg}:2: No closing quotation\n"


def test_config_not_utf8_refused(tmp_path, capsys):
    cfg = tmp_path / "runs.cfg"
    cfg.write_bytes(b"jset --field Fp:3 --q \xff --r 2 --s 2 --max 3\n")
    rc = run_command(["--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "Q", "--q", "1/0", "--r", "3", "--s", "5", "--m", "1"],
    ["jset", "--field", "ext:Q:1/0,0,1", "--q", "1", "--r", "1", "--s", "1", "--max", "1"],
    ["jset", "--field", "ext:Q:-2,0,1", "--q", "1/0*t", "--r", "1", "--s", "1",
     "--max", "1"],
    ["jset", "--field", "Q", "--q", "1", "--r", "1/00", "--s", "1", "--max", "1"],
])
def test_zero_denominator_refused(argv, capsys):
    # exit status 1 means a verification failure, so bad input must not reach it
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: zero denominator")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("source", ["zeros", "comments"])
def test_config_longer_than_its_bound_refused(tmp_path, capsys, source):
    # the file is read up to one character past CONFIG_LENGTH, so an endless
    # one fails as fast as an oversized one, and no run of it starts
    if source == "zeros":
        path = "/dev/zero"
    else:
        path = tmp_path / "runs.cfg"
        path.write_text("jset --field Fp:3 --q 1 --r 2 --s 2 --max 3\n"
                        + "#" * cli.CONFIG_LENGTH)
    rc = run_command(["--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: longer than {cli.CONFIG_LENGTH} characters\n"


def test_config_with_subcommand_rejected(tmp_path, capsys):
    cfg = tmp_path / "runs.cfg"
    cfg.write_text("jset --field Fp:3 --q 1 --r 2 --s 2 --max 3\n")
    rc = run_command(["--config", str(cfg), "jset", "--field", "Q", "--q", "2",
                      "--r", "3", "--s", "5", "--max", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --config cannot be combined with a subcommand\n"


@pytest.mark.parametrize(
    "levels", [["--m", "3", "--max", "4"], []], ids=["both", "neither"]
)
def test_verify_needs_exactly_one_of_m_and_max(capsys, levels):
    rc = run_command(["verify", "--field", "Q", "--q", "2", "--r", "3", "--s", "5",
                      *levels])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--m" in captured.err.splitlines()[-1]


def test_zero_braiding_entry_is_usage_error(capsys):
    rc = run_command(
        ["jset", "--field", "Fp:5", "--q", "0", "--r", "3", "--s", "-1", "--max", "2"]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: braiding entries must be nonzero\n"


@pytest.mark.parametrize(
    "field,q,r",
    [("Q", "2", "-3/5"), ("ext:Fp:3:1,0,1", "-t", "t")],
    ids=["rational", "extension"],
)
def test_values_starting_with_dash(capsys, field, q, r):
    outputs = []
    for params in (
        ["--q", q, "--r", r, "--s", "-1"],
        [f"--q={q}", f"--r={r}", "--s=-1"],
    ):
        rc = run_command(["verify", "--field", field, *params, "--m", "2"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] != ""


def test_negative_deg_reaches_the_library(capsys):
    rc = run_command(
        ["dim", "--field", "Q", "--q", "2", "--r", "3", "--s", "5", "--deg", "-1,2"]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: multidegree components must be nonnegative\n"


@pytest.mark.parametrize("deg", ["2_0,2", "2,1_0", "+2,2", "2,+2", " 2,2", "2, 2", "2,2 ",
                                 "--1,2", "-,2", "2", "2,2,2", "", "2.0,2"])
def test_deg_accepts_only_signed_decimal_digits(capsys, deg):
    # int() read "2_0" as 20 and took "+2" and " 2"; --max refuses them too
    rc = run_command(["dim", "--field", "Q", "--q", "2", "--r", "3", "--s", "5",
                      f"--deg={deg}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --deg expects two integers: a,b\n"


@pytest.mark.parametrize("deg, length", [("2," + "1" * 5000, 5000),
                                         ("-" + "1" * 5000 + ",2", 5001)],
                         ids=["long-b", "long-negative-a"])
def test_deg_refuses_a_numeral_past_the_literal_length(capsys, deg, length):
    # int() refuses more than 4300 digits with a bare ValueError
    rc = run_command(["dim", "--field", "Q", "--q", "2", "--r", "3", "--s", "5",
                      f"--deg={deg}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: --deg numeral of {length} characters exceeds "
                            f"{fields.LITERAL_LENGTH}\n")


def test_deg_reads_decimal_digits(capsys):
    rc, data = run_json(capsys, ["dim", "--field", "Q", "--q", "2", "--r", "3", "--s", "5",
                                 "--deg", "02,1", "--format", "json"])
    assert rc == 0
    assert data["deg"] == [2, 1]


QRS = ["--q", "2", "--r", "3", "--s", "5"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "--field", "Q", *QRS, "--m", "-1"], "--m"),
        (["verify", "--field", "Q", *QRS, "--max", "-1"], "--max"),
        (["jset", "--field", "Q", *QRS, "--max", "-1"], "--max"),
        (["multiplicity", "--field", "Q", *QRS, "--max", "-2"], "--max"),
        (["table1", "--field", "Q", *QRS, "--m", "-1"], "--m"),
        (["scan", "--field", "Fp:3", "--max", "-1"], "--max"),
    ],
    ids=["verify-m", "verify-max", "jset", "multiplicity", "table1", "scan"],
)
def test_negative_levels_rejected(capsys, argv, flag):
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"argument {flag}" in captured.err
    assert "non-negative integer" in captured.err


@pytest.mark.parametrize("check", ["main", "oracles", "table1"])
def test_scan_jobs_determinism(capsys, monkeypatch, check):
    # --jobs is capped at the CPU count; let a one-CPU host run two workers too.
    # F_9 is tabulated: its field must cross the pool as a pickle.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for field, max_m in (("Fp:3", "4"), ("ext:Fp:3:2,1,1", "2")):
        argv = ["scan", "--field", field, "--max", max_m, "--check", check,
                "--format", "json"]
        rc1 = run_command(argv + ["--jobs", "1"])
        serial = capsys.readouterr().out
        rc2 = run_command(argv + ["--jobs", "2"])
        pooled = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert serial == pooled
        assert json.loads(serial)["checks"] > 0


def test_scan_reports_violations_in_point_order(capsys, monkeypatch):
    # a table that calls every row a non-root disagrees wherever the
    # multiplicity is nonzero; the details list those points, s innermost
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "non_root_table_check", lambda m, p: True)
    field = fields.parse_field_spec("Fp:3")
    units = list(field.units())
    expected = []
    for q in units:
        for r in units:
            for s in units:
                p = qcalc.BraidingParams.from_qrs(q, r, s)
                found = [{"m": m, "multiplicity": jset.multiplicity(m, p), "table": True}
                         for m in (1, 2) if p.scalars.hypothesis(m)
                         and jset.multiplicity(m, p)]
                if found:
                    expected.append({"q": str(q), "r": str(r), "s": str(s),
                                     "violations": found})
    argv = ["scan", "--field", "Fp:3", "--max", "2", "--check", "table1",
            "--format", "json"]
    for jobs in ("1", "2"):
        rc, data = run_json(capsys, argv + ["--jobs", jobs])
        assert rc == 1
        assert data["details"] == expected
        assert data["violations"] == sum(len(d["violations"]) for d in expected) > 0


@pytest.mark.parametrize("jobs", ["-3", "0", "3"])
def test_scan_jobs_out_of_range_rejected(capsys, monkeypatch, jobs):
    # the refusal comes before any pool exists: a pool here fails the test
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: pytest.fail("pool started"))
    rc = run_command(["scan", "--field", "Fp:3", "--max", "1", "--jobs", jobs])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--jobs must be between 1 and 2" in captured.err


def test_import_leaves_multiprocessing_out():
    # only scan --jobs > 1 needs a pool, so importing the CLI loads none
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import nichols.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("modulus", [
    f"1,{10**200},0,{10**200},1",  # once an OverflowError from a float square root
    "1000000000000000000000000000057,0,1",  # once an endless trial division
])
def test_oversized_q_modulus_refused(capsys, modulus):
    rc = run_command(["jset", "--field", f"ext:Q:{modulus}", "--q", "1", "--r", "1",
                      "--s", "1", "--max", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec", [
    "Fp:1000000000000000000000000000057",
    "ext:Fp:1000000000000000000000000000057:1,0,1",
])
def test_huge_prime_refused_before_trial_division(capsys, monkeypatch, spec):
    # once an endless trial division; now refused before any primality test
    monkeypatch.setattr(fields, "_is_prime", lambda n: pytest.fail("trial division"))
    start = time.perf_counter()
    rc = run_command(["jset", "--field", spec, "--q", "1", "--r", "1", "--s", "1",
                      "--max", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        f"error: characteristic {10**30 + 57} exceeds {fields.PRIME_BOUND}\n"
    )
    assert elapsed < 1.0


def test_scan_point_budget_refused_before_units(capsys, monkeypatch):
    def no_units(field):
        raise AssertionError("units enumerated")

    monkeypatch.setattr(cli.Field, "units", no_units)
    rc = run_command(["scan", "--field", "ext:Fp:101:2,0,0,0,1", "--max", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    points = (101**4 - 1) ** 3
    assert f"has {points} points, above the budget of {cli.SCAN_POINT_BUDGET}" in captured.err


@pytest.mark.parametrize("spec, points", [("Fp:17", 4096), ("ext:Fp:2:1,1,0,0,1", 3375)])
def test_scan_point_budget_admits_shipped_sweeps(capsys, monkeypatch, spec, points):
    # each pair is stubbed out: only the guard and the task list are under test
    tasks = []

    def stub(task):
        tasks.append(task)
        return 0, 0, []

    monkeypatch.setattr(cli, "_scan_pair", stub)
    rc, data = run_json(capsys, ["scan", "--field", spec, "--max", "1",
                                 "--check", "table1", "--format", "json"])
    assert rc == 0
    assert data["points"] == points
    # one task per Frobenius orbit of (q, r) pairs: all 16^2 pairs of Fp:17,
    # 59 of the 15^2 pairs of F_16
    assert len(tasks) == {"Fp:17": 16 * 16, "ext:Fp:2:1,1,0,0,1": 59}[spec]


@pytest.mark.parametrize("argv, flag, ceiling", [
    (["verify", "--field", "Q", "--q", "2", "--r", "3", "--s", "5", "--m", "41"],
     "--m 41", oracle.LEVEL_CEILING),
    (["verify", "--field", "Q", "--q", "2", "--r", "3", "--s", "5", "--max", "41"],
     "--max 41", oracle.LEVEL_CEILING),
    (["scan", "--field", "Fp:5", "--max", "41", "--check", "main"],
     "--max 41", oracle.LEVEL_CEILING),
    (["scan", "--field", "Fp:5", "--max", "13", "--check", "oracles"],
     "--max 13", oracle.DEGREE_CEILING - 2),
    (["jset", "--field", "Q", "--q", "2", "--r", "3", "--s", "5", "--max", "2000"],
     "--max 2000", oracle.LEVEL_CEILING),
    (["multiplicity", "--field", "Q", "--q", "2", "--r", "3", "--s", "5",
      "--max", "2000"],
     "--max 2000", oracle.LEVEL_CEILING),
], ids=["verify-m", "verify-max", "scan-main", "scan-oracles", "jset-max",
        "multiplicity-max"])
def test_level_ceiling_refused_before_any_level(capsys, monkeypatch, argv, flag, ceiling):
    monkeypatch.setattr(cli, "verify_levels", lambda levels, p: pytest.fail("verify_levels"))
    monkeypatch.setattr(cli, "compute_J", lambda m, p: pytest.fail("compute_J"))
    monkeypatch.setattr(oracle, "symmetrizer", lambda md, p: pytest.fail("symmetrizer"))
    monkeypatch.setattr(cli, "_scan_pair", lambda task: pytest.fail("_scan_pair"))
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} exceeds the level ceiling {ceiling}\n"


def test_multiplicity_at_the_level_ceiling(capsys):
    rc, data = run_json(capsys, ["multiplicity", "--field", "Q", "--q", "2", "--r", "3",
                                 "--s", "5", "--max", str(oracle.LEVEL_CEILING),
                                 "--format", "json"])
    assert rc == 0
    assert [row["m"] for row in data["rows"]] == list(range(oracle.LEVEL_CEILING + 1))


def _count_calls(monkeypatch, name, *modules) -> list:
    """Wrap ``name`` in a counter in each module that binds it; returns the
    first argument of every call (the bound, for ``compute_J``)."""
    calls = []
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def counting(first, *rest, _original=original):
            calls.append(first)
            return _original(first, *rest)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_classifies_J_once(capsys, monkeypatch):
    # one classification up to the last level serves every level
    calls = _count_calls(monkeypatch, "compute_J", oracle)
    rc, data = run_json(capsys, ["verify", "--field", "Q", "--q", "2", "--r", "3",
                                 "--s", "5", "--max", "8", "--format", "json"])
    assert rc == 0
    assert [rep["m"] for rep in data["reports"]] == list(range(9))
    assert all("skipped" not in rep for rep in data["reports"])
    assert calls == [8]


def test_scan_main_classifies_J_once_per_point(capsys, monkeypatch):
    # only the 4 points where an s-equation holds are walked, and classified
    calls = _count_calls(monkeypatch, "compute_J", oracle)
    rc, data = run_json(capsys, ["scan", "--field", "Fp:3", "--max", "4",
                                 "--check", "main", "--format", "json"])
    assert rc == 0
    assert data["points"] == 8
    assert calls == [4] * 4


def test_multiplicity_classifies_J_once(capsys, monkeypatch):
    # J ∩ [0, m] is a prefix of J ∩ [0, max], so one classification serves every row
    calls = _count_calls(monkeypatch, "compute_J", cli, jset)
    rc, data = run_json(capsys, ["multiplicity", "--field", "Q", "--q", "2", "--r", "3",
                                 "--s", "5", "--max", "8", "--format", "json"])
    assert rc == 0
    assert [row["m"] for row in data["rows"]] == list(range(9))
    assert all("skipped" not in row for row in data["rows"])
    assert calls == [8]


def test_multiplicity_reads_the_hypothesis_off_the_table(capsys, monkeypatch):
    # the CLI and jset.multiplicity test (m)_q^! b_m != 0 on the scalar table
    calls = _count_calls(monkeypatch, "qfact_b", qcalc, jset, cli)
    rc, data = run_json(capsys, ["multiplicity", "--field", "Q", "--q", "2", "--r", "3",
                                 "--s", "5", "--max", "40", "--format", "json"])
    assert rc == 0
    assert len(data["rows"]) == 41
    assert calls == []


def test_scan_table1_classifies_J_once_per_point(capsys, monkeypatch):
    # one classification up to the largest table row serves every row
    calls = _count_calls(monkeypatch, "compute_J", cli, jset)
    rc = run_command(["scan", "--field", "Fp:5", "--max", "6", "--check", "table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert calls == [6] * 64
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1be34984b05f9fceeaf9ad9d0c3a672f9e98f2fb05cd7781fdbd1deaa70c6bf5"
    )


# an F_25 point with J = {0, 5}, 0 in J1 and 5 in J2 with witness 0
F25_J2_POINT = ["--field", "ext:Fp:5:2,0,1", "--q=4+t", "--r=4+2*t", "--s=4"]


def test_verify_walks_each_candidate_up(capsys, monkeypatch):
    # L_5 is solved once, at its own level, and then walked up with P_0
    closed = _count_calls(monkeypatch, "ad_p_closed_form", oracle, rootvec)
    solved = _count_calls(monkeypatch, "l_n", oracle, rootvec)
    rc, data = run_json(capsys, ["verify", *F25_J2_POINT, "--max", "8",
                                 "--format", "json"])
    assert rc == 0
    labels = [c["label"] for c in data["reports"][8]["candidates"]]
    assert labels == ["adP(8,0)", "adL(3,5)"]
    assert closed == []
    assert solved == [5]


def test_verify_classifies_J_once_with_a_J2_member(capsys, monkeypatch):
    # l_n checks L_5's witness against the classification verify already holds
    calls = _count_calls(monkeypatch, "compute_J", oracle, rootvec)
    rc, data = run_json(capsys, ["verify", *F25_J2_POINT, "--max", "8",
                                 "--format", "json"])
    assert rc == 0
    assert data["reports"][5]["candidates"][1]["label"] == "L(5)"
    assert calls == [8]


def test_scan_main_reads_the_scalar_table(capsys, monkeypatch):
    # (k)_q^!, b_k and the sign equation come from each point's table; their
    # closed formulas are kept in the tests only
    closed = ("q_fact", "b_k", "first_equation", "j_condition")
    for module in (qcalc, jset, rootvec, oracle, cli):
        assert [name for name in closed if hasattr(module, name)] == []
    reads = []
    upto = qcalc.ScalarTable.upto

    def counting(table, n):
        reads.append(n)
        return upto(table, n)

    monkeypatch.setattr(qcalc.ScalarTable, "upto", counting)
    rc, data = run_json(capsys, ["scan", "--field", "ext:Fp:3:2,1,1", "--max", "2",
                                 "--check", "main", "--format", "json"])
    assert rc == 0
    assert data["points"] == 512 and data["checks"] > 0
    assert reads


def test_verify_golden_past_the_benchmark_depth(capsys):
    # nine adL levels, then (15)_q^! b_15 = 0; the digest is that of the
    # closed-form route, before the candidates were walked
    rc = run_command(["verify", *F25_J2_POINT, "--max", "15", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    reports = json.loads(out)["reports"]
    labels = [c["label"] for r in reports for c in r.get("candidates", [])]
    assert sum(label.startswith("adL") for label in labels) == 9
    assert [r["m"] for r in reports if "skipped" in r] == [15]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "96912b83d1ad3f0f37976cbdfde1bb6fd26eb47c8ec76c01ce17c4d6192043f7"
    )


@pytest.mark.parametrize("argv, digest", [
    # 14 L_n are solved and walked up across the F_9 points
    (["scan", "--field", "ext:Fp:3:2,1,1", "--max", "10", "--check", "main"],
     "43a83a6975835f49a6b99056888558557b5822a8d75878a3d3b09e5c2e7a0862"),
    (["verify", "--field", "Q", "--q=2/3", "--r=-5/7", "--s=11/13", "--max", "40"],
     "89d6e0c4721bcbe7afc0a5e97a1408e314c5033eab6e6f2fb67aa7ab02d84b38"),
], ids=["scan-F9-main", "verify-Q-40"])
def test_level_walk_golden(capsys, argv, digest):
    # digests taken before the candidates were carried as payload rows
    rc = run_command([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field, max_m, digest", [
    ("Fp:5", "6", "214261c8c49762b89e60a0f0f8fa026af07960800d4ce48c6ea9d67197a4cd0d"),
    ("ext:Fp:3:2,1,1", "2",
     "4e5b9dce12092e6a877b2bb01121fdd041ed28a68c66e5a32a204b15de70d954"),
], ids=["Fp:5", "F9"])
def test_scan_oracles_golden(capsys, field, max_m, digest):
    # digests taken before the symmetrizer plans and the shared derivation
    # verdicts, which must leave every byte as it was
    rc = run_command(["scan", "--field", field, "--max", max_m, "--check", "oracles",
                      "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["violations"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field, max_m, fmt, digest", [
    ("Fp:2", "12", "text", "9d855897f2e43919a2a17efde0bb1c957fe2a441fc61317bc9cd187fd23d87ae"),
    ("Fp:2", "12", "json", "249e451e6ca66be35cb37c5da4acd6df284a056ffb23c401f7cbeaafb0c1ecab"),
    ("ext:Fp:2:1,1,0,1", "10", "text",
     "e5e68e53b7ecea39c1cfb9a2a6201960b5cd893f799fbc34ef860b85e393af8e"),
    ("ext:Fp:2:1,1,0,1", "10", "json",
     "b2681fbe29dbf5f4cb6016e97a0a74e124295d19599fafb12aaf596d7e881a12"),
], ids=["Fp:2-text", "Fp:2-json", "F8-text", "F8-json"])
def test_scan_oracles_golden_in_characteristic_2(capsys, field, max_m, fmt, digest):
    # Fp:2 has one point, a (q, r) pair of one s; F_8 has 343 points and
    # 4928 checks.  Digests taken while a one-point pair still built the
    # symmetrizer at its point instead of reading the q22 pencil.
    rc = run_command(["scan", "--field", field, "--max", max_m, "--check", "oracles",
                      "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


F4, F16 = "ext:Fp:2:1,1,1", "ext:Fp:2:1,1,0,0,1"


@pytest.mark.parametrize("argv, text_digest, json_digest", [
    (["--field", F4, "--max", "12", "--check", "main"],
     "6dd7e5d77d66c095224139cc4278cdb13b0e8dccfca5e6813e840f0cd37820da",
     "da598cd568208abccfab29f94e4526c0c84e845c236b7850aa1171876866f7f9"),
    (["--field", F4, "--max", "10", "--check", "oracles"],
     "6d234694cd549093d514009c0292a1be400a96d0413efb19067b389ac18b7155",
     "77bd26ae640a69afef21e3056499637348541cd722a2f7edc8a3a96de0acc6aa"),
    (["--field", F4, "--max", "12", "--check", "table1"],
     "cf082ec87ed2edcb208248c963dc77d060c68b4f5135804258e73eef1432ec98",
     "3ee2745451baf5a72e1e46505e99f1c27ab0182bbd0dd3f80b8a2c54718f70db"),
    (["--field", "ext:Fp:5:2,0,1", "--max", "7", "--check", "main"],
     "b2dc6405cabd0fdec128eaf6b559c32c5646d45e1bb0678ccfc22d37fecd8ba8",
     "9002d1af9b6ced379f7745b82c03d3fc3cae6b588925f573a80daa359c3416d8"),
    (["--field", F16, "--max", "8", "--check", "oracles"],
     "0a20e51b5382e9480e70014944166a5eaa914d2c2eb6e9cebb6b33c746f80e88",
     "ba270c8cc79cb5c0a4ead121b11557c7af8f3089159b7b88ec797e1b20ea3e85"),
], ids=["F4-main", "F4-oracles", "F4-table1", "F25-main", "F16-oracles"])
def test_scan_golden_over_extension_fields(capsys, argv, text_digest, json_digest):
    # digests taken while every (q, r) pair of the field was its own scan task
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        rc = run_command(["scan", *argv, "--format", fmt])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, text_digest, json_digest", [
    (["--field", "Fp:7", "--max", "6"],
     "29433aafab8f18ac620fac7ba747cc273d916ee0d78b4920fce4c55d601c041f",
     "54a6b2099207474fe3226e1014b6c2c70e97385341c3e251bd9de93c2a59bc49"),
    (["--field", "Fp:11", "--max", "10"],
     "a8a1b9b1be5982c5ec617ee9178b997dcbaccaaf4b9fe07a3603b730a0061196",
     "dcdcecb5783db98bea0b2c4c1b8fb669587da402fa1d2170dd5ad306570b09ae"),
    (["--field", "ext:Fp:2:1,1,0,1", "--max", "12"],
     "8bdcb5416d3c0c644bbbaa6daee06bd66b84f2051a41cf4f04abc11f0bc2b6b7",
     "807e70067e67feb9e9f2b13db725fe64b9fea9b44340494792256c22f6b4109c"),
    (["--field", F16, "--max", "12"],
     "b790b9e31722cc4fd61b8fa9d41218c1c2cd9d5fff231baa2632960bc55c1bbd",
     "61212ce6ef4d5d94a18cfc2d2f2aee36c333be4f1d7aed8cc2e2e4db6266daba"),
], ids=["Fp:7", "Fp:11", "F8", "F16"])
def test_scan_main_golden_over_prime_and_characteristic_2_fields(
        capsys, argv, text_digest, json_digest):
    # digests taken while the main check still walked the levels at every s
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        rc = run_command(["scan", *argv, "--check", "main", "--format", fmt])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field, max_m, count", [("ext:Fp:3:2,1,1", "2", 227),
                                                 ("Fp:5", "6", 59)], ids=["F9", "Fp:5"])
def test_scan_oracles_kernel_count(capsys, monkeypatch, field, max_m, count):
    # the scan prints no verdicts, so two routes that agreed while both were
    # wrong would keep every digest.  count is the number of (point, element)
    # checks in ker(pi) by in_kernel, called at every point before the pair routes.
    # The scan runs one (q, r) pair per Frobenius orbit, so each pair's verdicts
    # count once for every pair of its orbit.
    totals = {}
    for route in ("_kernel_points", "_kernel_points_by_derivations"):
        def counted(elements, params, values, route=route, original=getattr(oracle, route)):
            verdicts = original(elements, params, values)
            q, r, p = params.q, params.r, params.field.characteristic
            # sigma^k for k < 4 covers every power of sigma: degrees are at most 4
            orbit = {(q ** p ** k, r ** p ** k) for k in range(4)}
            counts = [len(mask_points(mask, values)) for mask in verdicts]
            totals[route] = totals.get(route, 0) + len(orbit) * sum(counts)
            return verdicts

        monkeypatch.setattr(oracle, route, counted)
    rc = run_command(["scan", "--field", field, "--max", max_m, "--check", "oracles"])
    capsys.readouterr()
    assert rc == 0
    assert totals == {"_kernel_points": count, "_kernel_points_by_derivations": count}


@pytest.mark.parametrize("field, max_m, count", [("ext:Fp:3:1,0,1", "2", 34),
                                                 ("Fp:5", "6", 16)], ids=["F9", "Fp:5"])
def test_scan_oracles_builds_one_params_per_task(capsys, monkeypatch, field, max_m, count):
    # a (q, r) pair is one BraidingParams, at its first s, and the s payloads:
    # one per Frobenius task (34 of the 64 pairs over F_9), where a params per
    # point once made 272 over F_9 and 64 over Fp:5
    built = []
    original = qcalc.BraidingParams.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(qcalc.BraidingParams, "__post_init__", counted)
    rc = run_command(["scan", "--field", field, "--max", max_m, "--check", "oracles"])
    capsys.readouterr()
    assert rc == 0
    assert len(built) == count


def test_unit_roots_solves_u_plus_s_d():
    # u + s d = 0 over the units of a position map: every unit where
    # d = u = 0, none where d = 0 != u, and else -u/d alone, if it is a unit
    # of the map; -u/d = 0 (u = 0 != d) is never a unit
    field = fields.parse_field_spec("Fp:7")
    position = {field.from_int(s).value: k for k, s in enumerate([1, 3, 4, 6])}
    roots = lambda u, d: oracle._unit_roots(field, position, *map(field._from_int, (u, d)))  # noqa: E731
    assert roots(0, 0) == 0b1111
    assert roots(5, 0) == 0
    assert roots(0, 2) == 0
    assert roots(2, 4) == 0b0010  # s = -2/4 = 3
    assert roots(1, 1) == 0b1000  # s = -1 = 6
    assert roots(1, 3) == 0  # s = -1/3 = 2, a unit outside the map


def test_scan_oracles_validates_no_element(capsys, monkeypatch):
    # compare_routes builds every element it hands the pair routes, so
    # neither route re-checks one; each once ran _member_degree per element
    def refuse(x, params):
        raise AssertionError("a scan element was validated")

    monkeypatch.setattr(oracle, "_member_degree", refuse)
    rc = run_command(["scan", "--field", "Fp:5", "--max", "6", "--check", "oracles"])
    capsys.readouterr()
    assert rc == 0


def test_oracle_scan_builds_each_multidegree_once_per_pair(capsys, monkeypatch):
    # with q22 formal, a (q, r) pair builds each multidegree once, the
    # s-free ones (b <= 1) included: 1331 builds on this scan
    builds = []
    original = oracle._build

    def counted(md, params, lifted, q22):
        builds.append((md, params, q22))
        return original(md, params, lifted, q22)

    monkeypatch.setattr(oracle, "_build", counted)
    rc = run_command(["scan", "--field", "Fp:11", "--max", "8", "--check", "oracles"])
    capsys.readouterr()
    assert rc == 0
    assert len(builds) <= 1331
    assert all(q22 is None for _, _, q22 in builds)
    assert len({(md, params) for md, params, _ in builds}) == len(builds)


@pytest.mark.parametrize("route", ["kernel_points", "kernel_points_by_derivations"])
def test_scan_oracles_lists_forced_disagreements(capsys, monkeypatch, route):
    # flip one route's verdict at chosen (s, m, element) of the pair q = r = 2:
    # the details list them in the order q, r, s (s innermost), m, element
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    field = fields.parse_field_spec("Fp:5")
    two = field.from_int(2)
    flips = [(4, 2, 1), (3, 3, 0), (3, 1, 2)]
    original = getattr(oracle, "_" + route)

    def flipped(elements, params, values):
        verdicts = original(elements, params, values)
        if (params.q, params.r) == (two, two):
            for s, m, idx in flips:
                target = rootvec.level_elements(m, params)[idx]
                (k,) = [k for k, x in enumerate(elements) if x == target]
                verdicts[k] ^= 1 << values.index(field.from_int(s).value)
        return verdicts

    monkeypatch.setattr(oracle, "_" + route, flipped)
    expected = [
        {"q": "2", "r": "2", "s": "3", "violations": [{"m": 1, "element": 2},
                                                       {"m": 3, "element": 0}]},
        {"q": "2", "r": "2", "s": "4", "violations": [{"m": 2, "element": 1}]},
    ]
    lines = [f"  violation at q=2 r=2 s={d['s']}: {d['violations']}" for d in expected]
    argv = ["scan", "--field", "Fp:5", "--max", "3", "--check", "oracles"]
    for jobs in ("1", "2"):
        rc, data = run_json(capsys, argv + ["--jobs", jobs, "--format", "json"])
        assert rc == 1
        assert data["details"] == expected
        assert data["violations"] == 3
        rc = run_command(argv + ["--jobs", jobs])
        assert rc == 1
        assert capsys.readouterr().out.splitlines()[1:] == lines


F8 = "ext:Fp:2:1,1,0,1"
F9_MODULI = ["ext:Fp:3:1,0,1", "ext:Fp:3:2,1,1", "ext:Fp:3:2,2,1"]


def _per_pair_scan(spec, max_m, check, scan_pair=cli._scan_pair):
    """The scan's JSON body and text lines, with ``scan_pair`` run at every
    (q, r) pair of units and the pairs joined in unit order."""
    units = list(fields.parse_field_spec(spec).units())
    checks = skipped = 0
    details = []
    for q, r in itertools.product(units, repeat=2):
        pair_checks, pair_skipped, per_point = scan_pair((q, r, units, max_m, check))
        checks += pair_checks
        skipped += pair_skipped
        details += [{"q": str(q), "r": str(r), "s": str(s), "violations": found}
                    for s, found in zip(units, per_point) if found]
    violations = sum(len(d["violations"]) for d in details)
    points = len(units) ** 3
    data = {"schema": "nichols/scan/v1", "field": spec, "check": check, "max_m": max_m,
            "points": points, "checks": checks, "skipped": skipped,
            "violations": violations, "details": details}
    lines = [f"scan {spec} check={check} max_m={max_m}: points={points} checks={checks} "
             f"skipped={skipped} violations={violations}"]
    lines += [f"  violation at q={d['q']} r={d['r']} s={d['s']}: {d['violations']}"
              for d in details]
    return data, lines


@pytest.mark.parametrize("check, max_m", [("main", 8), ("oracles", 4), ("table1", 6)])
@pytest.mark.parametrize("spec", [F4, F8, *F9_MODULI, F16],
                         ids=["F4", "F8", "F9-1,0,1", "F9-2,1,1", "F9-2,2,1", "F16"])
def test_orbit_scan_equals_the_per_pair_scan(capsys, spec, check, max_m):
    # the scan runs one pair per Frobenius orbit; joining every pair's own run
    # must give the same bytes
    data, lines = _per_pair_scan(spec, max_m, check)
    argv = ["scan", "--field", spec, "--max", str(max_m), "--check", check]
    assert run_command(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(data) + "\n"
    assert run_command(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("route", ["kernel_points", "kernel_points_by_derivations"])
def test_scan_lists_an_invariant_fault_at_every_frobenius_image(capsys, monkeypatch, route):
    # flip one route's verdict at (s, m, element) of the pair q = r = t^2 over
    # F_8 and at the images under sigma: x -> x^2, which carries (t^2, t^2) to
    # (t+t^2, t+t^2) and then to (t, t).  Only (t^2, t^2), first of its orbit
    # in unit order, is computed; each image is listed at its own q, r, s.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    field = fields.parse_field_spec(F8)
    flips = {}
    for s, m, idx in [("t^2", 1, 2), ("t", 2, 0), ("t", 3, 4)]:
        q = r = field.parse("t^2")
        s = field.parse(s)
        for _ in range(3):
            flips.setdefault((q.value, r.value, s.value), []).append((m, idx))
            q, r, s = q**2, r**2, s**2
    original = getattr(oracle, "_" + route)

    def flipped(elements, params, values):
        verdicts = original(elements, params, values)
        for k, s in enumerate(values):
            for m, idx in flips.get((params.q.value, params.r.value, s), ()):
                target = rootvec.level_elements(m, params)[idx]
                (j,) = [j for j, x in enumerate(elements) if x == target]
                verdicts[j] ^= 1 << k
        return verdicts

    monkeypatch.setattr(oracle, "_" + route, flipped)
    first = [{"m": 1, "element": 2}]
    second = [{"m": 2, "element": 0}, {"m": 3, "element": 4}]
    expected = [
        {"q": "t^2", "r": "t^2", "s": "t^2", "violations": first},
        {"q": "t^2", "r": "t^2", "s": "t", "violations": second},
        {"q": "t", "r": "t", "s": "t", "violations": first},
        {"q": "t", "r": "t", "s": "t+t^2", "violations": second},
        {"q": "t+t^2", "r": "t+t^2", "s": "t^2", "violations": second},
        {"q": "t+t^2", "r": "t+t^2", "s": "t+t^2", "violations": first},
    ]
    data, lines = _per_pair_scan(F8, 3, "oracles")
    assert data["details"] == expected
    argv = ["scan", "--field", F8, "--max", "3", "--check", "oracles"]
    for jobs in ("1", "2"):
        assert run_command(argv + ["--jobs", jobs, "--format", "json"]) == 1
        assert capsys.readouterr().out == json.dumps(data) + "\n"
        assert run_command(argv + ["--jobs", jobs]) == 1
        assert capsys.readouterr().out.splitlines() == lines


def _main_at_each_point(task):
    """_scan_pair's main check as it ran before the pair route: the level
    walk at every s of the pair."""
    q, r, units, max_m, _ = task
    checks, skipped, found = verify_each_point(q, r, units, max_m)
    return checks, skipped, [[{"m": m, "report": rep.to_json()} for m, rep in reports]
                             for reports in found]


def _main_scan_lists_as_each_point(capsys, spec, max_m):
    """The main scan's JSON body, after checking both formats under --jobs 1
    and 2 against the walk at every point of every pair."""
    data, lines = _per_pair_scan(spec, max_m, "main", scan_pair=_main_at_each_point)
    argv = ["scan", "--field", spec, "--max", str(max_m), "--check", "main"]
    for jobs in ("1", "2"):
        assert run_command(argv + ["--jobs", jobs, "--format", "json"]) == 1
        assert capsys.readouterr().out == json.dumps(data) + "\n"
        assert run_command(argv + ["--jobs", jobs]) == 1
        assert capsys.readouterr().out.splitlines() == lines
    return data


def test_scan_main_lists_a_sign_fault_at_its_point(capsys, monkeypatch):
    # J = {0, 4} at (q, r, s) = (1, 2, 4) over F_5.  Setting sign[4] to 1 at
    # that one point drops 4 from J there, so level 4 finds dim 2 against the
    # one candidate adP(4,0)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    original = qcalc.ScalarTable.upto

    def faulty(self, n):
        original(self, max(n, 4))  # extended in full, so no later entry builds on the fault
        if (self.q, self.r, self.sign[0]) == (1, 2, 4):
            self.sign[4] = self.one
        return self

    monkeypatch.setattr(qcalc.ScalarTable, "upto", faulty)
    data = _main_scan_lists_as_each_point(capsys, "Fp:5", 4)
    assert [(d["q"], d["r"], d["s"]) for d in data["details"]] == [("1", "2", "4")]
    assert [v["m"] for v in data["details"][0]["violations"]] == [4]


def test_scan_main_lists_a_cut_fault_where_each_point_does(capsys, monkeypatch):
    # shifting the cut at level 2 by lambda_2 moves the s at which it vanishes
    # on P_2: each pair then breaks at the old root, where J has 2 and K_2 is
    # empty, and at the new one, where K_2 = [P_2] and J lacks 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    original = oracle._cut

    def faulty(field, lam, m, rs):
        z = original(field, lam, m, rs)
        return field._add(z, lam[m]) if m == 2 else z

    monkeypatch.setattr(oracle, "_cut", faulty)
    data = _main_scan_lists_as_each_point(capsys, "Fp:5", 3)
    assert {v["m"] for d in data["details"] for v in d["violations"]} == {2, 3}


@pytest.mark.parametrize("spec, max_m, walked", [
    ("Fp:3", 4, 4), *[(spec, 2, 74) for spec in F9_MODULI], ("Fp:5", 6, 30),
], ids=["Fp:3", "F9-1,0,1", "F9-2,1,1", "F9-2,2,1", "Fp:5"])
def test_scan_main_walks_only_the_points_of_an_s_equation(capsys, monkeypatch, spec,
                                                           max_m, walked):
    # of the 8, 272 and 64 points of the scan tasks
    calls = _count_calls(monkeypatch, "verify_levels", oracle)
    rc = run_command(["scan", "--field", spec, "--max", str(max_m), "--check", "main"])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == walked


@pytest.mark.parametrize("spec, count", [
    ("Fp:5", 16), ("Fp:7", 36), *[(spec, 34) for spec in F9_MODULI], (F16, 59),
    ("ext:Fp:5:2,0,1", 296),
], ids=["Fp:5", "Fp:7", "F9-1,0,1", "F9-2,1,1", "F9-2,2,1", "F16", "F25"])
def test_scan_runs_one_task_per_frobenius_orbit(capsys, monkeypatch, spec, count):
    # each task is the first pair in unit order of its orbit under x -> x^p,
    # and the orbits cover every pair once; over a prime field every pair is
    # its own orbit, so all (p - 1)^2 pairs run
    pairs = []

    def stub(task):
        q, r, units, _, _ = task
        pairs.append((q, r))
        return 0, 0, [[]] * len(units)

    monkeypatch.setattr(cli, "_scan_pair", stub)
    rc = run_command(["scan", "--field", spec, "--max", "1", "--check", "table1"])
    capsys.readouterr()
    assert rc == 0
    assert len(pairs) == count
    field = fields.parse_field_spec(spec)
    position = {u: i for i, u in enumerate(field.units())}
    p = field.characteristic
    covered = set()
    for q, r in pairs:
        # sigma^k for k < 4 covers every power of sigma: degrees are at most 4
        orbit = {(q ** p ** k, r ** p ** k) for k in range(4)}
        assert min(orbit, key=lambda pair: (position[pair[0]], position[pair[1]])) == (q, r)
        assert not orbit & covered
        covered |= orbit
    assert len(covered) == len(position) ** 2


def test_scan_oracles_fieldelement_budget(capsys, monkeypatch):
    # the element builders run on payloads: this scan created 16 129
    # FieldElements while u_k and the u_hat pairs multiplied FieldElements
    for cached in (rootvec.u_hat_k, rootvec.uhat_pair_words):
        cached.cache_clear()
    created = []
    init = vars(fields.FieldElement)["__init__"]

    def counting(obj, field, value):
        created.append(None)
        init(obj, field, value)

    monkeypatch.setattr(fields.FieldElement, "__init__", counting)
    rc = run_command(["scan", "--field", "ext:Fp:3:2,1,1", "--max", "2", "--check",
                      "oracles", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(created) <= 4000
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e5b9dce12092e6a877b2bb01121fdd041ed28a68c66e5a32a204b15de70d954"
    )


def test_scan_oracles_builds_each_level_once_per_q_r(capsys):
    # the 64 (q, r) of F_9 build at most the 6 pairs of levels 0..2 each,
    # shared by their 8 values of s; a build per point ran the body 2440 times
    rootvec.uhat_pair_words.cache_clear()
    rc = run_command(["scan", "--field", "ext:Fp:3:2,1,1", "--max", "2", "--check",
                      "oracles", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert rootvec.uhat_pair_words.cache_info().misses <= 64 * 6
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e5b9dce12092e6a877b2bb01121fdd041ed28a68c66e5a32a204b15de70d954"
    )


@pytest.mark.parametrize("spec, built", [("Fp:7", 108), ("Fp:3", 12)])
def test_scan_jobs_builds_each_level_once(capsys, monkeypatch, tmp_path, spec, built):
    # a task is one (q, r) pair, so forked workers build each (q, r, m) once:
    # 36 or 4 pairs times the levels 0..2.  With one task per point and a
    # cache per worker, chunks that split a (q, r) built 120 sets for Fp:7
    # and up to 21 for Fp:3, as the pool scheduled them.
    log = tmp_path / "built.txt"

    def logged(m, params):
        with open(log, "a") as handle:
            handle.write(f"{params.q} {params.r} {m}\n")
        return rootvec.level_elements(m, params)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oracle, "level_elements", logged)
    rc = run_command(["scan", "--field", spec, "--max", "2", "--check", "oracles",
                      "--jobs", "2", "--format", "json"])
    capsys.readouterr()
    assert rc == 0
    lines = log.read_text().splitlines()
    assert len(lines) == len(set(lines)) == built


def test_verify_past_the_word_ceiling(capsys, monkeypatch):
    # level 13 has words of length 15 > DEGREE_CEILING; verify builds none
    monkeypatch.setattr(oracle, "symmetrizer", lambda md, p: pytest.fail("symmetrizer"))
    rc, data = run_json(capsys, ["verify", "--field", "Q", "--q", "2", "--r", "3",
                                 "--s", "5", "--max", "13", "--format", "json"])
    assert rc == 0
    assert [rep["m"] for rep in data["reports"]] == list(range(14))
    assert all(rep["matches_theorem"] for rep in data["reports"])


@pytest.mark.parametrize("field, q", [
    ("Fp:" + "1" * 5000, "1"),
    ("Q", "2" * 5000),
], ids=["prime-spec", "rational-literal"])
def test_long_numerals_refused(capsys, field, q):
    # int() and Fraction() refuse over 4300 digits with a bare ValueError
    rc = run_command(["jset", "--field", field, "--q", q, "--r", "1", "--s", "1",
                      "--max", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        f"error: numeral of 5000 characters exceeds {fields.LITERAL_LENGTH}\n"
    )


def test_huge_exponent_refused(capsys):
    # t^e once built a list of length e before reducing it mod f
    start = time.perf_counter()
    rc = run_command(["jset", "--field", "ext:Fp:3:1,0,1", "--q", "t^3000000",
                      "--r", "1", "--s", "1", "--max", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: exponent 3000000 exceeds {fields.EXPONENT_BOUND}\n"
    assert elapsed < 1.0


def test_exponent_at_the_bound_accepted(capsys):
    rc, data = run_json(capsys, ["jset", "--field", "ext:Q:999,0,0,0,1000", "--q",
                                 f"t^{fields.EXPONENT_BOUND}", "--r", "1", "--s", "1",
                                 "--max", "1", "--format", "json"])
    assert rc == 0
    assert data["bound"] == 1


def test_nested_config_refused(tmp_path, capsys):
    # a file naming itself once recursed until RecursionError
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(f"--config {cfg}\n")
    rc = run_command(["--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --config cannot appear inside a config file\n"


@pytest.mark.parametrize("check, max_m", [("main", "8"), ("oracles", "6"), ("table1", "6")])
def test_scan_totals_agree_across_the_f9_moduli(capsys, check, max_m):
    # the three moduli give isomorphic fields, and a field isomorphism maps
    # the points of one scan onto the other's with every verdict kept
    totals = set()
    for modulus in ("1,0,1", "2,1,1", "2,2,1"):
        rc, data = run_json(capsys, ["scan", "--field", f"ext:Fp:3:{modulus}", "--max", max_m,
                                     "--check", check, "--format", "json"])
        assert rc == 0
        totals.add(tuple(data[key] for key in ("points", "checks", "skipped", "violations")))
    assert len(totals) == 1


# -- the per-process parser and fields leave every run's bytes unchanged ----------

_LITERALS = {
    "Q": ["2", "-3/5", "1/2", "3"],
    "Fp:3": ["1", "2"],
    "Fp:5": ["1", "2", "3", "4"],
    "ext:Fp:2:1,1,1": ["1", "t", "1+t"],
    "ext:Fp:3:1,0,1": ["1", "2", "t", "1+t", "2*t"],
}
_SCAN_FIELDS = ["Fp:2", "Fp:3", "ext:Fp:2:1,1,1"]
_REFUSALS = [
    ["jset", "--field", "Fp:4", "--q", "1", "--r", "1", "--s", "1", "--max", "2"],
    ["jset", "--field", "ext:Fp:3:1,1,1", "--q", "t", "--r", "1", "--s", "1", "--max", "2"],
    ["verify", "--field", "Fp:5", "--q", "t", "--r", "1", "--s", "1", "--max", "2"],
    ["verify", "--field", "Q", "--q", "1/0", "--r", "1", "--s", "1", "--max", "2"],
    ["jset", "--field", "Fp:5", "--q", "1", "--r", "-3/5", "--s", "1", "--max", "2"],
    ["jset", "--field", "Q", "--q", "2", "--r", "-3/5", "--s", "1", "--max", "2"],
    ["dim", "--field", "Fp:5", "--nope", "1"],
    ["scan", "--field", "Fp:3", "--max", "1", "--jobs", "0"],
    [],
]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["jset", "verify", "dim", "scan", "refusal"]))
    if command == "refusal":
        return draw(st.sampled_from(_REFUSALS))
    fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    if command == "scan":
        check = draw(st.sampled_from(["main", "oracles", "table1"]))
        return ["scan", "--field", draw(st.sampled_from(_SCAN_FIELDS)), "--max",
                str(draw(st.integers(0, 2))), "--check", check, *fmt]
    spec = draw(st.sampled_from(sorted(_LITERALS)))
    q, r, s = (draw(st.sampled_from(_LITERALS[spec])) for _ in range(3))
    argv = [command, "--field", spec, "--q", q, "--r", r, "--s", s, *fmt]
    if command == "dim":
        a = draw(st.integers(0, 3))
        return argv + ["--deg", f"{a},{draw(st.integers(0, 4 - a))}"]
    return argv + ["--max", str(draw(st.integers(0, 6 if command == "jset" else 3)))]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(list(argv))
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(argv=_argvs())
def test_per_process_caches_leave_each_run_unchanged(argv):
    # each run reuses whatever parser and fields the runs before it left;
    # it must print what a process with neither would print
    warm = _outcome(argv)
    assert warm[0] in (0, 1, 2)
    cli.build_parser.cache_clear()
    fields.parse_field_spec.cache_clear()
    assert _outcome(argv) == warm
    assert cli.build_parser() is cli.build_parser()
