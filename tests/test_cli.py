"""Exit codes, JSON schemas, and determinism of the command-line front end."""

import hashlib
import json
import time

import pytest

from nichols import cli, fields, jset, oracle, qcalc, rootvec
from nichols.cli import run_command
from nichols.oracle import KernelReport


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


@pytest.mark.parametrize("jobs", ["-3", "0", "3"])
def test_scan_jobs_out_of_range_rejected(capsys, monkeypatch, jobs):
    # the refusal comes before any pool exists: a pool here fails the test
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "get_context", lambda method: pytest.fail("pool started"))
    rc = run_command(["scan", "--field", "Fp:3", "--max", "1", "--jobs", jobs])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--jobs must be between 1 and 2" in captured.err


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
    # each point is stubbed out: only the guard and the task list are under test
    monkeypatch.setattr(cli, "_scan_point", lambda task: {
        "q": task[1], "r": task[2], "s": task[3], "checks": 0, "skipped": 0,
        "violations": [],
    })
    rc, data = run_json(capsys, ["scan", "--field", spec, "--max", "1",
                                 "--check", "table1", "--format", "json"])
    assert rc == 0
    assert data["points"] == points


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
    monkeypatch.setattr(cli, "_scan_point", lambda task: pytest.fail("_scan_point"))
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
    calls = _count_calls(monkeypatch, "compute_J", oracle)
    rc, data = run_json(capsys, ["scan", "--field", "Fp:3", "--max", "4",
                                 "--check", "main", "--format", "json"])
    assert rc == 0
    assert data["points"] == 8
    assert calls == [4] * 8


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
    # (k)_q^!, b_k and the sign equation come from each point's table, not
    # from the closed formulas
    closed = {
        name: _count_calls(monkeypatch, name, qcalc, jset, rootvec, oracle, cli)
        for name in ("q_fact", "b_k", "first_equation")
    }
    rc, data = run_json(capsys, ["scan", "--field", "ext:Fp:3:2,1,1", "--max", "2",
                                 "--check", "main", "--format", "json"])
    assert rc == 0
    assert data["points"] == 512 and data["checks"] > 0
    assert closed == {"q_fact": [], "b_k": [], "first_equation": []}


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
