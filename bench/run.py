"""The nichols benchmark: seeded CLI workloads, timed end to end in fresh
child interpreters, with every output checked for exactness.

    python3 bench/run.py --workload sweep-main --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50   # every workload
    python3 bench/run.py --smoke                                 # one small command each
    python3 bench/run.py --record                                # rewrite reference.json

A run spawns one child at a time (``child.py``), each a fresh interpreter
so that no ``lru_cache`` carries over, and repeats until ``--seconds``
have passed; after each timed child, SETUP_PROBES more children only
start up, so that setup_s is a median of many start-ups.  ``--trace 0``
reports the end-to-end metrics (medians over the children); ``--trace 1``
makes one traced child for the per-layer metrics, then untraced children
for the rest of the time, whose median gives the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A summary goes to stderr and every sample to ``bench/results/``.
See NOTES.md for the workloads and their rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"
BUDGET_S = 150  # a whole invocation stays below the 180 s limit
SETUP_PROBES = 2  # extra children per timed child that only start up, for setup_s


@dataclass
class Sample:
    """One child run: its timings and the per-command results."""

    commands: list
    setup_s: float | None = None
    report: dict | None = None
    error: str | None = None  # set when the child crashed, hung or was killed


def run_child(commands: list, trace: bool, timeout: float) -> Sample:
    """Spawn a fresh interpreter, wait until ``nichols.cli`` is imported,
    send it the command lines, and collect its report."""
    argv = [sys.executable, "-I", str(BENCH / "child.py"), str(SRC), "1" if trace else "0"]
    began = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else b""
        setup_s = time.perf_counter() - began
        if line != b"ready\n":
            proc.kill()
            _, err = proc.communicate()
            return Sample(commands, error=f"child not ready: {err.decode(errors='replace')[-2000:]}")
        out, err = proc.communicate(
            json.dumps(commands).encode(), timeout=max(1.0, timeout - setup_s)
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(commands, error=f"child killed after {timeout:.0f} s")
    if proc.returncode != 0:
        return Sample(commands, error=f"child exit {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return Sample(commands, setup_s=setup_s, report=json.loads(out))


# -- output checks -------------------------------------------------------------------


def command_key(argv: list) -> str:
    return shlex.join(argv)


def scan_totals(data: dict) -> list:
    return [data["points"], data["checks"], data["skipped"], data["violations"]]


def semantic_failures(argv: list, data: dict) -> list:
    """Checks that hold for every correct output, whatever the seed."""
    command = argv[0]
    failures = []
    if command == "scan" and data["violations"] != 0:
        failures.append(f"scan reports {data['violations']} violations")
    elif command == "verify":
        bad = [rep["m"] for rep in data["reports"] if "skipped" not in rep and not rep["matches_theorem"]]
        if bad:
            failures.append(f"verify: no theorem match at m={bad}")
    elif command == "dim":
        a, b = data["deg"]
        if not 0 <= data["dim"] <= comb(a + b, a):
            failures.append(f"dim {data['dim']} outside [0, C({a + b},{a})]")
    elif command == "multiplicity":
        for row in data["rows"]:
            if "skipped" not in row and row["multiplicity"] != row["m_prime"] - row["j_count"]:
                failures.append(f"multiplicity row {row} is not m' - |J|")
    return failures


def check_command(argv: list, result: dict, reference) -> tuple:
    """(failure reasons, verified work units) of one command's output.

    ``reference`` is None only while recording it.
    """
    from workloads import isomorphic_key, work_units

    if result["status"] != 0:
        return [f"exit status {result['status']}: {result['stderr'][-500:]}"], 0
    try:
        data = json.loads(result["stdout"])
    except ValueError:
        return ["output is not JSON"], 0
    failures = semantic_failures(argv, data)
    if reference is not None:
        key = command_key(argv)
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        expected = reference["digests"].get(key)
        if expected is None:
            failures.append("no reference digest for this command line")
        elif digest != expected:
            failures.append(f"sha256 {digest} differs from the reference {expected}")
        iso = isomorphic_key(argv)
        if iso is not None and scan_totals(data) != reference["isomorphic_totals"][iso]:
            failures.append(
                f"scan totals {scan_totals(data)} differ from the isomorphic-field "
                f"totals {reference['isomorphic_totals'][iso]}"
            )
    units = 0 if failures else work_units(argv, data)
    return failures, units


def check_sample(sample: Sample, reference) -> dict:
    """Per-command verdicts of one child; a crashed child fails every command."""
    if sample.error is not None:
        return {
            "failed": len(sample.commands),
            "units": 0,
            "failures": [{"command": command_key(c), "reasons": [sample.error]} for c in sample.commands],
        }
    failed, units, failures = 0, 0, []
    for argv, result in zip(sample.commands, sample.report["results"]):
        reasons, n = check_command(argv, result, reference)
        units += n
        if reasons:
            failed += 1
            failures.append({"command": command_key(argv), "reasons": reasons})
    return {"failed": failed, "units": units, "failures": failures}


# -- statistics and reporting ------------------------------------------------------------


def tail_percentile(values: list):
    """(p, value) for the highest integer percentile p with at least ten
    samples above it (nearest rank), or None with fewer than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_sha():
    """The checkout's commit, read from .git without running git; None
    when the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def write_results(name: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- modes --------------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Timed children for ``seconds`` (after one traced child when tracing)."""
    from workloads import generate

    commands = generate(workload, seed)
    began = time.perf_counter()
    traced = None
    if trace:
        traced = run_child(commands, True, BUDGET_S)
    samples, probes = [], []
    while True:
        remaining = BUDGET_S - (time.perf_counter() - began)
        samples.append(run_child(commands, False, max(1.0, remaining)))
        probes += [run_child([], False, 30) for _ in range(SETUP_PROBES)]
        if time.perf_counter() - began >= min(seconds, BUDGET_S):
            break

    checked = [check_sample(s, reference) for s in samples]
    good = [(s, c) for s, c in zip(samples, checked) if s.error is None]
    setup = [s.setup_s for s, _ in good] + [p.setup_s for p in probes if p.error is None]
    run = [s.report["run_s"] for s, _ in good]
    rss = [s.report["peak_rss_mb"] for s, _ in good]
    rate = [c["units"] / r for r, (_, c) in zip(run, good)]
    attempted = sum(len(s.commands) for s in samples)
    failed = sum(c["failed"] for c in checked)
    traced_check = None
    if traced is not None:
        traced_check = check_sample(traced, reference)
        attempted += len(commands)
        failed += traced_check["failed"]

    summary = {
        "workload": workload,
        "environment": environment(seed),
        "seconds": seconds,
        "trace": trace,
        "commands": [command_key(c) for c in commands],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "setup_probe_s": [p.setup_s for p in probes],
        "samples": [
            {
                "setup_s": s.setup_s,
                "run_s": s.report["run_s"] if s.report else None,
                "peak_rss_mb": s.report["peak_rss_mb"] if s.report else None,
                "units": c["units"],
                "command_s": [r["seconds"] for r in s.report["results"]] if s.report else None,
                "error": s.error,
                "failures": c["failures"],
            }
            for s, c in zip(samples, checked)
        ],
    }
    if run:
        summary["run_s"] = {
            "median": statistics.median(run),
            "tail": tail_percentile(run),
            "n": len(run),
        }
        summary["metrics"] = {
            "setup_s": metric(statistics.median(setup), "s"),
            "run_s": metric(statistics.median(run), "s"),
            "checks_per_s": metric(statistics.median(rate), "1/s"),
            "peak_rss_mb": metric(statistics.median(rss), "MiB"),
        }
    if traced is not None:
        summary["traced_failures"] = traced_check["failures"]
        if traced.error is None and run:
            traced_run = traced.report["run_s"]
            layers = dict(traced.report["layers"])
            layers["trace.overhead_s"] = traced_run - statistics.median(run)
            summary["layers"] = layers
            summary["traced_run_s"] = traced_run
            summary["layer_metrics"] = {
                name: metric(value, layer_unit(name)) for name, value in layers.items()
            }
            write_results(f"{workload}-seed{seed}.spans.json", traced.report["spans"])
    write_results(f"{workload}-seed{seed}-trace{int(trace)}.json", summary)
    return summary


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def print_summary(summary: dict) -> None:
    err = sys.stderr
    print(f"== {summary['workload']} (seed {summary['environment']['seed']})", file=err)
    for name, m in summary.get("metrics", {}).items():
        print(f"  {name:<14} {m['value']:>12.6g} {m['unit']}", file=err)
    print(f"  {'failed_frac':<14} {summary['failed_frac']:>12.6g} ratio "
          f"({summary['failed']}/{summary['attempted']})", file=err)
    if "run_s" in summary:
        tail = summary["run_s"]["tail"]
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with 10 samples beyond it"
        print(f"  run_s samples  n={summary['run_s']['n']}, {tail_text}", file=err)
    for s in summary["samples"]:
        for f in s["failures"]:
            print(f"  FAILED {f['command']}: {'; '.join(f['reasons'])}", file=err)
    for f in summary.get("traced_failures", []):
        print(f"  FAILED (traced) {f['command']}: {'; '.join(f['reasons'])}", file=err)
    if "layers" in summary:
        top = sorted(
            ((k, v) for k, v in summary["layers"].items() if k.endswith(".self_s")),
            key=lambda kv: -kv[1],
        )[:5]
        print("  top self time: " + ", ".join(f"{k} {v:.3f}" for k, v in top), file=err)
        print(f"  traced run_s {summary['traced_run_s']:.3f} s, overhead "
              f"{summary['layers']['trace.overhead_s']:.3f} s", file=err)


def result_line(summary: dict, trace: bool) -> dict:
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary.get("layer_metrics" if trace else "metrics", {}),
    }


def smoke(workloads: list, reference: dict) -> int:
    """One small command per workload, through the same checks."""
    from workloads import SMOKE

    status = 0
    for name in workloads:
        sample = run_child(SMOKE[name], False, BUDGET_S)
        verdict = check_sample(sample, reference)
        ok = verdict["failed"] == 0
        status = status or (0 if ok else 1)
        print(f"smoke {name}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
        for f in verdict["failures"]:
            print(f"  {f['command']}: {'; '.join(f['reasons'])}", file=sys.stderr)
    return status


def record() -> int:
    """Run every command any seed can generate, for every workload, and
    write reference.json.

    Refuses when an output fails a semantic check, or when scans over
    isomorphic fields report different totals.
    """
    from workloads import WORKLOADS, all_commands, isomorphic_key

    digests, totals, bad = {}, {}, 0
    for name in WORKLOADS:
        commands = all_commands(name)
        sample = run_child(commands, False, 3600)
        if sample.error is not None:
            print(f"{name}: {sample.error}", file=sys.stderr)
            return 1
        for argv, result in zip(commands, sample.report["results"]):
            reasons, _ = check_command(argv, result, None)
            print(f"{result['seconds']:8.3f} s  {command_key(argv)}", file=sys.stderr)
            if reasons:
                bad += 1
                print(f"  FAILED: {'; '.join(reasons)}", file=sys.stderr)
                continue
            digests[command_key(argv)] = hashlib.sha256(result["stdout"].encode()).hexdigest()
            iso = isomorphic_key(argv)
            if iso is not None:
                got = scan_totals(json.loads(result["stdout"]))
                if totals.setdefault(iso, got) != got:
                    bad += 1
                    print(f"  FAILED: totals {got} differ from {totals[iso]} for {iso}", file=sys.stderr)
    if bad:
        return 1
    REFERENCE.write_text(
        json.dumps({"digests": digests, "isomorphic_totals": totals}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(digests)} digests to {REFERENCE}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small command per workload")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "nichols" / "cli.py").is_file():
        print(f"error: no nichols sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.record:
        return record()
    reference = load_reference()
    if args.smoke:
        return smoke(names, reference)

    status = 0
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        print_summary(summary)
        line = result_line(summary, bool(args.trace))
        if args.workload == "all":
            line["workload"] = name
        print(json.dumps(line), flush=True)
        if summary["failed"] or "metrics" not in summary:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
