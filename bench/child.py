"""One timed run of the nichols benchmark, in a fresh interpreter.

Usage: python -I child.py <src dir> <trace 0|1>

Imports ``nichols.cli``, writes ``ready`` on stdout, reads a JSON list of
command lines from stdin, passes each to ``run_command`` (the path that
``nichols --config`` takes) with stdout and stderr captured, and writes
one JSON object with every output, the run time and the peak RSS.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    Not ``ru_maxrss``: on Linux that carries the RSS the parent had when it
    forked this child across the exec, so it reports the parent's size
    whenever that is larger.  VmHWM is the high-water mark of this
    process's own address space.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src)
    from nichols import cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    commands = json.loads(sys.stdin.read())

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    run_s = 0.0
    for command_id, argv in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = command_id
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.run_command(list(argv))
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                status = None
        seconds = time.perf_counter() - began
        run_s += seconds
        results.append(
            {
                "status": status,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "seconds": seconds,
            }
        )

    report = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "results": results,
    }
    if tracer is not None:
        tracer.restore()
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.span_dump()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
