#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload compile-ladder|kernels|serve-mix \
        --seed N --seconds S --trace 0|1

Builds the harness and df_compile with dune, runs the harness in a fresh
process (so caches, heap and peak RSS never carry over between
workloads), passes its report through, and prints as the last line the
harness's JSON result; untraced runs gain peak_rss_mb, the peak resident
memory of the harness and every process it waited for (the serve
binaries and their shards).  Exits non-zero on a build failure, a wrong
output or a timeout.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

WORKLOADS = ("compile-ladder", "kernels", "serve-mix")
HARNESS = "_build/default/perfbench/harness.exe"
DF_COMPILE = "_build/default/bin/df_compile.exe"
OUT = "perfbench/out"
# the run is killed past this many seconds, well inside the 180 s a run
# may take
LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a dflow checkout (no dune-project/lib here)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/harness.exe",
         "bin/df_compile.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)

    cmd = [HARNESS, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--df-compile", DF_COMPILE, "--out", OUT]
    # its own process group, so that a timeout also stops the serve
    # processes the harness started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(LIMIT_S, kill)
    timer.start()
    last = None
    for line in proc.stdout:
        if last is not None:
            print(last, flush=True)
        last = line.rstrip("\n")
    # wait4 gives the harness's own rusage, which folds in the peak of
    # every descendant it reaped
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        fail(f"timed out after {LIMIT_S} s")
    try:
        result = json.loads(last or "")
    except json.JSONDecodeError:
        fail("the harness printed no result")
    if a.trace == 0:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
