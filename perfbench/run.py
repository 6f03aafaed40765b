#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/main.exe with dune and runs it with the same
arguments; its last line of output is the result object (see
perfbench/main.ml).  `--workload all` runs every workload in its own
process, end-to-end metrics first, then one traced run that prints the
per-layer metrics.  The exit code is non-zero only on a harness error
(a failed build, bad arguments, a crash, or deterministic metrics that
did not repeat); failed ops are counted in the result, not fatal.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ["oneshot", "check_sweep", "serve_mix", "tune_fleet"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    dune = ["dune"]
    if not shutil.which("dune") and shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    # dune's progress output goes to stderr: stdout ends with the result
    done = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)


def run(args):
    return subprocess.run([EXE] + args).returncode


def without(args, flag):
    """args minus every `flag VALUE` pair."""
    out, i = [], 0
    while i < len(args):
        if args[i] == flag:
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


def main():
    args = sys.argv[1:]
    build()
    if dict(zip(args[::2], args[1::2])).get("--workload") != "all":
        sys.exit(run(args))
    rest = without(without(args, "--workload"), "--trace")
    for w in WORKLOADS:
        status = run(["--workload", w, "--trace", "0"] + rest)
        print(flush=True)
        if status != 0:
            sys.exit(status)
    sys.exit(run(["--workload", WORKLOADS[0], "--trace", "1"] + rest))


if __name__ == "__main__":
    main()
