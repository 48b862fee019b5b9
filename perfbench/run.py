#!/usr/bin/env python3
"""Build and run the CacheBox repository benchmark.

    python3 perfbench/run.py --workload fig14-offline --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It builds the benchmark and the cachebox
binary from source into .bench_build/, then runs one workload. The last line
of standard output is the result object; everything else is commentary.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("fig14-offline", "serve-mixed", "serve-hrd")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    env = dict(os.environ)
    # Keep every build artifact inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, BUILD_DIR, "xdg-cache")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/cbbench.exe", "./bin/cachebox.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD_DIR, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "default", "perfbench", "cbbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--cachebox", os.path.join(BUILD_DIR, "default", "bin", "cachebox.exe"),
           "--probe-ref", os.path.join("perfbench", "probe_ref.txt")]
    # A process group of its own, so that a timeout or a signal to this
    # script also stops the daemon the benchmark started, and so that
    # nothing of the run outlives it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(signum, _frame):
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    kill_group()
    proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
