#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary and the libraries under src/ into .bench_build/
at the repository root (the first run builds; later runs only check), runs
one workload and passes its output through. The last line of standard
output is the JSON result. Exits non-zero without a result when the sources
are missing or the build fails.
"""
import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ("repro-cold", "fuzz-oracle", "warm-rerun")
# What a run takes beyond --seconds: set-up, the last round or pass it
# finishes (one repro-cold pass took up to 48 s on a 4-CPU host) and the
# traced run's probe.
RUN_ALLOWANCE_S = 140


def build():
    """Configure (once) and build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sources under %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    out = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "perfbench")


def startup_seconds(exe, launches=25):
    """Median time from launching the binary to its main(), in seconds.

    Part of setup_s. Taken over several launches because one launch is a
    single sample of a millisecond-scale, noisy quantity.
    """
    samples = []
    for _ in range(launches):
        # CLOCK_MONOTONIC: the clock std::chrono::steady_clock reads.
        launch = time.monotonic_ns()
        out = subprocess.run([exe, "--startup-probe", str(launch)],
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            sys.exit("perfbench: start-up probe failed: %s" % out.stderr)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    exe = build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--work-dir", WORK,
           "--startup-s", repr(startup_seconds(exe))]
    timeout = args.seconds + RUN_ALLOWANCE_S
    try:
        proc = subprocess.run([exe, *cmd], timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, timeout))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
