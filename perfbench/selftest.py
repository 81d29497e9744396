#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. A tiny run of each workload passes its checks and prints every
   end-to-end metric (untraced) or per-layer metric (traced) of
   BENCHMARK.json, by name with its unit, as a line and in the result.
2. repro-cold with one fig3 cycle expectation perturbed reports
   error_pct above 0 and exits 1.
3. fuzz-oracle with CheckOptions::weakenPolicy reports error_pct above 0
   and exits 1.
4. run.py in a directory holding only BENCHMARK.json and perfbench/ exits
   non-zero and prints no result.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (same directory)

FAILURES = []


def check(cond, what):
    print("%s: %s" % ("ok" if cond else "FAIL", what), flush=True)
    if not cond:
        FAILURES.append(what)


def tiny(exe, workload, trace, *extra):
    cmd = [exe, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--repo", ROOT, "--work-dir", run.WORK,
           "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines[:-1], result


def error_pct(lines):
    for line in lines:
        m = re.match(r"error_pct (\S+) %", line)
        if m:
            return float(m.group(1))
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe = run.build()

    for w in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = tiny(exe, w, trace)
            what = "%s --trace %d" % (w, trace)
            check(code == 0 and result and result["correct"] and
                  result["failed"] == 0 and result["attempted"] > 0 and
                  error_pct(lines) == 0, what + " passes its checks")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in (result or {}).get(
                "metrics", {}).items()}
            check(got == want, what + " reports exactly the %s metrics "
                  "with their units" % key)
            printed = all(any(re.match(r"%s \S+ %s$" % (re.escape(n),
                                                        re.escape(u)), l)
                              for l in lines) for n, u in want.items())
            check(printed, what + " prints every metric as 'name value unit'")

    code, lines, result = tiny(exe, "repro-cold", 0, "--perturb-fig3")
    check(code == 1 and result and not result["correct"] and
          (error_pct(lines) or 0) > 0,
          "a perturbed fig3 expectation raises error_pct above 0")

    code, lines, result = tiny(exe, "fuzz-oracle", 0, "--weaken", "levioso")
    check(code == 1 and result and not result["correct"] and
          (error_pct(lines) or 0) > 0,
          "a weakened levioso under the fuzz oracle raises error_pct above 0")

    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repro-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources run.py exits non-zero and prints no result")

    if FAILURES:
        sys.exit("%d self-test(s) failed" % len(FAILURES))
    print("all self-tests passed")


if __name__ == "__main__":
    main()
