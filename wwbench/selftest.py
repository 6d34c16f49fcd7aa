#!/usr/bin/env python3
"""Toy-scale self-test of the whole-window benchmark.

    python3 wwbench/selftest.py

Builds wwbench like run.py does, then runs every workload at k=4 for a few windows and checks:
  - every metric BENCHMARK.json names is emitted with its unit (end-to-end with --trace 0,
    per-layer with --trace 1), and the human table carries all twelve end-to-end metrics
    with a unit and a sample count;
  - the run digest is identical across two runs of one seed, and the checks pass (failed 0);
  - the checks can fail: a byte flipped in the window log before replay, and a loopback that
    drops report frames, each give op_fail_ratio > 0, correct false and exit code 3.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper beside this file)

END_TO_END_TABLE = [
    "setup_s", "windows_per_s", "window_ms_p50", "window_ms_p90", "cpu_ms_per_window",
    "peak_rss_mb", "churn_apply_ms_p50", "churn_apply_ms_p90", "detect_s_p50", "recall",
    "precision", "op_fail_ratio",
]
WINDOWS = "5"

failures = []


def check(cond, what):
    print("  %s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def invoke(binary, scratch, *args):
    proc = subprocess.run([binary, "--toy", "--windows", WINDOWS, "--scratch", scratch] +
                          list(args), capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        pass
    return proc, result


def table_rows(stdout):
    rows = {}
    for line in stdout.splitlines():
        m = re.match(r"^\s+(\S+)\s+(-?[0-9.e+-]+|nan|inf)\s+(\S+)\s+(\d+)$", line)
        if m:
            rows[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)))
    return rows


def main():
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = run.build(run.build_dir())
    if binary is None:
        print("build failed")
        return 1
    scratch = os.path.join(run.build_dir(), "selftest-scratch")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        for w in spec["workloads"]:
            name = w["name"]
            print("%s:" % name)
            first, r1 = invoke(binary, scratch, "--workload", name, "--seed", "7", "--trace", "0")
            again, r2 = invoke(binary, scratch, "--workload", name, "--seed", "7", "--trace", "0")
            check(first.returncode == 0 and r1 is not None and r1["correct"] and
                  r1["failed"] == 0, "untraced run passes its checks")
            check(r1 is not None and
                  {k: v["unit"] for k, v in r1["metrics"].items()} == e2e,
                  "result line holds exactly the end-to-end metrics, with units")
            rows = table_rows(first.stdout)
            check(all(m in rows and rows[m][1] for m in END_TO_END_TABLE),
                  "table prints all twelve end-to-end metrics with unit and sample count")
            d1 = re.search(r"^digest: (\w+)", first.stdout, re.M)
            d2 = re.search(r"^digest: (\w+)", again.stdout, re.M)
            check(d1 is not None and d2 is not None and d1.group(1) == d2.group(1),
                  "digest identical across two runs of one seed")
            traced, rt = invoke(binary, scratch, "--workload", name, "--seed", "7", "--trace", "1")
            check(traced.returncode == 0 and rt is not None and rt["correct"],
                  "traced run passes its checks and identities")
            check(rt is not None and
                  {k: v["unit"] for k, v in rt["metrics"].items()} == layer,
                  "traced result holds exactly the per-layer metrics, with units")
        print("fault injection:")
        for workload, inject in (("stream_k48_full", "log-flip"),
                                 ("report_churn_k16", "frame-drop")):
            proc, r = invoke(binary, scratch, "--workload", workload, "--seed", "7",
                             "--trace", "0", "--inject", inject)
            rows = table_rows(proc.stdout)
            ratio = rows.get("op_fail_ratio", (0.0, "", 0))[0]
            check(proc.returncode == 3 and r is not None and not r["correct"] and
                  r["failed"] > 0 and ratio > 0.0,
                  "%s --inject %s: op_fail_ratio %.4g > 0, exit 3" % (workload, inject, ratio))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test: %s" % ("PASS" if not failures else "FAIL (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
