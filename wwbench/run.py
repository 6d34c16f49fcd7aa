#!/usr/bin/env python3
"""Builds and runs the whole-window pipeline benchmark (wwbench).

    python3 wwbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [extra flags]

Run it from the root of a checkout. The first run configures and builds wwbench/ (which
compiles the detector library from src/) with CMake into $CARGO_TARGET_DIR/wwbench, or into
.bench_build/wwbench when that variable is unset; later runs rebuild only what changed. Build
output goes to standard error, so the last line of standard output is the benchmark's JSON
result. Extra flags (--windows, --toy, --inject) pass through to the binary; see wwbench.cc.

Exits non-zero, without a result, when the detector sources are missing or the build fails.
Scratch window logs live under the build directory and are removed when the run ends.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "wwbench")


def build(bdir):
    """Configures (once) and builds the wwbench binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "detector", "system.h")):
        print("wwbench: detector sources not found under %s/src" % ROOT, file=sys.stderr)
        return None
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "wwbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("wwbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(bdir, "wwbench")
    return binary if os.path.isfile(binary) else None


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def flag_value(argv, name, default):
    for i, arg in enumerate(argv):
        if arg == "--" + name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--" + name + "="):
            return arg.split("=", 1)[1]
    return default


def main(argv):
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    scratch = os.path.join(bdir, "scratch-%d" % os.getpid())
    cmd = [binary] + argv + ["--scratch", scratch, "--commit", commit_id()]
    if flag_value(argv, "trace", "0") == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag_value(argv, "workload", "unknown"),
                                   flag_value(argv, "seed", "1"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    # A SIGTERM becomes SystemExit here, so the finally below still stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(cmd)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
