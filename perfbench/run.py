#!/usr/bin/env python3
"""Build and run the LAPSim sweep benchmark.

    python3 perfbench/run.py --workload mix-grid --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the
benchmark program) as an optimised CMake build under $CARGO_TARGET_DIR
(default .bench_build), then runs the program from the repository
root. Its last line of standard output is the JSON result; build
output goes to a log file, shown on standard error if the build
fails. Any further arguments (--scale, --write-expected, ...) are
passed to the program unchanged.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def git_commit():
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); "none" outside a git checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work-" + args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", work_dir,
               "--expected-dir", os.path.join(BENCH_DIR, "expected"),
               "--commit", git_commit()]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            build_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    command += extra

    # These rescale every job's run length; the benchmark runs the
    # grid as defined.
    env = {k: v for k, v in os.environ.items()
           if k not in ("LAPSIM_FAST", "LAPSIM_REFS_SCALE")}
    try:
        code = subprocess.call(command, cwd=ROOT, env=env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
