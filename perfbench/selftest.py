#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny scale (a few seconds in all).

    python3 perfbench/selftest.py

Checks, on the reduced "tiny" grids (small caches, 10k refs per core):
  1. every metric named in BENCHMARK.json is printed, by name and with
     its unit, on every workload (end-to-end untraced, per-layer
     traced), and the traced run writes a readable span file;
  2. a corrupted expected-output file raises the failed count and the
     output names the job;
  3. a perturbed issue-cycle stream makes the traced run's
     replay-exactness check fail.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench")
SCRATCH = os.path.join(BUILD_DIR, "selftest")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra):
    """Runs the benchmark; returns (result dict or None, stdout)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), out.stdout
    except (IndexError, ValueError):
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        return None, out.stdout


def metrics_printed(result, stdout, declared):
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            return False
        line = [l.split() for l in stdout.splitlines()
                if l.startswith("metric ") and l.split()[1] == m["name"]]
        if not line or line[0][-1] != m["unit"]:
            return False
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    for w in spec["workloads"]:
        name = w["name"]
        result, stdout = bench(name, 0)
        check(result is not None and result["correct"]
              and metrics_printed(result, stdout, spec["end_to_end"]),
              "%s: untraced run correct, every end-to-end metric printed "
              "with its unit" % name)
        result, stdout = bench(name, 1)
        check(result is not None and result["correct"]
              and metrics_printed(result, stdout, spec["per_layer"]),
              "%s: traced run correct (replay exact), every per-layer "
              "metric printed with its unit" % name)
        spans = os.path.join(BUILD_DIR, "spans-%s-seed1.json" % name)
        try:
            with open(spans) as f:
                events = json.load(f)["traceEvents"]
            ok = len(events) > 0 and all(e["ph"] == "X" for e in events)
        except (OSError, ValueError, KeyError):
            ok = False
        check(ok, "%s: span file is Chrome trace_event JSON" % name)

    # Expected-output check: a clean digest passes, a corrupted one
    # fails the named job.
    expected_dir = os.path.join(SCRATCH, "expected")
    os.makedirs(expected_dir)
    bench("mix-grid", 0, "--write-expected", expected_dir)
    path = os.path.join(expected_dir, "mix-grid.seed1.tiny.txt")
    result, _ = bench("mix-grid", 0, "--expected-dir", expected_dir)
    check(result is not None and result["correct"]
          and result["failed"] == 0,
          "expected-output check passes on its own digest")
    with open(path) as f:
        lines = f.read().splitlines()
    victim = lines[1].split("\t")[0]
    lines[1] = lines[1].replace("cycles=", "cycles=9", 1)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    result, stdout = bench("mix-grid", 0, "--expected-dir", expected_dir)
    check(result is not None and not result["correct"]
          and result["failed"] > 0
          and ("FAIL %s:" % victim) in stdout,
          "corrupted expected digest raises failed_frac and names %s"
          % victim)

    # Replay exactness: shifting issue cycles must be caught.
    result, stdout = bench("mix-grid", 1, "--perturb-replay")
    check(result is not None and not result["correct"]
          and result["failed"] > 0
          and "replayed hierarchy" in stdout.lower(),
          "perturbed issue-cycle stream fails the replay-exactness check")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
