#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator libraries (../src)
and the benchmark into .bench_build (CMake, Release), runs the
benchmark's self-test, then runs the workload. The last line of
standard output is the JSON result; with --trace 1 the spans of the
first traced repetition are also written to
.bench_build/spans-<workload>.tsv. Exits non-zero, printing no
result, when the build or the self-test fails.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def run_quiet(cmd):
    """Run a build step; on failure show its output on stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: step failed: {' '.join(cmd)}\n")
        sys.exit(proc.returncode or 1)


def build():
    run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
               "--target", "perfbench", "perfbench_test"])
    run_quiet([str(BUILD / "perfbench_test")])


def declared_metrics(trace):
    """Names and units BENCHMARK.json promises for this mode, if present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    args = sys.argv[1:]
    trace = False
    workload = ""
    for key, value in zip(args[::2], args[1::2]):
        if key == "--trace":
            trace = value != "0"
        elif key == "--workload":
            workload = value
    build()
    cmd = [str(BUILD / "perfbench")] + args
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.tsv")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if want is not None and got != want:
        sys.stderr.write(f"perfbench: metrics {got} differ from "
                         f"BENCHMARK.json {want}\n")
        sys.exit(1)


if __name__ == "__main__":
    main()
