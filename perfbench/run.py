#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload {dse_sweep|serve_mix|burst} \
        --seed N --seconds S --trace {0|1}

Builds perfbench/ (the G-GPU library from src/ plus the perfbench binary)
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the binary from the repository root, and checks that its result line names
exactly the metrics BENCHMARK.json declares: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1. The result line is the
last line of stdout; build logs and diagnostics go to stderr. Exits
non-zero without a result when the build, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs], env=env,
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        # ledger.json ties each metric to its layer and to the end-to-end
        # metric it should move; it must name exactly the declared metrics.
        with open(os.path.join(HERE, "ledger.json")) as f:
            ledger = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark spec: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for kind in ("end_to_end", "per_layer"):
        if set(ledger[kind]) != {m["name"] for m in spec[kind]}:
            fail(f"ledger.json {kind} names differ from BENCHMARK.json")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    # Relative to the root, so gpupd socket paths stay short.
    scratch = os.path.relpath(os.path.join(build_root, "run"), ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"perfbench exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"perfbench's last line is not JSON: {lines[-1][:200]}")

    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail(f"{name}: unit {got[name]['unit']!r} != declared {unit!r}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
