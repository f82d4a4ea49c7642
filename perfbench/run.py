#!/usr/bin/env python3
"""Build and run the structnet pipeline benchmark.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. Configures and builds perfbench/ (which
compiles the structnet libraries from src/) in Release mode into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary. Build output goes to stderr; the binary's stdout is
passed through unchanged, so its last line is the JSON result. Exits
nonzero, without a result line, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler and runtime temporary files inside the checkout
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "pipeline_bench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return done.returncode or 1
    binary = os.path.join(build, "pipeline_bench")
    work = os.path.relpath(build)
    done = subprocess.run([binary, *sys.argv[1:], "--work-dir", work], env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
