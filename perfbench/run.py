#!/usr/bin/env python3
"""Builds the ETSQP benchmark from source and runs one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The library is compiled from ../src together with the benchmark runner
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset. Build output goes to
stderr; stdout carries the runner's record line and, last, the result line
(see perfbench/README.md). Exits non-zero without a result line when the
build or the run fails. Stdlib only.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    # Compiler temporaries stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "etsqp_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, env=env, check=False)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = build_dir / "etsqp_perfbench"
    return binary if binary.exists() else None


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["scan", "serve", "ingest", "cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--serve-rate", type=float, default=8000,
                        help="open-loop request rate of serve (requests/s)")
    parser.add_argument("--slo-ms", type=float, default=1.0,
                        help="latency limit behind slo_miss_ratio (ms)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    binary = build(build_dir)
    if binary is None:
        return 3

    cmd = [str(binary), "--out-dir", str(build_dir / "out"),
           "--git-rev", git_rev()]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--serve-rate", str(args.serve_rate),
                "--slo-ms", str(args.slo_ms)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
