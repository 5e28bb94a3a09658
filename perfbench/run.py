#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (the mcgp library from src/ plus the perfbench driver)
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs it, and relays its output. The last stdout line is the driver's JSON
result; the line before it stamps the result with where it was measured.
With --trace 1 the spans are written to <build dir>/spans/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

BUILD_TYPE = "RelWithDebInfo"  # the tier-1 build (-O2 -g)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr, never on stdout."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt under " + str(root) +
             ": run from the root of a source tree")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(root / "perfbench"), "-B",
                   str(build_dir), "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                  BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    exe = build_dir / "perfbench"
    if not exe.is_file():
        fail("build produced no " + str(exe))
    return exe


def read_text(path):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def stamp(root, build_dir):
    """Where and how the result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    # A checkout without git metadata is still identified by its sources.
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    compiler = "unknown"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                try:
                    compiler = subprocess.run(
                        [cxx, "--version"], capture_output=True, text=True,
                        timeout=10, check=False).stdout.splitlines()[0]
                except (OSError, IndexError, subprocess.TimeoutExpired):
                    compiler = cxx
    return {
        "git_commit": commit or "unavailable",
        "src_sha256": digest.hexdigest(),
        "build_type": BUILD_TYPE,
        "compiler": compiler,
        "nproc": os.cpu_count(),
        "perf_event_paranoid": read_text(
            "/proc/sys/kernel/perf_event_paranoid"),
    }


def main():
    # On SIGTERM, exit through subprocess.run, which then kills and reaps
    # the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    root = pathlib.Path.cwd()
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / target / "perfbench").resolve()
    exe = build(root, build_dir)

    if args.selftest:
        sys.exit(subprocess.run([str(exe), "--selftest"], check=False,
                                timeout=RUN_TIMEOUT_S).returncode)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    json.loads(lines[-1])  # the result must be one JSON object
    info = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
        else:
            print(line)
    print("perfbench-stamp " + json.dumps({**stamp(root, build_dir), **info}))
    print(lines[-1])


if __name__ == "__main__":
    main()
