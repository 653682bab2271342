#!/usr/bin/env python3
"""Builds and runs the end-to-end message benchmark.

Run from the root of a checkout of the repository:

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The first run configures and builds e2ebench/ (which compiles the
repository's src/ libraries) into $CARGO_TARGET_DIR or .bench_build; later
runs only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, if the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(step))


def git_provenance():
    """(commit, dirty) of the checkout, or 'unknown' outside git."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"
    if commit.returncode != 0 or status.returncode != 0:
        return "unknown", "unknown"
    return commit.stdout.strip(), "1" if status.stdout.strip() else "0"


def source_digest():
    """SHA-256 over the program sources, so a result identifies its code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "drain", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root (src/ not found)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "e2ebench")
    build(build_dir)

    commit, dirty = git_provenance()
    command = [
        os.path.join(build_dir, "e2e_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(ROOT, ".bench_work"),
        "--git-commit", commit,
        "--git-dirty", dirty,
        "--source-digest", source_digest(),
    ]
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(completed.stdout.decode())
    sys.stdout.flush()
    if completed.returncode != 0:
        fail("benchmark exited with code %d" % completed.returncode)


if __name__ == "__main__":
    main()
