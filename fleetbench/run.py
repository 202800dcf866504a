#!/usr/bin/env python3
"""Fleet attestation benchmark entry point.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (fleetbench/,
compiling ../src) into $CARGO_TARGET_DIR/fleetbench, or
.bench_build/fleetbench when that variable is unset, then runs one
measurement. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
host metadata, workload descriptors and verdict-check detail.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sensor-fleet", "idle-poll", "replay-long")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"fleetbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the package; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "fleetbench")


def source_id():
    """The git commit when there is one, and always a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    return f"git={git},src_sha256={digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not os.path.isfile(os.path.join(ROOT, "src", "fleet", "partition.h")):
        log(f"library sources not found under {ROOT}/src")
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "fleetbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    state_root = os.path.join(build_root, "state", str(os.getpid()))
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-root", state_root, "--source-id", source_id(),
           "--spans-out", os.path.join(spans_dir, args.workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"fleetbench exited with {proc.returncode}")
        return proc.returncode
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
