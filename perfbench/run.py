#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. It builds the program's
libraries and the benchmark binary from source into `.bench_build/`
(CMake, Release; the first run builds, later runs are incremental no-ops),
runs the workload in a fresh scratch directory under `.bench_build/runs/`
(the pretrained-LM cache goes there, so pretraining always runs) and
removes that directory afterwards. Build output goes to stderr; the last
line of stdout is the result JSON printed by the binary.

Exit codes: the binary's (0 = ran and every correctness check passed,
1 = a correctness check failed, 2 = refused or bad arguments, 3 = the load
generator fell behind); 2 when the checkout holds no program to build.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dader_perfbench")
WORKLOADS = ("serve_open", "dedup_e2e", "block_scale", "da_train")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def source_id():
    """git sha of the checkout when it is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if sha.returncode == 0:
            return sha.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark binary; returns success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src: nothing to benchmark")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "dader_perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return False
    return os.path.isfile(BINARY)


def run(args, extra):
    runs_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--git_sha", source_id()] + extra
    env = dict(os.environ, DADER_CACHE_DIR=scratch)
    try:
        done = subprocess.run(command, env=env, cwd=scratch,
                              timeout=RUN_TIMEOUT_S, check=False)
        return done.returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    args = parser.parse_args()
    if not build():
        return 2
    sys.stdout.flush()
    return run(args, ["--tiny", "1"] if args.tiny else [])


if __name__ == "__main__":
    sys.exit(main())
