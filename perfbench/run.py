#!/usr/bin/env python3
"""End-to-end federated-learning round benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark
from source into .bench_build/ (incremental after the first run), runs the
benchmark's self-test, then runs one measurement. Build output goes to
stderr; the last stdout line is the result JSON
{"correct", "attempted", "failed", "metrics"}.

Exits non-zero without printing a result when the sources are missing or
the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("mlp_labelflip60", "cnn_gaussian", "mlp_subsampled_durable")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    """The environment for every child: temporary files stay inside the
    checkout."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def run_logged(cmd):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found at %s" % (ROOT / "src"))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs]) != 0:
        fail("build failed")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    every file the benchmark builds from."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    # A failed self-test (which also compares the traced replay with Run()
    # on a small workload) does not stop the run: fl_bench reports it as a
    # failed check, so a defect in the program still yields a result.
    selftest_ok = run_logged([str(BUILD_DIR / "fl_bench_selftest")]) == 0
    cmd = [str(BUILD_DIR / "fl_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR), "--commit", source_id(),
           "--selftest", "pass" if selftest_ok else "fail"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("fl_bench exited with %d" % proc.returncode, code=1)


if __name__ == "__main__":
    main()
