#!/usr/bin/env python3
"""Runs one workload of the TIX serving benchmark (see README.md).

    python3 tixbench/run.py --workload scoped --seed 1 --seconds 30 --trace 0

Builds the benchmark from this checkout's sources (into .bench_build/, a
no-op when up to date), builds the shared corpus on first use, then runs
the workload. Build output goes to stderr. The last line of stdout is the
result JSON; the line before it is the provenance block.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tixbench"
DATA = ROOT / ".bench_build" / "tixbench-data"
WORKLOADS = ("scoped", "corpus", "churn")
# A run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"tixbench: {message}", file=sys.stderr)
    sys.exit(1)


def check(command, **kwargs):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            check=False, **kwargs)
    if result.returncode != 0:
        fail(f"{' '.join(map(str, command))} exited {result.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no TIX sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    check(["cmake", "--build", BUILD, "-j", "4"])
    return BUILD / "tixbench"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in ("src", "bench", "tixbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".cpp", ".h", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    check([binary, f"--data={DATA}", "--prepare"])
    try:
        result = subprocess.run(
            [binary, f"--data={DATA}", f"--workload={args.workload}",
             f"--seed={args.seed}", f"--seconds={args.seconds}",
             f"--trace={args.trace}"],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if result.returncode != 0 or len(lines) < 2:
        fail(f"run exited {result.returncode}")
    provenance = json.loads(lines[-2])
    provenance["provenance"]["commit"] = git_commit()
    provenance["provenance"]["source_sha256"] = source_digest()
    for line in lines[:-2]:
        print(line)
    print(json.dumps(provenance, sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
