#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper22 --seed 1 --seconds 10 --trace 0

Run from the repository root. The build (Release, libraries from src/ plus
perfbench/*.cc) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build output goes
to stderr, so the benchmark's last stdout line stays its JSON result. Exits
nonzero, printing no result, when the sources are missing or do not build.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no anduril sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        cache.unlink()  # configured for another checkout
    steps = [["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]]
    if not cache.is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        steps.insert(0, configure)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")
    work_dir = target / "perfbench-run"
    args = [str(binary), *sys.argv[1:], "--work-dir", str(work_dir)]
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
