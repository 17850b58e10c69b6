#!/usr/bin/env python3
"""Build the simulator and the perfbench binary from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr so the last
line of stdout is the binary's JSON result. A traced run also writes its
span tree to spans-<workload>.json in the build directory.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 175


def fail(msg, output=""):
    if output:
        sys.stderr.write(output)
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(1)


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd), proc.stdout)


def build(build_dir):
    # Configure unless a generated build exists; a failed configure
    # leaves a cache but no build files.
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", str(build_dir), "--target", "perfbench",
          "-j", BUILD_JOBS])


def main(argv):
    if "--workload" not in argv:
        fail("usage: run.py --workload NAME --seed N --seconds S "
             "--trace 0|1")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target / "perfbench").resolve()
    build(build_dir)

    cmd = [str(build_dir / "perfbench")] + argv
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        workload = argv[argv.index("--workload") + 1]
        cmd += ["--spans", str(build_dir / ("spans-%s.json" % workload))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
