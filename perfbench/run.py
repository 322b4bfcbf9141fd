#!/usr/bin/env python3
"""Builds and runs the serving benchmark from a source checkout.

Usage (from the repository root):

    python3 perfbench/run.py --workload azure-fleet --seed 1 --seconds 10 --trace 0

The first call configures and compiles the library sources under src/ plus
the benchmark into the build directory ($CARGO_TARGET_DIR, default
.bench_build) with CMake; later calls only re-check the build. Build output
goes to stderr; the benchmark's last stdout line is its JSON result. The
exit code is the benchmark's (0 only when every output check passed).
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isdir(os.path.join(ROOT, "src", "rs")):
        fail("no library sources under src/rs; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_root, exist_ok=True)
    build_dir = os.path.join(build_root, "perfbench")
    # One build at a time per checkout, even if runs start concurrently.
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        if subprocess.call(["cmake", "--build", build_dir, "--parallel", "4"],
                           stdout=sys.stderr) != 0:
            fail("build failed")
    binary = os.path.join(build_dir, "rs_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no rs_perfbench binary")
    return binary


def main():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    cmd = [binary] + sys.argv[1:] + ["--out-dir",
                                      os.path.join(build_root, "run")]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
