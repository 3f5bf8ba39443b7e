#!/usr/bin/env python3
"""Build and run the end-to-end loopback benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload detect_cold_1c --seed 1 --seconds 20 --trace 0

Configures and builds the server binary (serve_cli) and the benchmark client
(cf_e2e_bench) from source into .bench_build/ (build output goes to stderr),
then runs the client with the same arguments. The client's last stdout line
is the JSON result. Exits non-zero without a result when the source tree is
missing, the build fails, or the run exceeds its time limit.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_LIMIT_S = 175


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "examples", "serve_cli.cpp"))):
        fail("the causalformer source tree is not next to the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "cf_e2e_bench",
           "serve_cli", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "cf_e2e_bench")


def main():
    binary = build()
    proc = subprocess.Popen([binary] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
