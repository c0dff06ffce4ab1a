#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <table1_generate|coverage_sweep|
        matrix_store> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout: it configures and builds a Release
copy of the library plus the perfbench program under .bench_build/perfbench
(build output goes to stderr), then runs the program with the given options.
Its last line on stdout is the JSON result; see perfbench/README.md.
"""

import os
import signal
import subprocess
import sys


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    return code


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        return fail("no library sources (CMakeLists.txt, src/) in " + root, 2)

    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return fail("build step failed: " + " ".join(step), 1)

    # Stop the program, and wait for it, if this script is told to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = subprocess.Popen([os.path.join(build, "perfbench"), *sys.argv[1:]],
                             cwd=root)
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.terminate()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
