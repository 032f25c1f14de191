#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload scene-seg --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which pulls in the library through the
repository's own CMakeLists.txt) into .perfbench_build/, then runs
the benchmark binary with the given arguments. Build output goes to
stderr; the binary's last stdout line is the JSON result. The exit
code is the binary's, or 2 when the library sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench_build")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: library sources not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr):
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    args = sys.argv[1:]
    trace_out = []
    if "--trace" in args and args[args.index("--trace") + 1:][:1] != ["0"]:
        trace_out = ["--trace-out", os.path.join(BUILD, "trace.json")]
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.call([binary, *args, "--workdir", workdir,
                            *trace_out])


if __name__ == "__main__":
    sys.exit(main())
