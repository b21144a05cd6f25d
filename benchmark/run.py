#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, then run one workload.

    python3 benchmark/run.py --workload W --seed S --seconds N --trace 0|1

Run it from the root of a checkout. The CMake build of benchmark/ (which
compiles ../src and ../tools into its own binaries) goes to the directory
named by $CARGO_TARGET_DIR, else .bench_build; the first run builds, later
runs only check that the build is current. Every argument is passed on to
the staleload_bench harness, which prints every metric and, as its last
line, one JSON result. A failed build exits 1 and prints no result.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    # Keep compiler temporaries inside the build directory too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "Makefile")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "staleload_bench"])
    log_path = os.path.join(build, "build.log")
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env)
            except OSError as error:
                print(f"run.py: cannot run {step[0]}: {error}", file=sys.stderr)
                return 1
            if done.returncode != 0:
                print(f"run.py: benchmark build failed; see {log_path}",
                      file=sys.stderr)
                return 1
    harness = os.path.join(build, "staleload_bench")
    sys.stdout.flush()
    # No python process stays between caller and harness.
    os.execv(harness, [harness] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
