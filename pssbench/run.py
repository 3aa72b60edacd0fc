#!/usr/bin/env python3
"""Build and run the peer sampling service benchmark.

    python3 pssbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pssbench/run.py --smoke        # tiny-size smoke test (ctest)

Run from the root of a source tree. The first call configures and builds
the library and the benchmark (Release) under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild only what changed. All other arguments
go to the benchmark binary, whose last output line is the result object.
Exits non-zero, without a result, when the tree holds no library sources
or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"pssbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no library sources next to {HERE}; nothing to benchmark")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"],
                          stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def main(argv):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "pssbench")
    if not build(build_dir):
        return 2
    if argv == ["--smoke"]:
        return subprocess.run(["ctest", "--test-dir", build_dir,
                               "--output-on-failure"]).returncode
    binary = os.path.join(build_dir, "pssbench")
    return subprocess.run([binary, "--git", git_describe()] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
