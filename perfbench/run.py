#!/usr/bin/env python3
"""Campaign benchmark: builds the driver from source, then runs one workload.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
repository's libraries and the driver under .bench_build/; later runs only
check that the build is current. The last line of standard output is the
result object (see perfbench/README.md); build output goes to standard error.
Extra flags --smoke, --damage-journal {truncate,corrupt} and
--write-reference are passed to the driver.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
PHIFI_BUILD = os.path.join(BUILD, "phifi")
DRIVER_BUILD = os.path.join(BUILD, "perfbench")
DRIVER = os.path.join(DRIVER_BUILD, "perfbench_driver")
# Library targets the driver links (the driver's CMakeLists.txt names the
# archives); phifi_cli depends on all of them.
LIBRARY_TARGET = "phifi_cli"
# The driver bounds its own run; this only stops a wedged one.
RUN_TIMEOUT_S = 170


def run_build_step(cmd):
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(ROOT, PHIFI_BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", ".", "-B", PHIFI_BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_build_step(["cmake", "--build", PHIFI_BUILD, "--target",
                    LIBRARY_TARGET, "-j", jobs])
    if not os.path.exists(os.path.join(ROOT, DRIVER_BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", "perfbench", "-B", DRIVER_BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        "-DPHIFI_BUILD=" + PHIFI_BUILD])
    run_build_step(["cmake", "--build", DRIVER_BUILD, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--damage-journal", choices=("truncate", "corrupt"))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no phifi sources next to perfbench/", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join("perfbench", "reference.json"),
           "--run-dir", os.path.join(BUILD, "runs")]
    if args.smoke:
        cmd.append("--smoke")
    if args.damage_journal:
        cmd += ["--damage-journal", args.damage_journal]
    if args.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    # Its own session, so a timeout can stop the driver together with every
    # trial child and fabric worker it forked.
    driver = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return driver.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
