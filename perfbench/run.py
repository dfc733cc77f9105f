#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The bevr library (../src) and the benchmark binary are configured and
built on first use into .bench_build/perfbench (later runs rebuild only
what changed). The binary's last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Traced runs also write a
Chrome trace-event file under .bench_out/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("analytic_sweeps", "event_replay", "registry_parallel",
             "service_closed_loop")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
# A registry_parallel run spends about 13 s outside its timed loop (cold
# pass, 1-thread reference pass) and may overrun by half a pass, so the
# longest accepted run still ends well inside RUN_TIMEOUT_S.
MAX_SECONDS = 120


def build():
    """Configure (once) and build; exit 2 with the log tail on failure."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "bevr_perfbench", "perfbench_selftest"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic())
                                      ).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                code, log_note = -1, str(error)
                log.write(log_note + "\n")
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.read()[-4000:]
                sys.stderr.write(tail + "\nperfbench: build failed (%s)\n"
                                 % " ".join(step))
                sys.exit(2)


def run_child(argv, timeout):
    """Run a built binary; kill it (and wait) if it overruns."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % os.path.basename(argv[0]))
        sys.exit(3)
    return child.returncode, out.decode()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the checks' own tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in [1, %d]"
                     % MAX_SECONDS)

    build()
    if args.self_test:
        code, out = run_child([os.path.join(BUILD, "perfbench_selftest")],
                              RUN_TIMEOUT_S)
        sys.stdout.write(out)
        return code

    argv = [os.path.join(BUILD, "bevr_perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-out", os.path.join(
                OUT, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    # Set-up time is measured from here: bevr_perfbench's clock is the same
    # CLOCK_MONOTONIC as time.monotonic_ns().
    argv += ["--start-ns", str(time.monotonic_ns())]
    code, out = run_child(argv, RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
