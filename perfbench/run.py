#!/usr/bin/env python3
"""Build and run Mumak's campaign benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--ops-scale <x>] [--perturb]

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls rebuild incrementally. The benchmark's temporary files and the
traced run's Chrome trace stay under that directory. The last line of
stdout is the benchmark's JSON result; build output goes to stderr.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark itself must end well inside three minutes; the first
# call's build comes on top of this.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run(command, env, limit_s):
    # A process group of its own, so a timeout can stop the fleet workers and
    # sandbox children along with the benchmark.
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             start_new_session=True)
    try:
        code = child.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit_s} s, stopped",
              file=sys.stderr)
        code = 1
    stop_group(child)
    return code


def stop_group(child):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops-scale", type=float, default=1.0)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Mumak sources (src/CMakeLists.txt) next to perfbench/")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    build(build_dir, env)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ops-scale", str(args.ops_scale),
               "--trace-out",
               os.path.join(trace_dir,
                            f"{args.workload}-seed{args.seed}.json")]
    if args.perturb:
        command.append("--perturb")
    sys.stdout.flush()
    code = run(command, env, RUN_LIMIT_S)
    for name in os.listdir(tmp_dir):
        os.remove(os.path.join(tmp_dir, name))
    sys.exit(code)


if __name__ == "__main__":
    main()
