#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 simbench/run.py --workload sm_bound --seed 1 --seconds 25 --trace 0

The script builds the Go program in simbench/ (a module of its own that
imports the simulator through a replace directive) into the build
directory, .bench_build or $CARGO_TARGET_DIR, with the Go build cache kept
there too, then runs it. The program prints a host-context line and, as the
last line of standard output, the JSON result. WORKLOADS.md describes the
workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Whole-run limit is 180 s once built; the first run of a checkout may also
# build the toolchain's standard library into the fresh cache.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "sim"))):
        print("simbench: run from the repository root: the simulator sources "
              "(go.mod, internal/sim) are not here", file=sys.stderr)
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    # Every directory the go command writes to stays in the build directory,
    # its telemetry and user config included.
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "simbench", "simbench")

    t0 = time.monotonic()
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"simbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return 1
    build_s = time.monotonic() - t0
    # A cached build takes a second or two and counts against the run
    # limit; a cold one is the first run of a checkout, which has longer.
    limit = RUN_LIMIT_S - build_s if build_s < 60 else RUN_LIMIT_S

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build_dir, "simbench")]
    try:
        return subprocess.run(cmd, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        print(f"simbench: run exceeded {limit:.0f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
