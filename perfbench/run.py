#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig9|serve|memshare --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (the first run compiles
the simulator; later runs reuse _build), then runs it with the same
arguments. The benchmark writes its scratch files (the serve journal and
session log) under perfbench/out/. The last line of standard output is the
JSON result; the exit code is the benchmark's (0 = every check passed).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (no dune-project or lib/ here)", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
             "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e, 3)
    if build.returncode != 0:
        fail("build failed", 3)
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        run = subprocess.run([exe] + sys.argv[1:] + ["--out", out_dir], cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
