#!/usr/bin/env python3
"""Build the service benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload write_chain --seed 1 --seconds 10 --trace 0

The build goes through dune (shared cache off, so nothing is written
outside the checkout); build output goes to stderr, and the benchmark's
own output, ending in one JSON line, to stdout.
"""
import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    # Flush dirty pages (the build's output, an earlier run's trace) first:
    # their writeback would otherwise compete with the replicas' fsyncs.
    os.sync()
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
