#!/usr/bin/env python3
"""Build parcfl and the benchmark program from source, then run one pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. dune's progress goes to stderr, so the
last line of stdout is pb's JSON result. The exit code is pb's:
non-zero on a build failure or any wrong answer.
"""
import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2",
         "bin/parcfl_cli.exe", "perfbench/pb.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # Replace this process, so a signal sent to the benchmark reaches pb,
    # which stops its servers before exiting.
    pb = "_build/default/perfbench/pb.exe"
    os.execv(pb, [pb] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
