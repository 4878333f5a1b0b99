#!/usr/bin/env python3
"""Build the benchmark and the ppr CLI from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 20 --trace 0

Every argument is passed through to perfbench/ppr_bench.exe (see
perfbench/README.md). The build goes to _build/, with dune's shared cache
off and the compilers' temporary files under .perfbench/tmp, so nothing is
written outside the checkout. Build output goes to
stderr; the benchmark's last line of stdout is its JSON result.
"""

import os
import subprocess
import sys

TARGETS = ["./perfbench/ppr_bench.exe", "./bin/ppr.exe"]


def main():
    # The compilers' temporary files stay inside the checkout too.
    tmp = os.path.join(os.getcwd(), ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", *TARGETS],
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    exe = os.path.join("_build", "default", "perfbench", "ppr_bench.exe")
    ppr = os.path.join("_build", "default", "bin", "ppr.exe")
    return subprocess.run([exe, *sys.argv[1:], "--ppr", ppr]).returncode


if __name__ == "__main__":
    sys.exit(main())
