#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one invocation.

Run from the root of the repository:

    python3 perfbench/run.py --workload p2p-java --seed 1 --seconds 10 --trace 0

The Go toolchain builds perfbench/ (its own module, which uses the
repository's packages through a replace directive) into .bench_build/,
with the build cache kept there too. The benchmark's output passes
through unchanged; its last line is the JSON result. A traced run
(--trace 1) also writes its spans to .bench_build/spans/.
"""

import os
import subprocess
import sys

# The benchmark bounds its own run time; this only stops a hung child.
CHILD_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", exe, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    child = subprocess.Popen([exe] + sys.argv[1:], env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
