#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

    python3 perfbench/run.py --workload scale-h256 --seed 1 --seconds 20 --trace 0

Run it from the repository root. The Go program in this directory is built
into the directory CARGO_TARGET_DIR names (default .bench_build), with the Go
build cache and every other file the toolchain writes kept inside it, and
then replaces this process; all arguments pass through to it. A directory
without the simulator's sources fails the build, and nothing is printed on
standard output.
"""

import os
import subprocess
import sys


def main():
    if not os.path.isfile("go.mod") or not os.path.isdir("internal"):
        sys.exit("perfbench: run from the repository root (go.mod and internal/ not found)")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "./perfbench"], env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    commit = "none"
    if os.path.isdir(".git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--commit", commit])


if __name__ == "__main__":
    main()
