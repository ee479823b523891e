#!/usr/bin/env python3
"""Builds the EEVFS benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <paper-grid|sim-replay|loopback> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` under the
checkout) and its output to standard error, so the benchmark's JSON
result stays the last line of standard output. Exits non-zero, without a
result, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "eevfs-perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    return subprocess.run([exe, *sys.argv[1:], "--scratch", scratch], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
