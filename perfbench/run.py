#!/usr/bin/env python3
"""Build and run the end-to-end load benchmark for `rpctl serve`.

Run from the repository root:

    python3 perfbench/run.py --workload count_hot --seed 1 --seconds 10 --trace 0

Builds the shipped `rpctl` from the repository's own manifest and the
benchmark package in this directory (both with `--release --offline`, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs one workload. Build
output goes to standard error; the last line of standard output is the JSON
result. Exits non-zero, printing no result, when either build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [os.path.join(root, "Cargo.toml"), "-p", "rp-experiments", "--bin", "rpctl"],
        [os.path.join(here, "Cargo.toml")],
    ]
    for manifest, *extra in builds:
        if not os.path.isfile(manifest):
            print(f"error: {manifest} not found; run from the repository root", file=sys.stderr)
            return 1
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        if subprocess.run(cmd + extra, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed", file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "rp-perfbench")
    rpctl = os.path.join(target, "release", "rpctl")
    work = os.path.join(root, ".bench_work")
    cmd = [bench, "--rpctl", rpctl, "--work", work] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
