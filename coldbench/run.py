#!/usr/bin/env python3
"""Build the coldbench benchmark from source and run one workload.

Run from the root of a checkout:

    python3 coldbench/run.py --workload cold_grid --seed 1 --seconds 20 --trace 0

The Go toolchain's caches, the binary and the full result records all live
under .bench_build/ in the checkout, so nothing outside it is read or
written apart from the toolchain itself. Arguments pass through to the
binary; its exit code is this script's exit code. A failed build exits 1
without printing a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840  # a first build compiles the standard library too
RUN_TIMEOUT_S = 175


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    return os.path.join(goroot, "bin", "go")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": os.path.join("home", ".config"),
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # Build only from the checkout: no toolchain switch, no module proxy,
    # no workspace, no telemetry upload.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="-mod=readonly", GOTELEMETRY="off")
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "coldbench-bin")
    try:
        build = subprocess.run([go_binary(), "build", "-o", binary, "."],
                               cwd=os.path.join(ROOT, "coldbench"), env=env,
                               stdout=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"coldbench: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("coldbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--out", os.path.join(BUILD, "coldbench")]
    try:
        run = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"coldbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
