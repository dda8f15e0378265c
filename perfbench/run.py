#!/usr/bin/env python3
"""Builds the repository from source and runs its benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Builds the `manet` binary (the jobs server the `jobs_mix` workload
drives) and the `manet-perfbench` binary into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark with the given
arguments. The last line of standard output is the JSON result; build
output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checked-out commit, when the repository is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print(f"perfbench: no repository at {ROOT} (missing Cargo.toml)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["--manifest-path", root_manifest, "--bin", "manet"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for build in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *build]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "manet-perfbench"),
        *sys.argv[1:],
        "--manet",
        os.path.join(release, "manet"),
        "--commit",
        commit(),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
