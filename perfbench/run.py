#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
                             [--smoke] [--inject <gate>]

Builds the `ips` binary from the repository's own workspace and the harness
package in this directory (into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the harness, whose last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero, printing no result, when
the build fails or the checkout has no repository to build.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Hard limit on one harness run; a run takes well under a minute.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def commit_id():
    """The checkout's commit, or `unknown` when it is not a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    for required in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"no {required} at {ROOT}: nothing to build")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo_build(["-p", "ips-cli", "--bin", "ips"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--ips",
        os.path.join(target, "release", "ips"),
        "--out",
        os.path.join(HERE, "out"),
        "--commit",
        commit_id(),
    ]
    # A session of its own, so a timeout stops the harness and every
    # `ips` process it started.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
