#!/usr/bin/env python3
"""Build and run the Skueue benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Builds the `skueue-node` and `skueue-ctl` service binaries (the `tcp`
workload starts them as child processes) and the `perfbench` binary in
release mode, then runs `perfbench` with the given arguments.  The last line
of standard output is the JSON result; build output goes to standard error.
Cargo's target directory is `$CARGO_TARGET_DIR`, or `.bench_build` in the
checkout when that is unset.  A failed build or a failed run exits non-zero
without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generous: a run measures for --seconds (at most 60) plus set-up.
RUN_TIMEOUT_S = 170


def build(target_dir):
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "--bin", "skueue-node", "--bin", "skueue-ctl"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in commands:
        # Cargo's own output stays off standard output.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target_dir = os.path.abspath(os.path.join(ROOT, target_dir))
    if not build(target_dir):
        return 1
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--node-bin", os.path.join(release, "skueue-node"),
        "--ctl-bin", os.path.join(release, "skueue-ctl"),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    # Own process group, so a timeout or a signal to this script also stops
    # any daemon the run started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        sys.stderr.write("perfbench: run exceeded %d s and was stopped\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
