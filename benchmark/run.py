#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Cargo output goes to stderr; the last
line of stdout is the result object. Builds into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root) and keeps its scratch stores
under <target>/bench-work.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The slowest run, a traced serve_ingest, takes about 60 s; the build is
# not counted.
RUN_TIMEOUT_S = 170


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, BENCH_GIT_COMMIT=git_commit())
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "telco-pipeline-bench")
    work_dir = os.path.join(target, "bench-work")
    # A session of its own, so a timeout stops the measuring children and
    # shard workers too, not only the top process.
    run = subprocess.Popen([exe, *sys.argv[1:], "--work-dir", work_dir], env=env, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
