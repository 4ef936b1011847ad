#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), pins the
benchmark to one CPU, runs it, and checks that the metrics it printed are
exactly the ones BENCHMARK.json lists for the chosen trace mode. The last
line of standard output is the benchmark's JSON result; the exit code is
non-zero when the build, a correctness check or the metric check failed.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """Commit (when this is a git checkout) and a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return f"commit:{commit},tree:{digest.hexdigest()[:16]}"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}


def main():
    argv = sys.argv[1:]
    try:
        trace = argv[argv.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("--trace <0|1> is required")
    expected = expected_metrics(trace)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)

    # One fixed CPU: the lowest this process may use. Migration between
    # CPUs adds noise to host-clock metrics.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, *argv, "--out", out_dir, "--source", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit code {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        fail(f"unreadable result line: {e}")
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(got.items())}, "
             f"listed {sorted(expected.items())}")
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
