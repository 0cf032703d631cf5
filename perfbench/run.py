#!/usr/bin/env python3
"""Build the replay benchmark and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fleet-rr --seed 1 --seconds 30 --trace 0

Builds `perfbench/` (a Cargo package of its own, path-depending on the
repository's crates) into `$CARGO_TARGET_DIR` (default `.bench_build`),
prints a host and build stamp, runs the benchmark binary and relays its
output. The last line of standard output is the JSON result
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
traced replay's spans are written to
`$CARGO_TARGET_DIR/perfbench/spans-<workload>.tsv`.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# A run measures for --seconds; this bounds a hung one.
RUN_TIMEOUT_S = 170


def run_text(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    top = run_text(["git", "rev-parse", "--show-toplevel"])
    if top is None or pathlib.Path(top).resolve() != ROOT:
        return None
    return run_text(["git", "rev-parse", "HEAD"])


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        base = ROOT / top
        if base.is_dir():
            files += sorted(
                p
                for p in base.rglob("*")
                if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".csv", ".py")
            )
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": run_text(["rustc", "--version"]) or "unknown",
        "git_revision": git_revision() or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print("stamp " + json.dumps(stamp(args), sort_keys=True), flush=True)
    cmd = [
        str(target / "release" / "cpo-perfbench"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        args.trace,
    ]
    if args.trace == "1":
        spans = target / "perfbench" / f"spans-{args.workload}.tsv"
        cmd += ["--spans-out", str(spans)]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
