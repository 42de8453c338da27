#!/usr/bin/env python3
"""PowerViz end-to-end benchmark.

    python3 perfbench/run.py --workload sweep-cold --seed 7 --seconds 10 --trace 0

Run from the root of a PowerViz checkout.  Builds the benchmark package
(perfbench/CMakeLists.txt, which builds the repository's libraries and
powerviz_serve from source) into .bench_build on first use, then runs one
workload.  The last stdout line is the result JSON; traces of --trace 1
runs land in .bench_out/.  See perfbench/README.md.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log is not None and log.exists():
        print(log.read_text(errors="replace")[-4000:], file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            configured = subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)],
                stdout=out, stderr=subprocess.STDOUT)
            if configured.returncode != 0:
                fail("configuring the benchmark failed", log)
        built = subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
            stdout=out, stderr=subprocess.STDOUT)
    if built.returncode != 0:
        fail("building the benchmark failed", log)


def source_fingerprint():
    """The git commit when there is one, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no PowerViz sources next to {Path(__file__).parent}")
    build()
    OUT.mkdir(exist_ok=True)
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(OUT),
               "--commit", source_fingerprint()]
    # A process group of its own, so a run that overstays can be stopped with
    # every server and pass process it started.
    bench = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        os.killpg(bench.pid, signal.SIGKILL)  # anything left behind
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
