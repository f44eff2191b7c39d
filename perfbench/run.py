#!/usr/bin/env python3
"""Build and run the emulator benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload zns_read --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library from src/) into .bench_build/perfbench
on first use, runs one workload, and passes the benchmark's report
through. The last stdout line is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1). On top of the in-run determinism check, the simulated digest
of every (binary, workload, seed) is recorded, and a later run of the
same binary that reports another digest is marked incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(BUILD, "digests.json")
WORKLOADS = ("zns_read", "zns_write_cut", "cache_zipf", "legacy_degraded")


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(OUT, "perfbench-build.log")
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(f"build step failed: {' '.join(step)}")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_digest(lines, workload, seed):
    """Compare the run's digest with the one recorded for this binary."""
    digest = None
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "digest" and parts[1] == workload \
                and parts[2] == str(seed):
            digest = parts[3]
    if digest is None:
        print("ERROR: the run printed no digest")
        return False
    records = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            records = json.load(f)
    key = f"{sha256(BINARY)}:{workload}:{seed}"
    if records.setdefault(key, digest) != digest:
        print(f"ERROR: digest {digest} differs from {records[key]} recorded by an "
              f"earlier run of this binary")
        return False
    with open(DIGESTS + ".tmp", "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
    os.replace(DIGESTS + ".tmp", DIGESTS)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        die("benchmark printed no result line")
    for line in lines[:-1]:
        print(line)
    if not check_digest(lines[:-1], args.workload, args.seed):
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
