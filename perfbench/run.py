#!/usr/bin/env python3
"""Performance ledger of the subthreshold-FeFET CiM reproduction.

Builds perfbench_ledger (the libraries plus perfbench/ledger.cpp) from
source into .bench_build/ at the repository root, then runs it. Run from the
repository root:

  python3 perfbench/run.py --workload {mc_fig9|vgg_clean|vgg_noisy} \
      --seed N --seconds S --trace {0|1}
  python3 perfbench/run.py --selftest           # 1 vs T thread ledgers
  python3 perfbench/run.py --write-reference    # re-pin reference.json

The last stdout line of a workload run is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_ledger")
REFERENCE = os.path.join(HERE, "reference.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then build incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = BUILD + ".log"
    stamp = os.path.join(BUILD, "configured.stamp")
    steps = []
    if not os.path.exists(stamp):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_ledger",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(2)
            if cmd[1] == "-S":
                open(stamp, "w").close()


def revision():
    """Git revision when available, plus a digest of the built sources."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "git:%s,sources:%s" % (git, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.selftest:
        sys.exit(subprocess.run([BINARY, "--selftest"]).returncode)
    if args.write_reference:
        sys.exit(subprocess.run([BINARY, "--write-reference", REFERENCE]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--reference", REFERENCE, "--revision", revision()],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        sys.stderr.write("perfbench: malformed result line\n")
        sys.exit(3)


if __name__ == "__main__":
    main()
