#!/usr/bin/env python3
"""The repository benchmark: builds the compiler and simulator in Release and
runs perfbench's workloads (see perfbench/README.md).

    python3 perfbench/run.py --workload swe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # the four workloads in turn
    python3 perfbench/run.py --smoke            # every workload, small, with
                                                # the negative case

Run it from the repository root. The build tree is $CARGO_TARGET_DIR (default
.bench_build) under the root; result reports are written to .bench_results/.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["swe", "relax-ckpt", "corpus", "serve"]
# A run measures for --seconds plus set-up and checks; anything near the
# 180 s limit means the benchmark itself is broken.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark (and the repository's libraries)
    in Release; returns the executable's path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "f90y_perfbench",
                 "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 1)
    return os.path.join(out, "f90y_perfbench")


def source_stamp():
    """The git commit when there is one, and always a digest of the sources
    the benchmark builds and reads."""
    sha = "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("examples", "programs")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()


def compiler_path():
    cache = os.path.join(build_dir(), "perfbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(exe, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark executable; returns (report lines, stamp, result)
    or exits without a result on any failure."""
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", work,
           "--repo-root", ROOT] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload, 1)
    stamp = {}
    report = []
    for line in lines[:-1]:
        if line.startswith("STAMP "):
            stamp = json.loads(line[len("STAMP "):])
        else:
            report.append(line)
    return report, stamp, result


def measure(args):
    exe = build()
    sha, digest = source_stamp()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in names:
        report, stamp, result = run_once(exe, workload, args.seed,
                                         args.seconds, args.trace)
        stamp.update({"git_sha": sha, "source_sha256": digest,
                      "compiler_path": compiler_path(), "workload": workload,
                      "seconds": args.seconds, "trace": args.trace,
                      "utc": datetime.datetime.now(datetime.timezone.utc)
                      .strftime("%Y-%m-%dT%H:%M:%SZ")})
        out_dir = os.path.join(ROOT, ".bench_results")
        os.makedirs(out_dir, exist_ok=True)
        name = "%s-seed%d-trace%d-%s.json" % (workload, args.seed, args.trace,
                                              stamp["utc"].replace(":", ""))
        path = os.path.join(out_dir, name)
        with open(path, "w") as f:
            json.dump({"stamp": stamp, "report": report, "result": result}, f,
                      indent=1)
        for line in report:
            print(line)
        print("stamp " + json.dumps(stamp, sort_keys=True))
        print("results written to " + os.path.relpath(path, ROOT))
        results[workload] = result
    # One workload: its result object; all: one object per workload.
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


def smoke(args):
    """Every workload at small sizes with all its checks, traced and not;
    then the negative case: a perturbed reference must make each workload
    report failed operations and an incorrect result."""
    exe = build()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            _, _, r = run_once(exe, w, args.seed, 1, trace, ["--smoke"])
            print("smoke %-10s trace %d: correct %s attempted %d failed %d"
                  % (w, trace, r["correct"], r["attempted"], r["failed"]))
            if not r["correct"]:
                problems.append("%s (trace %d) is not correct" % (w, trace))
        _, _, r = run_once(exe, w, args.seed, 1, 0, ["--smoke", "--perturb"])
        print("negative %-10s: correct %s attempted %d failed %d"
              % (w, r["correct"], r["attempted"], r["failed"]))
        if r["correct"] or r["failed"] == 0:
            problems.append("%s: a perturbed reference went unnoticed" % w)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "examples", "programs")):
        fail("the repository sources (src/, examples/programs/) are missing")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds between 1 and 3600")
    if args.smoke:
        smoke(args)
    elif not args.workload:
        fail("--workload is required (or --smoke)")
    else:
        measure(args)


if __name__ == "__main__":
    main()
