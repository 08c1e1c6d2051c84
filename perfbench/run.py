#!/usr/bin/env python3
"""Build the simulator and run its benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record

The first form builds wnbench (Release) under .bench_build/perfbench,
runs one workload and prints the result as the last stdout line.
--self-test checks the benchmark itself on a 4x4 torus. --record
rewrites perfbench/reference.txt, the committed digests every run is
checked against; use it only when a change is meant to alter simulated
results.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "wnbench"
REFERENCE = HERE / "reference.txt"
# Seeds whose full-run digests are committed, together with the seeds
# a workload derives from each. 9001 is the held-out seed a performance
# claim must also hold on (see README.md).
RECORDED_SEEDS = list(range(0, 21)) + [9001]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "wnbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                               text=True)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def source_fingerprint():
    """(git sha or "none", sha256 over every file under src/)."""
    sha = "none"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if p.returncode == 0:
            sha = p.stdout.strip()
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return sha, h.hexdigest()


def wnbench(args, env=None):
    return subprocess.run([str(BINARY)] + args, cwd=ROOT,
                          capture_output=True, text=True, env=env)


def run(workload, seed, seconds, trace):
    sha, src = source_fingerprint()
    p = wnbench(["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--reference", str(REFERENCE), "--git-sha", sha,
                 "--src-hash", src])
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        sys.exit(p.returncode)
    sys.stdout.write(p.stdout)


def result_of(p):
    """The JSON result on the last stdout line of a wnbench run."""
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        p = wnbench(["--workload", "selftest", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace),
                     "--reference", str(REFERENCE)])
        res = result_of(p)
        if res is None:
            problems.append(f"trace {trace}: no result\n{p.stderr}")
            continue
        # A traced unit fails unless its Network::run spans plus the
        # oracle sweeps cover the measured loop's wall time, so correct
        # also covers that check.
        if not res["correct"] or res["failed"] != 0:
            problems.append(f"trace {trace}: checks failed\n{p.stderr}")
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v.get("unit") for k, v in res["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics {got} != {group} "
                            f"{want}")
        for k, v in res["metrics"].items():
            if not isinstance(v.get("value"), (int, float)):
                problems.append(f"trace {trace}: {k} has no number")
    for var in ("WORMNET_JOBS", "WORMNET_SIM_JOBS",
                "WORMNET_CHECK_ACTIVE_SETS", "WORMNET_CHECK_SOA",
                "WORMNET_CRASH_AFTER_CELLS"):
        env = dict(os.environ, **{var: "2"})
        p = wnbench(["--workload", "selftest", "--seed", "1",
                     "--seconds", "1", "--trace", "0",
                     "--reference", str(REFERENCE)], env)
        if p.returncode == 0 or p.stdout.strip():
            problems.append(f"ran with {var} set")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        fail("self-test FAILED")
    print("self-test passed", file=sys.stderr)


def record():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + ["selftest"]
    jobs = [(name, seed) for name in names for seed in RECORDED_SEEDS]

    def one(job):
        name, seed = job
        p = wnbench(["--workload", name, "--seed", str(seed), "--record"])
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            fail(f"recording {name} seed {seed} failed")
        print(f"recorded {name} seed {seed}", file=sys.stderr)
        return p.stdout.splitlines()

    # Digests do not depend on timing, so record several at once.
    lines = []
    with ThreadPoolExecutor(min(os.cpu_count() or 1, 4)) as pool:
        for out in pool.map(one, jobs):
            lines += [line for line in out if line not in lines]
    REFERENCE.write_text(
        "# <workload> <anchor|full> <seed> <digest>, written by\n"
        "# python3 perfbench/run.py --record\n" + "\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not (a.self_test or a.record or a.workload):
        ap.error("--workload, --self-test or --record is required")
    build()
    if a.self_test:
        self_test()
    elif a.record:
        record()
    else:
        run(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
