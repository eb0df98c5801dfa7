"""malsieve benchmark: experiment runs, APK scans and batch prediction.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --generate-only --workload W --seed N
    python3 bench/run.py --self-check

A run first writes the workload's inputs for the seed (once; later runs
with that seed reuse them), then measures the workload in a fresh
process with BLAS and OpenMP held to one thread, and prints the result
as one JSON object on the last line of stdout. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The whole
result, with machine information, is also kept under bench/.results/.

--self-check runs every workload at tiny sizes, untraced and traced,
with every check on, and fails unless both runs are correct and give
identical outputs. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
RESULTS = BENCH / ".results"
WORK = BENCH / ".work"
WORKLOADS = ("experiment-records", "apk-scan", "predict-records")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    # keep git from finding a repository in a directory above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine(child: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child.get("blas_threads"),
        "thread_env": {name: child_env()[name] for name in THREAD_VARIABLES},
        "commit": commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: int, profile: str) -> dict:
    """Write the inputs, run the workload in a child process and return
    its result with machine information added."""
    import gen

    inputs = gen.generate(workload, seed, profile)
    RESULTS.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tag = f"{workload}-{profile}-s{seed}-trace{trace}"
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--profile", profile,
        "--inputs", str(inputs), "--work", str(work),
    ]
    if trace:
        cmd += ["--trace-out", str(RESULTS / f"spans-{workload}-{profile}.jsonl")]
    # a run finishes the round it is in, and an experiment round takes ~16 s
    timeout = 3 * seconds + 150
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["machine"] = machine(result)
    result["workload"], result["seed"], result["seconds"] = workload, seed, seconds
    result["trace"], result["profile"] = trace, profile
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def summary_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if result["trace"] else result["end_to_end"],
    }


def self_check() -> int:
    """Every workload at tiny sizes, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        plain = measure(workload, 0, 0, 0, "tiny")
        traced = measure(workload, 0, 0, 1, "tiny")
        problems = [f"trace {r['trace']}: {r['error']}" for r in (plain, traced) if not r["correct"]]
        if plain["output_sha256"] != traced["output_sha256"]:
            problems.append("traced run gave different outputs")
        if plain["failed"] or traced["failed"]:
            problems.append("failed operations")
        status = "ok" if not problems else "FAILED " + "; ".join(problems)
        print(f"self-check {workload}: {status} ({time.perf_counter() - t0:.1f} s)")
        ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate-only", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.generate_only:
        import gen

        print(gen.generate(args.workload, args.seed, "full"))
        return 0

    result = measure(args.workload, args.seed, args.seconds, args.trace, "full")
    print("machine " + json.dumps(result["machine"]))
    if not result["correct"]:
        print(f"bench: check failed: {result['error']}", file=sys.stderr)
    print(json.dumps(summary_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
