"""Peak memory and wall time of one experiment run on an N-app records
corpus, so that two trees can be compared on the same corpus.

    python3 tools/peak.py TREE APPS [--repeats K]

TREE is a checkout of this repository, and its `src` is the code that
runs. The corpus and its config are the benchmark's experiment-records
inputs (`bench/gen.py`, full profile, seed 0) with `corpus_apps` set to
APPS. They are written once per APPS under the git-ignored `tools/.peak/`
of the repository that holds this script, so every tree reads the same
files; delete that directory to write them again.

Each of the K measurements is one fresh Python process, pinned to one CPU
with BLAS at one thread, that loads the corpus and calls `run_one` for
run index 0. It prints one line:

  load_peak_mb   the process's peak RSS once the corpus is loaded
  load_s         the wall time of `load_records` on the corpus
  run_peak_mb    its peak RSS once `run_one` has returned
  run_s          the wall time of `run_one`

The peaks are the kernel's VmHWM of the process, which starts afresh at
exec, so nothing this script allocated (the corpus generator) counts.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "tools" / ".peak"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def corpus(apps: int) -> Path:
    """The config of the APPS-app corpus, written on first use. The
    config names its corpus relative to the repository root."""
    out = CORPORA / f"apps-{apps}"
    config = out / "experiment.cfg"
    if not config.exists():  # the generator writes the config last
        sys.path.insert(0, str(ROOT / "bench"))
        from gen import PROFILES, _experiment_records

        out.mkdir(parents=True, exist_ok=True)
        _experiment_records(out, 0, {**PROFILES["full"], "corpus_apps": apps}, out)
    return config


def peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def measure(tree: str, config_path: str) -> None:
    """In the fresh process: load, run, print the line."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(tree) / "src"))
    from malsieve import experiment, records

    if not Path(experiment.__file__).is_relative_to(Path(tree) / "src"):
        sys.exit(f"malsieve was imported from {experiment.__file__}, not from {tree}/src")
    config = experiment.parse_config(Path(config_path).read_text(encoding="utf-8"))
    start = perf_counter()
    source = records.load_records(config.dataset)
    load_s = perf_counter() - start
    load_peak = peak_mb()
    start = perf_counter()
    experiment.run_one(source, config, 0)
    run_s = perf_counter() - start
    print(f"apps={len(source)} load_peak_mb={load_peak:.1f} load_s={load_s:.3f} "
          f"run_peak_mb={peak_mb():.1f} run_s={run_s:.2f}")


def main() -> int:
    if sys.argv[1:2] == ["--measure"]:
        measure(sys.argv[2], sys.argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("apps", type=int)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()
    config = corpus(args.apps)
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    for _ in range(args.repeats):
        subprocess.run([sys.executable, __file__, "--measure", str(args.tree.resolve()),
                        str(config)], cwd=ROOT, env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
