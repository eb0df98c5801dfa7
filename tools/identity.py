"""Write every artifact one source tree produces on the benchmark's seed-3
inputs, so that two trees can be checked for byte-identical outputs.

    python3 tools/identity.py TREE_A OUT_A
    python3 tools/identity.py TREE_B OUT_B
    diff -r OUT_A OUT_B

TREE is a checkout of this repository, and its `src` is the code that
runs. The inputs are the ones `python3 bench/run.py --generate-only
--workload W --seed 3` writes. The bench of the repository that holds
this script makes them on its first run, so every tree reads the same
files; run the trees one after the other. OUT must not exist yet. It
gets:

  experiment-records/run-6.report, run-7.report
      the `run_one` reports of the experiment-records corpus
  experiment-records/run-6.noise-test.report
      run 6 again with noise_test=true, so the test split is noised too
  experiment-records/run-6.no-noise.report
      run 6 again with noise_fraction=0, so no split is noised
  experiment-records/corpus.svm, dataset.cfg, run-0.dataset.report
      the corpus vectorized under the config's vocabulary keys, and run 0
      of `malsieve experiment` on the config with `dataset=corpus.svm`
      and `repeats=1`: a dataset file as the source, where the runs
      above take the records
  experiment-records/run-0.dataset.noise-test.report
      that run 0 again with noise_test=true, so a dataset source's test
      split is noised too
  experiment-records/bad-prefix.err
      the exit code and stderr of `malsieve vectorize` on a copy of the
      corpus whose last line's last name has lost its prefix, a name no
      earlier line holds: the error path of a corpus read
  default.cfg
      the output of `malsieve experiment --print-default-config`
  synthetic/report.txt
      `malsieve experiment` on configs/synthetic-benchmark.cfg, 2 repeats
  predict-records/, apk-scan/
      the CLI chain of each workload: the extracted records and extract
      logs (apk-scan only; they name each APK relative to the inputs
      directory), vocabulary, dataset, every pool file, selection, GA
      report, evaluate lines (evaluate.txt with the selection,
      evaluate-all.txt without it, so every learner votes) and predictions
  apk-scan-linear/
      the apk-scan chain from the same records with a linear pool. A
      linear weight of a feature that none of a learner's bootstrap rows
      holds stays 0.0, and the apk-scan vocabulary keeps features of 2
      documents, so these model files hold `0x0.0p+0` tokens, which the
      MLP pools rarely do

Everything runs in this process with BLAS held to one thread. Once the
inputs exist, one tree takes about 20 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
WORKLOADS = ("experiment-records", "predict-records", "apk-scan")


def generate(workload: str) -> Path:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--generate-only",
         "--workload", workload, "--seed", str(SEED)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return Path(out.stdout.strip().splitlines()[-1])


def cli(*argv: str, code: int = 0) -> tuple[str, str]:
    """One malsieve command in this process, which must exit with `code`;
    returns its stdout and stderr."""
    import malsieve.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exited = malsieve.cli.main(list(argv))
    if exited != code:
        sys.exit(f"malsieve {argv[0]} exited {exited}, not {code}: {err.getvalue()[-500:]}")
    return out.getvalue(), err.getvalue()


def cli_chain(out: Path, train: Path, batch: Path, pool_size: int, epochs: int,
              learner: str = "mlp") -> None:
    """vectorize, train-pool, select, evaluate (with the selection, and
    without it, so every learner votes) and predict, as the CLI workloads
    of the benchmark run them; their pools are MLPs."""
    vocab, dataset, pool, selection = (
        out / "vocab.tsv", out / "train.svm", out / "pool", out / "selection.txt"
    )
    cli("vectorize", str(train), "--vocab-out", str(vocab), "--dataset-out", str(dataset))
    cli("train-pool", str(dataset), "--out", str(pool), "--pool-size", str(pool_size),
        "--learner", learner, "--epochs", str(epochs), "--seed", str(SEED))
    cli("select", str(pool), str(dataset), "--out", str(selection),
        "--report", str(out / "ga-report.txt"), "--seed", str(SEED))
    line, _ = cli("evaluate", str(pool), str(dataset), "--selection", str(selection))
    (out / "evaluate.txt").write_text(line, encoding="utf-8")
    line, _ = cli("evaluate", str(pool), str(dataset))
    (out / "evaluate-all.txt").write_text(line, encoding="utf-8")
    cli("predict", str(pool), str(batch), "--vocab", str(vocab),
        "--selection", str(selection), "--out", str(out / "predictions.txt"))


def extract(out: Path, name: str, inputs: Path, apks: str, *flags: str) -> Path:
    """`malsieve extract` on inputs/apks. Its log names each APK relative
    to inputs, so it does not depend on where the inputs were made."""
    records = out / f"{name}.records"
    _, log = cli("extract", str(inputs / apks), *flags, "--out", str(records))
    log = log.replace(f"{inputs}{os.sep}", "")
    (out / f"{name}.extract.log").write_text(log, encoding="utf-8")
    return records


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    tree, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    out.mkdir(parents=True)
    inputs = {workload: generate(workload) for workload in WORKLOADS}

    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(tree / "src"), str(ROOT / "bench")]
    import malsieve
    from malsieve import experiment, records

    from gen import PROFILES

    if not Path(malsieve.__file__).is_relative_to(tree / "src"):
        sys.exit(f"malsieve was imported from {malsieve.__file__}, not from {tree / 'src'}")
    profile = PROFILES["full"]
    # the experiment config names its corpus relative to the repository root
    os.chdir(ROOT)

    d = out / "experiment-records"
    d.mkdir()
    config = experiment.parse_config(
        (inputs["experiment-records"] / "experiment.cfg").read_text(encoding="utf-8"))
    source = records.load_records(config.dataset)
    runs = [(f"run-{index}", config, index) for index in (2 * SEED, 2 * SEED + 1)]
    runs.append((f"run-{2 * SEED}.noise-test", replace(config, noise_test=True), 2 * SEED))
    runs.append((f"run-{2 * SEED}.no-noise", replace(config, noise_fraction=0.0), 2 * SEED))
    for name, run_config, index in runs:
        summary = experiment.RepeatSummary(
            repeats=1, outcomes=(experiment.run_one(source, run_config, index),),
            failures=(), summaries={})
        (d / f"{name}.report").write_text(
            experiment.format_report(summary, run_config), encoding="utf-8")
    cli("vectorize", config.dataset, "--dataset-out", str(d / "corpus.svm"),
        "--min-doc-freq", str(config.min_doc_freq),
        "--max-api-features", str(config.max_api_features))
    lines = Path(config.dataset).read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[-1].rstrip("\n").split("\t")
    fields[-1] = fields[-1].split(":", 1)[1]
    lines[-1] = "\t".join(fields) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad-prefix.records"
        bad.write_text("".join(lines), encoding="utf-8")
        _, err = cli("vectorize", str(bad), "--dataset-out", str(Path(tmp) / "bad.svm"), code=2)
    (d / "bad-prefix.err").write_text(f"exit 2\n{err}", encoding="utf-8")
    # named relative to the output directory, so the report's config line
    # is the same wherever OUT is
    dataset_config = replace(config, dataset="corpus.svm", repeats=1)
    (d / "dataset.cfg").write_text(experiment.config_text(dataset_config), encoding="utf-8")
    noise_test_config = replace(dataset_config, noise_test=True)
    with contextlib.chdir(d):
        cli("experiment", "dataset.cfg", "--out", "run-0.dataset.report")
        (d / "run-0.dataset.noise-test.report").write_text(experiment.format_report(
            experiment.repeated_experiment(noise_test_config), noise_test_config),
            encoding="utf-8")

    cli("experiment", "--print-default-config", "--out", str(out / "default.cfg"))

    d = out / "synthetic"
    d.mkdir()
    text = (ROOT / "configs" / "synthetic-benchmark.cfg").read_text(encoding="utf-8")
    (d / "config.cfg").write_text(re.sub(r"(?m)^repeats=.*$", "repeats=2", text),
                                  encoding="utf-8")
    cli("experiment", str(d / "config.cfg"), "--out", str(d / "report.txt"))

    d = out / "predict-records"
    d.mkdir()
    source = inputs["predict-records"]
    cli_chain(d, source / "train.records", source / "batch.records",
              profile["cli_pool_size"], profile["cli_epochs"])

    d = out / "apk-scan"
    d.mkdir()
    source = inputs["apk-scan"]
    train = d / "train.records"
    train.write_bytes(b"".join(
        extract(d, cls, source, f"train/{cls}", "--label", label).read_bytes()
        for cls, label in (("mal", "+1"), ("ben", "-1"))
    ))
    scan = extract(d, "scan", source, "scan")
    cli_chain(d, train, scan, profile["cli_pool_size"], profile["cli_epochs"])

    d = out / "apk-scan-linear"
    d.mkdir()
    cli_chain(d, train, scan, profile["cli_pool_size"], profile["cli_epochs"], learner="linear")
    return 0


if __name__ == "__main__":
    sys.exit(main())
