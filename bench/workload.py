"""One run of one benchmark workload, in a process of its own.

Started by run.py, which has already written the inputs. Prints one JSON
object as its last line: the outcome counts, the metrics (end-to-end, or
per-layer with --trace 1) and the raw timings behind them.

The load is a closed loop with one client: each operation starts when the
previous one has ended. Operations come in rounds that repeat the same
work, and a run always completes whole rounds, so the count of
operations per round and every per-round figure is the same in every run.
The set-up is repeated between operations, `setup_reps` times before
every `setup_every`-th operation, so its median samples the whole run.

A workload has `round_size`, `setup_every` and `setup_reps`, and these
methods:
    reset()          drops the previous set-up's state; not timed
    setup()          the timed set-up
    op(j)            the timed j-th operation of a round
    verify(j, out)   checks one operation's output, returns its bytes
    finish()         the checks left for the end; returns selective F1
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import malsieve.cli  # noqa: E402
import malsieve.errors  # noqa: E402
import malsieve.experiment  # noqa: E402
import malsieve.records  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed, require  # noqa: E402
from gen import PROFILES  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

MIN_SELECTIVE_F1 = 0.6  # chance is about 0.5 on these balanced sets


def run_cli(argv: list[str]) -> str:
    """One malsieve command in this process; returns what it logged."""
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        code = malsieve.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"malsieve {argv[0]} exited {code}: {log.getvalue()[-500:]}")
    return log.getvalue()


class ExperimentWorkload:
    """experiment-records: one operation is one `run_one` over the
    generated corpus. A round runs index r, then r + 1, then r again, so
    every round checks that a repeated run index gives byte-identical
    report lines."""

    round_offsets = (0, 1, 0)
    round_size = len(round_offsets)
    setup_every = 1
    setup_reps = 2

    def __init__(self, inputs: Path, seed: int, profile: str, work: Path):
        self.config_path = inputs / "experiment.cfg"
        self.first_index = 2 * seed
        self.reports: dict[int, bytes] = {}
        self.f1s: list[float] = []
        self.captured: dict[str, object] = {}
        # keep what run_one hands to the GA and to the test-set predictions,
        # so the checks can recompute them; both wrappers only record
        for name in ("run_ga", "precompute_predictions"):
            setattr(malsieve.experiment, name,
                    self._capture(name, getattr(malsieve.experiment, name)))

    def _capture(self, name, fn):
        def capture(*args, **kwargs):
            self.captured[name] = args
            return fn(*args, **kwargs)
        return capture

    def reset(self) -> None:
        """Drops the previous set-up's corpus before the next is timed, so
        that no set-up pays for freeing the last one."""
        self.source = None

    def setup(self) -> None:
        self.config = malsieve.experiment.parse_config(
            self.config_path.read_text(encoding="utf-8"))
        self.source = malsieve.records.load_records(self.config.dataset)

    def op(self, j: int):
        self.captured.clear()
        index = self.first_index + self.round_offsets[j]
        return index, malsieve.experiment.run_one(self.source, self.config, index)

    def verify(self, j: int, result) -> bytes:
        index, outcome = result
        pool, fit_set = self.captured["run_ga"][:2]
        test_set = self.captured["precompute_predictions"][1]
        self.f1s.append(checks.check_experiment(outcome, pool, test_set, fit_set))
        summary = malsieve.experiment.RepeatSummary(1, (outcome,), (), {})
        report = malsieve.experiment.format_report(summary, self.config).encode()
        if index in self.reports:
            require(report == self.reports[index],
                    f"run index {index} repeated with different report lines")
        self.reports[index] = report
        return report

    def finish(self) -> float:
        return statistics.fmean(self.f1s)


class CliWorkload:
    """Shared by apk-scan and predict-records: a pool, selection and
    vocabulary trained through the CLI in set-up, then one batch labelled
    per operation. Every operation repeats the same batch and must
    reproduce the first one's output files byte for byte, whichever
    set-up trained the model it used. Those files are checked in full once
    the timed rounds are over, so that the checks' memory stays out of the
    peak."""

    round_size = 1
    setup_every = 4
    setup_reps = 1

    def __init__(self, inputs: Path, seed: int, profile: str, work: Path):
        self.inputs, self.seed, self.work = inputs, seed, work
        self.profile = PROFILES[profile]
        self.model = work / "model"
        self.first_digest: str | None = None

    def reset(self) -> None:
        shutil.rmtree(self.model, ignore_errors=True)
        self.model.mkdir()

    def train(self, records: Path) -> None:
        d = self.model
        run_cli(["vectorize", str(records), "--vocab-out", str(d / "vocab.tsv"),
                 "--dataset-out", str(d / "train.svm")])
        run_cli(["train-pool", str(d / "train.svm"), "--out", str(d / "pool"),
                 "--pool-size", str(self.profile["cli_pool_size"]), "--learner", "mlp",
                 "--epochs", str(self.profile["cli_epochs"]), "--seed", str(self.seed)])
        run_cli(["select", str(d / "pool"), str(d / "train.svm"),
                 "--out", str(d / "selection.txt"), "--seed", str(self.seed)])

    def predict(self, records: Path) -> Path:
        out = self.work / "predictions.txt"
        run_cli(["predict", str(self.model / "pool"), str(records),
                 "--vocab", str(self.model / "vocab.tsv"),
                 "--selection", str(self.model / "selection.txt"), "--out", str(out)])
        return out

    def verify(self, j: int, outputs: dict[str, Path]) -> bytes:
        digest = hashlib.sha256()
        for name in sorted(outputs):
            with open(outputs[name], "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
            self.first = {}
            for name, path in outputs.items():
                self.first[name] = self.work / f"first-{name}"
                shutil.copyfile(path, self.first[name])
        require(digest.hexdigest() == self.first_digest,
                "a repeated batch gave different output")
        return digest.digest()

    def check_labels(self, truth: dict, pred_text: str, ids: list[str]) -> float:
        """Labels must equal a vote computed from the model files; returns
        the F1 of the predictions against the planted labels."""
        vocab = checks.parse_vocabulary(self.model / "vocab.tsv")
        learners = checks.parse_pool(self.model / "pool")
        omega = checks.parse_selection(self.model / "selection.txt")
        features = [
            {p: set(truth[i][key]) for p, key in zip(checks.PREFIXES, ("perm", "action", "api"))}
            for i in ids
        ]
        checks.check_predictions(pred_text, ids, checks.vote_features(features, vocab, learners, omega))
        predicted = [1 if line.endswith("\t+1") else -1 for line in pred_text.splitlines()]
        tp, fp, _, fn = checks.confusion(predicted, [truth[i]["label"] for i in ids])
        return checks.f1(tp, fp, fn)

    def read_first(self, name: str) -> str:
        return self.first[name].read_text(encoding="utf-8")

    def load_truth(self) -> dict:
        return json.loads((self.inputs / "truth.json").read_text(encoding="utf-8"))


class ApkScanWorkload(CliWorkload):
    def setup(self) -> None:
        d = self.model
        run_cli(["extract", str(self.inputs / "train" / "mal"), "--label", "+1",
                 "--out", str(d / "mal.records")])
        run_cli(["extract", str(self.inputs / "train" / "ben"), "--label", "-1",
                 "--out", str(d / "ben.records")])
        with open(d / "train.records", "wb") as fh:
            fh.write((d / "mal.records").read_bytes() + (d / "ben.records").read_bytes())
        self.train(d / "train.records")

    def op(self, j: int) -> dict[str, Path]:
        records = self.work / "scan.records"
        log = run_cli(["extract", str(self.inputs / "scan"), "--out", str(records)])
        (self.work / "extract.log").write_text(log, encoding="utf-8")
        return {"records": records, "log": self.work / "extract.log",
                "predictions": self.predict(records)}

    def finish(self) -> float:
        truth = self.load_truth()
        corrupt = json.loads((self.inputs / "corrupt.json").read_text(encoding="utf-8"))
        error_names = {
            name for name, cls in vars(malsieve.errors).items()
            if isinstance(cls, type) and issubclass(cls, malsieve.errors.MalsieveError)
        }
        records_text = self.read_first("records")
        checks.check_extracted(records_text, truth, corrupt, self.read_first("log"), error_names)
        ids = [line.split("\t", 1)[0] for line in records_text.splitlines()]
        return self.check_labels(truth, self.read_first("predictions"), ids)


class PredictRecordsWorkload(CliWorkload):
    def setup(self) -> None:
        self.train(self.inputs / "train.records")

    def op(self, j: int) -> dict[str, Path]:
        return {"predictions": self.predict(self.inputs / "batch.records")}

    def finish(self) -> float:
        truth = self.load_truth()
        return self.check_labels(truth, self.read_first("predictions"), list(truth))


def make_workload(name: str, inputs: Path, seed: int, profile: str, work: Path):
    if name == "experiment-records":
        return ExperimentWorkload(inputs, seed, profile, work)
    if name == "apk-scan":
        return ApkScanWorkload(inputs, seed, profile, work)
    if name == "predict-records":
        return PredictRecordsWorkload(inputs, seed, profile, work)
    raise ValueError(f"unknown workload {name!r}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run(workload, seconds: float, tracer: Tracer | None) -> dict:
    def root(name: str, fn, *args):
        return (tracer.span(name, fn) if tracer else fn)(*args)

    setup_times: list[float] = []
    op_times: list[float] = []
    outputs = hashlib.sha256()
    attempted = failed = 0
    error = None

    def setup() -> None:
        workload.reset()
        t0 = perf_counter()
        root("bench.setup", workload.setup)
        setup_times.append(perf_counter() - t0)

    def one_op(j: int, first: bool) -> None:
        nonlocal failed
        t0 = perf_counter()
        try:
            result = workload.op(j)
        except Exception:  # counted as a failed operation, then the run goes on
            failed += 1
            traceback.print_exc()
            return
        op_times.append(perf_counter() - t0)
        output = workload.verify(j, result)
        if first:
            outputs.update(output)

    start = perf_counter()
    rounds = 0
    try:
        while True:
            for j in range(workload.round_size):
                if attempted % workload.setup_every == 0:
                    for _ in range(workload.setup_reps):
                        setup()
                attempted += 1
                root(f"bench.op{j}", one_op, j, rounds == 0)
            rounds += 1
            if perf_counter() - start >= seconds:
                break
        # read before the final checks, so that their memory is not counted
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        require(bool(op_times), "no operation completed")
        f1 = workload.finish()
        require(f1 >= MIN_SELECTIVE_F1, f"selective F1 {f1:.4f} is not clearly above chance")
    except CheckFailed as exc:
        error, f1 = str(exc), 0.0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    median_op = statistics.median(op_times) if op_times else float("nan")
    return {
        "correct": error is None,
        "error": error,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "setup_times_s": setup_times,
        "op_times_s": op_times,
        "output_sha256": outputs.hexdigest(),
        "end_to_end": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "throughput_per_s": {"value": 1.0 / median_op, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "selective_f1": {"value": f1, "unit": "ratio"},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="full", choices=sorted(PROFILES))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    # the whole run stays on one CPU, the highest-numbered, which is the
    # least likely to take interrupts; on a 2-vCPU VM, pinned runs of an
    # experiment spread less than unpinned ones taken in turn
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = make_workload(args.workload, args.inputs, args.seed, args.profile, args.work)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run(workload, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = {
            name: {"value": value, "unit": LAYER_METRICS[name]}
            for name, value in layer_metrics(tracer).items()
        }
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    result["blas_threads"] = blas_threads()
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
