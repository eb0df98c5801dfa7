"""Spans around the benchmark's calls into malsieve, and the per-layer
figures derived from them.

The tracer replaces the module attributes that malsieve code actually
calls through with wrappers that record `[name, start, end, parent,
count]`. `run_one` calls the names imported into `malsieve.experiment`,
so `malsieve.experiment.train_pool` is wrapped, not only
`malsieve.ensemble.train_pool`; `cmd_extract` imports `open_apk` when it
runs, so `malsieve.archive.open_apk` is. Spans stay in memory and are
written out once the run ends. Nothing in malsieve changes.

A layer's busy time is the summed duration of its spans; its self time
subtracts the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import statistics
import struct
from pathlib import Path
from time import perf_counter

import malsieve.archive
import malsieve.cli
import malsieve.ensemble
import malsieve.experiment
import malsieve.ga
import malsieve.records
from malsieve.vectorize import Dataset, FeatureVector

NAME, START, END, PARENT, COUNT = range(5)


def _steps(spec, n: int) -> int:
    batch = n if spec.batch_size is None else min(spec.batch_size, n)
    return spec.epochs * math.ceil(n / batch)


def _pool_steps(args, kwargs, pool) -> int:
    n = len(args[0])
    return sum(_steps(learner.spec, n) for learner in pool.learners)


def _nnz(result) -> int:
    if isinstance(result, Dataset):
        return sum(len(v.indices) for v in result.vectors)
    return len(result.indices)


# (owner, attribute, span name, count function or None). Owners are the
# modules whose globals the calling code reads, or a class for methods.
BINDINGS = [
    (malsieve.archive, "open_apk", "archive.open", lambda a, k, r: len(r.data)),
    (malsieve.archive.ApkArchive, "read", "archive.read", None),
    (malsieve.records, "parse_manifest", "axml.parse", None),
    (malsieve.records, "parse_dex", "dex.parse",
     lambda a, k, r: struct.unpack_from("<I", a[0], 88)[0]),
    (malsieve.records, "extract_features", "records.extract", None),
    (malsieve.records, "load_records", "records.load", lambda a, k, r: len(r)),
    (malsieve.cli, "load_records", "records.load", lambda a, k, r: len(r)),
    (malsieve.experiment, "build_vocabulary", "vectorize.vocab", lambda a, k, r: r.dimension),
    (malsieve.cli, "build_vocabulary", "vectorize.vocab", lambda a, k, r: r.dimension),
    (malsieve.experiment, "vectorize_all", "vectorize.vectorize", lambda a, k, r: _nnz(r)),
    (malsieve.cli, "vectorize_all", "vectorize.vectorize", lambda a, k, r: _nnz(r)),
    (malsieve.cli, "vectorize", "vectorize.vectorize", lambda a, k, r: _nnz(r)),
    (Dataset, "to_dense", "vectorize.densify", lambda a, k, r: r.shape),
    (FeatureVector, "to_dense", "vectorize.densify", lambda a, k, r: r.shape),
    (malsieve.experiment, "train", "learners.train",
     lambda a, k, r: _steps(a[0], len(a[1]))),
    (malsieve.experiment, "train_pool", "ensemble.train_pool", _pool_steps),
    (malsieve.ensemble, "train_pool", "ensemble.train_pool", _pool_steps),
    (malsieve.ensemble, "vote", "ensemble.vote", lambda a, k, r: 1),
    (malsieve.experiment, "majority_vote_matrix", "ensemble.vote",
     lambda a, k, r: r.shape[0]),
    (malsieve.experiment, "run_ga", "ga.run", None),
    (malsieve.cli, "run_ga", "ga.run", None),
    (malsieve.ga, "precompute_predictions", "ga.predictions", None),
    (malsieve.experiment, "precompute_predictions", "ga.predictions", None),
    (malsieve.ga, "fitness", "ga.fitness", None),
    (malsieve.experiment, "split", "evaluation.split", None),
    (malsieve.experiment, "stratified_split_indices", "evaluation.split", None),
    (malsieve.experiment, "inject_label_noise", "evaluation.noise", None),
    (malsieve.experiment, "compute_metrics", "evaluation.metrics", None),
    (malsieve.experiment, "run_one", "experiment.run_one", None),
    (malsieve.cli, "main", "cli.main", None),
    (malsieve.cli, "cmd_extract", "cli.extract", None),
    (malsieve.cli, "cmd_vectorize", "cli.vectorize", None),
    (malsieve.cli, "cmd_train_pool", "cli.train_pool", None),
    (malsieve.cli, "cmd_select", "cli.select", None),
    (malsieve.cli, "cmd_predict", "cli.predict", None),
]

# per-layer metric name -> unit, as BENCHMARK.json lists them
LAYER_METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                        .read_text(encoding="utf-8"))["per_layer"]
}

# rate metric -> (count, busy seconds) that it divides, both per set-up
# plus one round
RATES = {
    "archive.mb_per_s": ("archive.mb", "archive.busy_s"),
    "axml.manifests_per_s": ("axml.manifests", "axml.busy_s"),
    "dex.method_ids_per_s": ("dex.method_ids", "dex.busy_s"),
    "records.records_per_s": ("records.loaded", "records.load_busy_s"),
    "learners.steps_per_s": ("learners.steps", "learners.train_busy_s"),
    "ensemble.pool_steps_per_s": ("ensemble.pool_steps", "ensemble.train_pool_busy_s"),
    "ensemble.votes_per_s": ("ensemble.votes", "ensemble.vote_busy_s"),
    "ga.fitness_per_s": ("ga.fitness_calls", "ga.fitness_busy_s"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in BINDINGS:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


def _figures(spans: list[list], members: list[int]) -> dict[str, float]:
    """Busy/self seconds and counts of the spans under one root span."""
    child_time: dict[int, float] = {}
    for i in members:
        s = spans[i]
        child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, float] = {}
    calls: dict[str, int] = {}
    dense_bytes = 0
    dimension = 0
    for i in members:
        name, start, end, _, n = spans[i]
        busy[name] = busy.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if name == "vectorize.densify":  # n is the dense shape
            dense_bytes += 8 * math.prod(n)
            dimension = max(dimension, n[-1])
        else:
            count[name] = count.get(name, 0) + n
            if name == "vectorize.vocab":
                dimension = max(dimension, n)

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def c(*names):
        return sum(count.get(n, 0) for n in names)

    return {
        "archive.busy_s": b("archive.open", "archive.read"),
        "archive.mb": c("archive.open") / 1e6,
        "archive.entries_read": calls.get("archive.read", 0),
        "axml.busy_s": b("axml.parse"),
        "axml.manifests": calls.get("axml.parse", 0),
        "dex.busy_s": b("dex.parse"),
        "dex.method_ids": c("dex.parse"),
        "records.extract_self_s": self_time.get("records.extract", 0.0),
        "records.load_busy_s": b("records.load"),
        "records.loaded": c("records.load"),
        "vectorize.vocab_busy_s": b("vectorize.vocab"),
        "vectorize.vectorize_busy_s": b("vectorize.vectorize"),
        "vectorize.densify_busy_s": b("vectorize.densify"),
        "vectorize.nnz": c("vectorize.vectorize"),
        "vectorize.dimension": dimension,
        "vectorize.dense_mb": dense_bytes / 1e6,
        "learners.train_busy_s": b("learners.train"),
        "learners.steps": c("learners.train"),
        "ensemble.train_pool_busy_s": b("ensemble.train_pool"),
        "ensemble.pool_steps": c("ensemble.train_pool"),
        "ensemble.vote_busy_s": b("ensemble.vote"),
        "ensemble.votes": c("ensemble.vote"),
        "ga.run_busy_s": b("ga.run"),
        "ga.predictions_busy_s": b("ga.predictions"),
        "ga.fitness_calls": calls.get("ga.fitness", 0),
        "ga.fitness_busy_s": b("ga.fitness"),
        "evaluation.busy_s": b("evaluation.split", "evaluation.noise", "evaluation.metrics"),
        "experiment.self_s": self_time.get("experiment.run_one", 0.0),
        "cli.extract_busy_s": b("cli.extract"),
        "cli.predict_busy_s": b("cli.predict"),
        "cli.self_s": sum(t for n, t in self_time.items() if n.startswith("cli.")),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one set-up plus one round of operations: the
    median over the run's set-ups plus, for each operation of a round,
    the median over the rounds.

    Root spans are named "bench.setup" and "bench.op<j>", j being the
    operation's place in its round; every other span belongs to the root
    above it.
    """
    spans = tracer.spans
    root_of: list[int] = []
    members: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        root = i if s[PARENT] == -1 else root_of[s[PARENT]]
        root_of.append(root)
        if root != i:
            members.setdefault(root, []).append(i)
    per_kind: dict[str, list[dict[str, float]]] = {}
    for root in (i for i, s in enumerate(spans) if s[PARENT] == -1):
        figures = _figures(spans, members[root]) if root in members else {}
        per_kind.setdefault(spans[root][NAME], []).append(figures)

    combined: dict[str, float] = {}
    keys = set().union(*(f.keys() for figs in per_kind.values() for f in figs))
    for key in keys:
        medians = [
            statistics.median(f.get(key, 0) for f in figs)
            for figs in per_kind.values()
        ]
        # the widest vector the run handled, not a sum over phases
        combined[key] = max(medians) if key == "vectorize.dimension" else sum(medians)
    for rate, (count, busy) in RATES.items():
        combined[rate] = _rate(combined.get(count, 0), combined.get(busy, 0.0))
    # counts repeat exactly from round to round, so their medians are whole
    return {
        name: int(combined.get(name, 0)) if unit == "count" else combined.get(name, 0.0)
        for name, unit in LAYER_METRICS.items()
    }


_unknown = set(LAYER_METRICS) - set(_figures([], [])) - set(RATES)
if _unknown:
    raise ValueError(f"BENCHMARK.json lists per-layer metrics spans.py does not make: {_unknown}")
