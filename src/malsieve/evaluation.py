"""Dataset splitting, label-noise injection and metric computation.

The split and the noise draw from one per-class rule, `class_shuffles`.
Noise injection models mislabeled training corpora: an equal number of
samples from each class (`equal_count_flips`, which the synthetic
concept noise uses too) gets its label swapped to the other class, which
keeps the class balance intact. Noise acts on label arrays only, and its
selection is keyed to the clean labels, which the caller passes beside
the labels it noises: the experiment holds them as its split items' own
labels. So injecting the same noise twice restores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, InvalidConfig, LengthMismatch, SingleClassData, TooSmall
from .rng import make_rng
from .vectorize import Dataset

_CLASSES = (1, -1)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.6
    validation_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        fractions = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if not all(f > 0 for f in fractions):
            raise InvalidConfig("split fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise InvalidConfig("split fractions must sum to 1")


@dataclass(frozen=True)
class NoiseSpec:
    noise_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_fraction <= 0.5:
            raise InvalidConfig("noise_fraction must be in [0, 0.5]")


def class_shuffles(labels: np.ndarray, rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
    """For each class in (+1, -1) order, the positions of its labels
    permuted by its generator in `rngs`, which may hold one twice."""
    members = [np.flatnonzero(labels == cls) for cls in _CLASSES]
    return [m[rng.permutation(m.size)] for m, rng in zip(members, rngs)]


def stratified_split_indices(
    labels, spec: SplitSpec
) -> tuple[list[int], list[int], list[int]]:
    """Index-level stratified split; rounding residue stays in train.

    Within each class the `class_shuffles` under the seed give the floor
    of each fraction to validation and test, and the rest to train.
    Each part comes back in ascending original order.
    """
    labels = np.asarray(labels)
    if labels.size < 5:
        raise TooSmall(f"need at least 5 samples, got {labels.size}")
    if labels.dtype == object:
        raise ValueError("split requires labeled data")
    cuts = []  # each class's (validation, test, train)
    for s in class_shuffles(labels, [make_rng(spec.seed, "split", cls) for cls in _CLASSES]):
        n_val = int(spec.validation_fraction * s.size)
        cuts.append(np.split(s, [n_val, n_val + int(spec.test_fraction * s.size)]))
    val_idx, test_idx, train_idx = (np.sort(np.concatenate(part)).tolist() for part in zip(*cuts))
    return train_idx, val_idx, test_idx


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified three-way split of a dataset; see
    stratified_split_indices for the partition rule."""
    return tuple(Dataset([data.vectors[i] for i in part], data.dimension)
                 for part in stratified_split_indices(data.labels(), spec))


def equal_count_flips(
    labels: np.ndarray, fraction: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Indices of the labels to swap: the first k of each class's
    `class_shuffles`, with k = floor(fraction x the smaller class size)."""
    shuffles = class_shuffles(labels, rngs)
    if not all(s.size for s in shuffles):
        raise SingleClassData("noise injection needs both classes present")
    k = int(fraction * min(s.size for s in shuffles))
    return np.concatenate([s[:k] for s in shuffles])


def inject_label_noise(labels, clean, spec: NoiseSpec) -> np.ndarray:
    """A copy of `labels` with the ones `equal_count_flips` picks from the
    `clean` labels swapped, drawn per class from `make_rng(seed, "noise",
    class)`. Selection is a deterministic function of (seed, clean labels),
    so a second application with the same spec is an involution."""
    if any(l is None for l in clean):
        raise ValueError("noise injection requires labeled data")
    rngs = [make_rng(spec.seed, "noise", cls) for cls in _CLASSES]
    flips = equal_count_flips(np.array(clean), spec.noise_fraction, rngs)
    noisy = np.array(labels)
    noisy[flips] *= -1
    return noisy


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and derived rates, +1 taken as the positive class.

    Degenerate denominators (no predicted or no actual positives) score
    1.0 when there was nothing to find and nothing was claimed, 0.0
    otherwise, and always set the degenerate flag.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: bool

    def as_fields(self) -> str:
        return (
            f"accuracy={self.accuracy!r} precision={self.precision!r} "
            f"recall={self.recall!r} f1={self.f1!r} "
            f"tp={self.tp} fp={self.fp} tn={self.tn} fn={self.fn} "
            f"degenerate={int(self.degenerate)}"
        )


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> MetricsReport:
    total = tp + fp + tn + fn
    if total < 1:
        raise EmptyDataset("need at least one sample")
    nothing_anywhere = (tp + fp == 0) and (tp + fn == 0)
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 1.0 if nothing_anywhere else 0.0
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 1.0 if nothing_anywhere else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=(tp + tn) / total,
        precision=precision,
        recall=recall,
        f1=f1,
        degenerate=(tp + fp == 0) or (tp + fn == 0),
    )


def compute_metrics(predictions, labels) -> MetricsReport:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise LengthMismatch(
            f"predictions {predictions.shape} vs labels {labels.shape}"
        )
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == -1)))
    tn = int(np.sum((predictions == -1) & (labels == -1)))
    fn = int(np.sum((predictions == -1) & (labels == 1)))
    return metrics_from_counts(tp, fp, tn, fn)


METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


@dataclass(frozen=True)
class MetricSummary:
    worst: float
    best: float
    mean: float
    std: float


def summarize_metric(reports: list[MetricsReport], metric: str) -> MetricSummary:
    values = np.array([getattr(r, metric) for r in reports], dtype=np.float64)
    return MetricSummary(
        worst=float(values.min()),
        best=float(values.max()),
        mean=float(values.mean()),
        std=float(values.std()),
    )
