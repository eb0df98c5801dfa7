"""Shared learner/ensemble fixtures and independent brute-force oracles.

The oracles deliberately use plain Python loops and math.sqrt so they
share no code path with the vectorized implementations they check.
"""

from __future__ import annotations

import math

import numpy as np

from malsieve.ensemble import EnsemblePool, bootstrap_indices
from malsieve.learners import LearnerSpec, TrainedLearner
from malsieve.vectorize import Dataset, FeatureVector


def dense(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The (X, labels) arrays that `train` and `train_pool` read."""
    return data.to_dense(), data.label_array()


def replicate(data: Dataset, seed: int) -> Dataset:
    """The bootstrap replicate of data that `bootstrap_indices` draws."""
    return Dataset([data.vectors[i] for i in bootstrap_indices(len(data), seed)], data.dimension)


def one_hot_dataset(m: int, labels=None) -> Dataset:
    return Dataset(
        [
            FeatureVector((k,), None if labels is None else labels[k])
            for k in range(m)
        ],
        dimension=m,
    )


def pool_from_matrix(matrix: np.ndarray) -> EnsemblePool:
    """Learners whose prediction on one-hot sample k is exactly row k of
    the given +-1 matrix."""
    n, m = matrix.shape
    learners = tuple(
        TrainedLearner(
            spec=LearnerSpec(kind="linear"),
            params={"w": matrix[i].astype(np.float64), "b": np.zeros(1)},
        )
        for i in range(n)
    )
    return EnsemblePool(learners=learners)


def random_sign_matrix(rng, n: int, m: int) -> np.ndarray:
    return rng.choice(np.array([1, -1], dtype=np.int8), size=(n, m))


def brute_force_vote(matrix: np.ndarray, bits, k: int) -> int:
    total = sum(w * int(p) for w, p in zip(bits, matrix[:, k]))
    return 1 if total >= 0 else -1


def brute_force_accuracy(matrix: np.ndarray, labels, bits) -> float:
    hits = sum(
        brute_force_vote(matrix, bits, k) == labels[k]
        for k in range(matrix.shape[1])
    )
    return hits / matrix.shape[1]


def brute_force_diversity(matrix: np.ndarray, bits, norm: str = "selected") -> float:
    selected = [i for i, b in enumerate(bits) if b]
    total = 0.0
    for a in range(len(selected)):
        for b in range(a + 1, len(selected)):
            i, j = selected[a], selected[b]
            total += math.sqrt(
                sum(
                    (int(matrix[i, k]) - int(matrix[j, k])) ** 2
                    for k in range(matrix.shape[1])
                )
            )
    if len(selected) == 1:
        return 0.0
    denom = len(selected) if norm == "selected" else len(selected) * (len(selected) - 1) // 2
    return total / denom


def brute_force_fitness(matrix, labels, bits, norm: str = "selected") -> float:
    return brute_force_accuracy(matrix, labels, bits) * brute_force_diversity(
        matrix, bits, norm
    )


def exhaustive_best_fitness(matrix, labels, norm: str = "selected"):
    """Max fitness over every nonzero weight vector, via the public
    fitness function scored on all of them at once (bit-exact comparison
    target for the GA); ties go to the first in lexicographic order."""
    from itertools import product

    from malsieve.ga import fitness

    masks = np.array(list(product((0, 1), repeat=matrix.shape[0]))[1:])
    values = fitness(matrix, labels, masks, norm)
    best = int(np.argmax(values))
    return float(values[best]), tuple(masks[best].tolist())
