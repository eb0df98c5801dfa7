"""Genetic search for the best sub-ensemble.

Chromosomes are the 0/1 weight vectors over the learner pool. Each
generation runs crossover, then per-gene mutation, then fitness
evaluation, then selection (elitism plus fitness-proportional roulette).
The objective is

    fitness = ensemble accuracy * diversity factor

where accuracy is the majority-vote accuracy of the selected learners on
the evaluation split, and the diversity factor is the sum of pairwise
Euclidean distances between the selected learners' prediction vectors,
divided by the number of selected learners. A singleton selection has no
pairs, so its diversity and hence fitness are 0: the search inherently
favors real ensembles that disagree somewhere yet vote correctly.

Predictions are +-1, so the pairwise distance reduces to
2*sqrt(#disagreements); everything is evaluated on the one (N learners x
M samples) prediction matrix that `ensemble.precompute_predictions`
builds, and accuracy is that of `ensemble.majority_vote_matrix`. A run
turns the matrix into the (N x N) distance matrix once, so scoring a
chromosome sums a k x k sub-block instead of touching all M samples
again.

The by-selected-count normalization makes the factor grow roughly
linearly with ensemble size; diversity_norm="pairs" divides by the pair
count instead for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import (
    EnsemblePool,
    WeightVector,
    majority_vote_matrix,
    precompute_predictions,
)
from .errors import AllZeroWeights, DimensionMismatch, InvalidConfig, LengthMismatch
from .rng import make_rng
from .vectorize import Dataset

DIVERSITY_NORMS = ("selected", "pairs")


@dataclass(frozen=True)
class GAConfig:
    pop_size: int = 30
    max_iter: int = 50
    crossover_rate: float = 0.8
    mutation_rate: float = 0.05
    elite_count: int = 2
    rng_seed: int = 0
    diversity_norm: str = "selected"

    def __post_init__(self):
        if self.pop_size < 2:
            raise InvalidConfig("pop_size must be >= 2")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise InvalidConfig("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise InvalidConfig("mutation_rate must be in [0, 1]")
        if not 0 <= self.elite_count < self.pop_size:
            raise InvalidConfig("elite_count must be in [0, pop_size)")
        if self.diversity_norm not in DIVERSITY_NORMS:
            raise InvalidConfig(f"diversity_norm must be one of {DIVERSITY_NORMS}")


def pairwise_distances(matrix: np.ndarray) -> np.ndarray:
    """(N x N) Euclidean distances between the +-1 prediction rows."""
    P = matrix.astype(np.int64)
    sq = 2 * (P.shape[1] - P @ P.T)  # (p_i - p_j)^2 sums over samples
    return np.sqrt(sq.astype(np.float64))


def diversity(
    matrix: np.ndarray,
    omega: WeightVector,
    norm: str = "selected",
    distances: np.ndarray | None = None,
) -> float:
    """Summed pairwise Euclidean distance between selected prediction
    rows, divided by the selected count ("selected") or pair count ("pairs").
    One selected learner has no pairs: the factor is 0.

    `distances`, when given, is `pairwise_distances(matrix)`, computed once
    by the caller; without it only the selected rows' distances are made.
    """
    if norm not in DIVERSITY_NORMS:
        raise InvalidConfig(f"diversity norm must be one of {DIVERSITY_NORMS}")
    if matrix.shape[0] != len(omega):
        raise DimensionMismatch(
            f"matrix has {matrix.shape[0]} rows, weight vector {len(omega)}"
        )
    if omega.selected_count < 1:
        raise AllZeroWeights("no learners selected")
    sel = omega.selected_indices()
    k = len(sel)
    if k == 1:
        return 0.0
    if distances is None:
        dist = pairwise_distances(matrix[sel])
    else:
        dist = distances[np.ix_(sel, sel)]
    total = float(np.sum(dist[np.triu_indices(k, 1)]))
    denom = k if norm == "selected" else k * (k - 1) // 2
    return total / denom


def ensemble_accuracy_matrix(
    matrix: np.ndarray, labels: np.ndarray, omega: WeightVector
) -> float:
    if matrix.shape[1] != labels.shape[0]:
        raise LengthMismatch("label count != matrix sample count")
    votes = majority_vote_matrix(matrix, omega)
    return float(np.mean(votes == labels))


def fitness(
    matrix: np.ndarray,
    labels: np.ndarray,
    omega: WeightVector,
    norm: str = "selected",
    distances: np.ndarray | None = None,
) -> float:
    """Majority-vote accuracy times diversity factor; `distances` as in
    `diversity`."""
    return ensemble_accuracy_matrix(matrix, labels, omega) * diversity(
        matrix, omega, norm, distances
    )


# --- operators; populations are lists of WeightVector ---

def _repair(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An all-zero chromosome cannot vote; set one random gene."""
    if not bits.any():
        bits = bits.copy()
        bits[rng.integers(0, bits.shape[0])] = 1
    return bits


def _to_population(rows: list[np.ndarray]) -> list[WeightVector]:
    return [WeightVector(tuple(int(b) for b in row)) for row in rows]


def init_population(pop_size: int, n: int, rng: np.random.Generator) -> list[WeightVector]:
    """pop_size chromosomes, each gene Bernoulli(0.5), repaired."""
    rows = [rng.integers(0, 2, size=n) for _ in range(pop_size)]
    return _to_population([_repair(r, rng) for r in rows])


def crossover(
    population: list[WeightVector], crossover_rate: float, rng: np.random.Generator
) -> list[WeightVector]:
    """Single-point tail exchange over pairs drawn in shuffled order.

    Each pair crosses with probability crossover_rate at a cut uniform in
    [1, N-1]; an odd leftover chromosome passes through. Offspring are
    emitted in pairing order, so the per-column gene multiset is
    preserved (before repair).
    """
    order = rng.permutation(len(population))
    n = len(population[0].bits)
    out: list[np.ndarray] = []
    for slot in range(0, len(order) - 1, 2):
        a = np.array(population[order[slot]].bits)
        b = np.array(population[order[slot + 1]].bits)
        if n >= 2 and rng.random() < crossover_rate:
            cut = int(rng.integers(1, n))
            a, b = (
                np.concatenate([a[:cut], b[cut:]]),
                np.concatenate([b[:cut], a[cut:]]),
            )
        out.append(a)
        out.append(b)
    if len(order) % 2:
        out.append(np.array(population[order[-1]].bits))
    return _to_population([_repair(r, rng) for r in out])


def mutation(
    population: list[WeightVector], mutation_rate: float, rng: np.random.Generator
) -> list[WeightVector]:
    """Independent per-gene flips, then repair."""
    out: list[np.ndarray] = []
    for chrom in population:
        bits = np.array(chrom.bits)
        flips = rng.random(bits.shape[0]) < mutation_rate
        out.append(_repair(np.where(flips, 1 - bits, bits), rng))
    return _to_population(out)


def select_newpop(
    population: list[WeightVector],
    fitnesses: np.ndarray,
    elite_count: int,
    rng: np.random.Generator,
) -> list[WeightVector]:
    """Keep the elite_count fittest unchanged (ties by lower index), fill
    the rest by fitness-proportional roulette; all-zero fitness mass
    degenerates to uniform."""
    if len(population) != fitnesses.shape[0]:
        raise LengthMismatch("one fitness value per chromosome required")
    if np.any(~np.isfinite(fitnesses)) or np.any(fitnesses < 0):
        raise ValueError("fitness values must be finite and >= 0")
    order = sorted(range(len(population)), key=lambda i: (-fitnesses[i], i))
    new_pop = [population[i] for i in order[:elite_count]]
    remaining = len(population) - elite_count
    total = float(np.sum(fitnesses))
    probs = fitnesses / total if total > 0 else None
    picks = rng.choice(len(population), size=remaining, replace=True, p=probs)
    new_pop.extend(population[i] for i in picks)
    return new_pop


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass(frozen=True)
class GAResult:
    omega: WeightVector
    fitness: float
    accuracy: float
    diversity: float
    history: tuple[GenerationStats, ...]


def run_ga(
    pool: EnsemblePool,
    data: Dataset,
    labels: np.ndarray | None = None,
    config: GAConfig = GAConfig(),
) -> GAResult:
    """Search weight vectors over the pool; returns the best chromosome
    ever evaluated, its fitness decomposition and per-generation stats.

    Deterministic per config.rng_seed. `labels` defaults to the
    dataset's own labels; passing them separately lets the caller score
    against labels other than the embedded ones.
    """
    matrix = precompute_predictions(pool, data)
    if labels is None:
        y = data.label_array()
    else:
        y = np.asarray(labels, dtype=np.int8)
    if y.shape[0] != matrix.shape[1]:
        raise LengthMismatch("label count != sample count")
    if not np.all(np.abs(y) == 1):
        raise ValueError("labels must be +-1")

    distances = pairwise_distances(matrix)
    rng = make_rng(config.rng_seed, "ga")
    memo: dict[tuple[int, ...], float] = {}

    def evaluate(chrom: WeightVector) -> float:
        cached = memo.get(chrom.bits)
        if cached is None:
            cached = fitness(matrix, y, chrom, config.diversity_norm, distances)
            memo[chrom.bits] = cached
        return cached

    population = init_population(config.pop_size, pool.size, rng)
    best_bits: WeightVector | None = None
    best_fit = -1.0
    history: list[GenerationStats] = []

    for generation in range(1, config.max_iter + 1):
        population = crossover(population, config.crossover_rate, rng)
        population = mutation(population, config.mutation_rate, rng)
        fits = np.array([evaluate(c) for c in population])
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_bits = population[gen_best]
        history.append(
            GenerationStats(generation, float(fits[gen_best]), float(np.mean(fits)))
        )
        population = select_newpop(population, fits, config.elite_count, rng)

    assert best_bits is not None
    return GAResult(
        omega=best_bits,
        fitness=best_fit,
        accuracy=ensemble_accuracy_matrix(matrix, y, best_bits),
        diversity=diversity(matrix, best_bits, config.diversity_norm, distances),
        history=tuple(history),
    )


def format_ga_report(result: GAResult, config: GAConfig) -> str:
    """Human- and machine-readable run summary."""
    lines = ["malsieve-ga-report v1"]
    for key in (
        "pop_size", "max_iter", "crossover_rate", "mutation_rate",
        "elite_count", "rng_seed", "diversity_norm",
    ):
        lines.append(f"config {key}={getattr(config, key)!r}")
    for s in result.history:
        lines.append(
            f"generation {s.generation} best={s.best_fitness!r} mean={s.mean_fitness!r}"
        )
    lines.append(f"best omega={result.omega.to_string()}")
    lines.append(f"best selected_count={result.omega.selected_count}")
    lines.append(f"best fitness={result.fitness!r}")
    lines.append(f"best accuracy={result.accuracy!r}")
    lines.append(f"best diversity={result.diversity!r}")
    return "\n".join(lines) + "\n"
