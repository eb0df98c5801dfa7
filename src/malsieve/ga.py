"""Genetic search for the best sub-ensemble.

Chromosomes are 0/1 masks over the learner pool, and a population is one
(P x N) int8 array of them, one row per chromosome. Each generation runs
crossover, then per-gene mutation, then fitness evaluation, then
selection (elitism plus fitness-proportional roulette). The objective is

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
builds. A run turns that matrix into the (N x N) distance matrix once and
then scores each generation with one `fitness` call on the whole
population: the votes of all P chromosomes are one (P x N) @ (N x M)
product through `ensemble.majority_vote_matrix`, and each chromosome's
diversity sums the cached distances between its selected pairs. Nothing
is memoised; a chromosome that recurs is scored again.

The by-selected-count normalization makes the factor grow roughly
linearly with ensemble size; diversity_norm="pairs" divides by the pair
count instead for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    EnsemblePool,
    WeightVector,
    majority_vote_matrix,
    precompute_predictions,
    selection_masks,
)
from .errors import EmptyDataset, InvalidConfig, LengthMismatch, value_text
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
    # float64 for BLAS; exact, as every partial sum is an integer of at most M
    P = matrix.astype(np.float64)
    sq = 2 * (P.shape[1] - P @ P.T)  # (p_i - p_j)^2 sums over samples
    return np.sqrt(sq)


def diversity(
    matrix: np.ndarray,
    masks,
    norm: str = "selected",
    distances: np.ndarray | None = None,
):
    """Summed pairwise Euclidean distance between the prediction rows a
    0/1 mask selects, divided by the selected count ("selected") or pair
    count ("pairs"). One selected learner has no pairs: the factor is 0.
    An (N,) mask gives a float, a (P x N) stack one value per row.

    `distances` is `pairwise_distances(matrix)`; a caller that scores many
    masks computes it once and passes it in. That saves under 0.5% of a
    run, but lets a test pass distances no prediction matrix gives.
    """
    if norm not in DIVERSITY_NORMS:
        raise InvalidConfig(f"diversity norm must be one of {DIVERSITY_NORMS}")
    masks = selection_masks(masks, matrix.shape[0])
    if distances is None:
        distances = pairwise_distances(matrix)
    rows = np.atleast_2d(masks).astype(bool)
    i, j = np.triu_indices(matrix.shape[0], 1)
    upper = distances[i, j]  # row-major pair order
    totals = np.array([np.sum(upper[pairs]) for pairs in rows[:, i] & rows[:, j]])
    k = rows.sum(axis=1)
    denom = k if norm == "selected" else np.maximum(k * (k - 1) // 2, 1)
    values = totals / denom
    return values if masks.ndim == 2 else float(values[0])


def _accuracy(matrix: np.ndarray, labels: np.ndarray, masks):
    return np.mean(majority_vote_matrix(matrix, masks) == labels, axis=-1)


def fitness(
    matrix: np.ndarray,
    labels: np.ndarray,
    masks,
    norm: str = "selected",
    distances: np.ndarray | None = None,
):
    """Majority-vote accuracy times diversity factor, for one (N,) mask or
    for each row of a (P x N) stack; `distances` as in `diversity`."""
    return _accuracy(matrix, labels, masks) * diversity(matrix, masks, norm, distances)


# --- operators; a population is a (P x N) int8 array of 0/1 rows ---

def _repair(population: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An all-zero chromosome cannot vote; set one random gene in each,
    in row order."""
    for row in np.flatnonzero(~population.any(axis=1)):
        population[row, rng.integers(0, population.shape[1])] = 1
    return population


def init_population(pop_size: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """pop_size chromosomes, each gene Bernoulli(0.5), repaired."""
    return _repair(rng.integers(0, 2, size=(pop_size, n)).astype(np.int8), rng)


def crossover(
    population: np.ndarray, crossover_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Single-point tail exchange over pairs drawn in shuffled order.

    Each pair crosses with probability crossover_rate at a cut uniform in
    [1, N-1]; an odd leftover chromosome passes through. Offspring are
    emitted in pairing order, so the per-column gene multiset is
    preserved (before repair).
    """
    out = population[rng.permutation(population.shape[0])]
    n = out.shape[1]
    for a in range(0, out.shape[0] - 1, 2):
        if n >= 2 and rng.random() < crossover_rate:
            cut = int(rng.integers(1, n))
            out[[a, a + 1], cut:] = out[[a + 1, a], cut:]
    return _repair(out, rng)


def mutation(
    population: np.ndarray, mutation_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Independent per-gene flips, then repair, one chromosome at a time."""
    out = population.copy()
    for row in out:
        row ^= rng.random(out.shape[1]) < mutation_rate
        _repair(row[np.newaxis], rng)
    return out


def select_newpop(
    population: np.ndarray,
    fitnesses: np.ndarray,
    elite_count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Keep the elite_count fittest unchanged (ties by lower index), fill
    the rest by fitness-proportional roulette; all-zero fitness mass
    degenerates to uniform."""
    if population.shape[0] != fitnesses.shape[0]:
        raise LengthMismatch("one fitness value per chromosome required")
    if np.any(~np.isfinite(fitnesses)) or np.any(fitnesses < 0):
        raise ValueError("fitness values must be finite and >= 0")
    elite = np.argsort(-fitnesses, kind="stable")[:elite_count]
    total = float(np.sum(fitnesses))
    probs = fitnesses / total if total > 0 else None
    picks = rng.choice(population.shape[0], size=population.shape[0] - elite_count,
                       replace=True, p=probs)
    return population[np.concatenate([elite, picks])]


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


def run_ga(pool: EnsemblePool, data: Dataset, config: GAConfig = GAConfig()) -> GAResult:
    """Search weight vectors over the pool against the dataset's labels;
    returns the best chromosome ever evaluated, its fitness decomposition
    and per-generation stats. Deterministic per config.rng_seed. A dataset
    of the pool's dimension without samples raises EmptyDataset.
    """
    matrix = precompute_predictions(pool.learners, data)
    if len(data) == 0:
        raise EmptyDataset("the GA needs at least one sample to score")
    y = data.label_array()
    distances = pairwise_distances(matrix)
    rng = make_rng(config.rng_seed, "ga")

    population = init_population(config.pop_size, pool.size, rng)
    best: np.ndarray | None = None
    best_fit = -1.0
    history: list[GenerationStats] = []

    for generation in range(1, config.max_iter + 1):
        population = crossover(population, config.crossover_rate, rng)
        population = mutation(population, config.mutation_rate, rng)
        fits = fitness(matrix, y, population, config.diversity_norm, distances)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best = population[gen_best].copy()
        history.append(
            GenerationStats(generation, float(fits[gen_best]), float(np.mean(fits)))
        )
        population = select_newpop(population, fits, config.elite_count, rng)

    assert best is not None
    return GAResult(
        omega=WeightVector(tuple(best.tolist())),
        fitness=best_fit,
        accuracy=float(_accuracy(matrix, y, best)),
        diversity=diversity(matrix, best, config.diversity_norm, distances),
        history=tuple(history),
    )


def format_ga_report(result: GAResult, config: GAConfig) -> str:
    """Human- and machine-readable run summary."""
    lines = ["malsieve-ga-report v1"]
    lines += [f"config {f.name}={value_text(getattr(config, f.name))}" for f in fields(config)]
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
