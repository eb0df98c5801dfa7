import numpy as np
import pytest

from malsieve.ensemble import WeightVector, precompute_predictions
from malsieve.errors import AllZeroWeights, EmptyDataset, InvalidConfig
from malsieve.ga import (
    DIVERSITY_NORMS,
    GAConfig,
    crossover,
    diversity,
    fitness,
    format_ga_report,
    init_population,
    mutation,
    pairwise_distances,
    run_ga,
    select_newpop,
)
from malsieve.learners import decision_values
from malsieve.rng import make_rng
from malsieve.vectorize import Dataset

from mlfixtures import (
    brute_force_diversity,
    brute_force_fitness,
    exhaustive_best_fitness,
    one_hot_dataset,
    pool_from_matrix,
    random_sign_matrix,
)


# --- prediction matrix ---

def test_precompute_single_cell():
    matrix = np.array([[1]], dtype=np.int8)
    pool = pool_from_matrix(matrix)
    computed = precompute_predictions(pool.learners, one_hot_dataset(1))
    assert computed.shape == (1, 1)
    assert computed[0, 0] == 1


def test_precompute_matches_predict_label():
    rng = np.random.default_rng(3)
    matrix = random_sign_matrix(rng, 4, 12)
    pool = pool_from_matrix(matrix)
    data = one_hot_dataset(12)
    X = data.to_dense()
    computed = precompute_predictions(pool.learners, data)
    for _ in range(20):
        i = int(rng.integers(0, 4))
        k = int(rng.integers(0, 12))
        learner = pool.learners[i]
        expected = np.where(decision_values(learner.kind, learner.params, X) >= 0, 1, -1)
        assert computed[i, k] == expected[k]
    assert np.array_equal(computed, precompute_predictions(pool.learners, data))


# --- diversity ---

def test_identical_learners_have_zero_diversity():
    row = np.array([1, -1, 1, 1], dtype=np.int8)
    matrix = np.vstack([row, row, row])
    assert diversity(matrix, (1, 1, 1)) == 0.0


def test_two_learners_one_disagreement():
    matrix = np.array([[1, 1, 1, 1], [1, 1, 1, -1]], dtype=np.int8)
    assert diversity(matrix, (1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_three_learner_worked_example():
    matrix = np.array(
        [[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, -1, 1]], dtype=np.int8
    )
    value = diversity(matrix, (1, 1, 1))
    expected = (2.0 + np.sqrt(8.0) + np.sqrt(12.0)) / 3.0
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(2.7642, abs=1e-4)


def test_single_selection_diversity_zero():
    rng = np.random.default_rng(0)
    matrix = random_sign_matrix(rng, 5, 9)
    assert diversity(matrix, (0, 0, 1, 0, 0)) == 0.0


def test_diversity_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 51))
        matrix = random_sign_matrix(rng, n, m)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if not any(bits):
            bits = (1,) + bits[1:]
        for norm in ("selected", "pairs"):
            mine = diversity(matrix, bits, norm)
            oracle = brute_force_diversity(matrix, bits, norm)
            assert mine == pytest.approx(oracle, abs=1e-9)


def test_diversity_ignores_deselected_rows_and_order():
    rng = np.random.default_rng(13)
    matrix = random_sign_matrix(rng, 6, 20)
    bits = (1, 0, 1, 0, 1, 0)
    baseline = diversity(matrix, bits)
    # permute the selected rows among themselves
    permuted = matrix.copy()
    permuted[[0, 2, 4]] = matrix[[4, 0, 2]]
    assert diversity(permuted, bits) == pytest.approx(baseline, abs=1e-12)
    # rewrite the deselected rows entirely
    scrambled = matrix.copy()
    scrambled[[1, 3, 5]] = -scrambled[[1, 3, 5]]
    assert diversity(scrambled, bits) == baseline


def test_diversity_upper_bound():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 40))
        matrix = random_sign_matrix(rng, n, m)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if not any(bits):
            bits = (1,) + bits[1:]
        n_sel = sum(bits)
        bound = (n_sel - 1) / 2 * 2 * np.sqrt(m)
        assert diversity(matrix, bits) <= bound + 1e-9


def test_diversity_rejects_all_zero():
    with pytest.raises(AllZeroWeights):
        diversity(np.array([[1, -1]], dtype=np.int8), (0,))


# --- fitness ---

def test_single_learner_fitness_zero():
    rng = np.random.default_rng(19)
    matrix = random_sign_matrix(rng, 4, 10)
    labels = random_sign_matrix(rng, 1, 10)[0]
    assert fitness(matrix, labels, (0, 1, 0, 0)) == 0.0


def test_fitness_decomposition_fixture():
    # two learners disagreeing on the last of four samples; majority vote
    # (tie -> +1) gets three of four labels right
    matrix = np.array([[1, 1, -1, -1], [1, 1, -1, 1]], dtype=np.int8)
    labels = np.array([1, 1, -1, -1], dtype=np.int8)
    omega = (1, 1)
    assert diversity(matrix, omega) == pytest.approx(1.0, abs=1e-12)
    assert fitness(matrix, labels, omega) == pytest.approx(0.75, abs=1e-12)


def test_always_wrong_ensemble_fitness_zero():
    labels = np.array([1, 1, 1, 1], dtype=np.int8)
    matrix = np.array([[-1, -1, -1, -1], [-1, -1, -1, -1]], dtype=np.int8)
    assert fitness(matrix, labels, (1, 1)) == 0.0


def test_fitness_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 30))
        matrix = random_sign_matrix(rng, n, m)
        labels = random_sign_matrix(rng, 1, m)[0]
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if not any(bits):
            bits = (1,) + bits[1:]
        mine = fitness(matrix, labels, bits)
        oracle = brute_force_fitness(matrix, labels, bits)
        assert mine == pytest.approx(oracle, abs=1e-9)


def test_stacked_masks_score_row_by_row():
    rng = np.random.default_rng(31)
    matrix = random_sign_matrix(rng, 7, 25)
    labels = random_sign_matrix(rng, 1, 25)[0]
    masks = rng.integers(0, 2, size=(40, 7))
    masks[:, 0] = 1
    for norm in ("selected", "pairs"):
        div = diversity(matrix, masks, norm)
        fit = fitness(matrix, labels, masks, norm)
        assert div.shape == fit.shape == (40,)
        for mask, d, f in zip(masks, div, fit):
            assert d == diversity(matrix, mask, norm)
            assert f == fitness(matrix, labels, mask, norm)


# --- operators ---

def population(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.int8)


def test_init_population_repairs_single_gene():
    pop = init_population(2, 1, make_rng(0))
    assert pop.tolist() == [[1], [1]]


def test_init_population_deterministic():
    a = init_population(10, 8, make_rng(42))
    b = init_population(10, 8, make_rng(42))
    assert np.array_equal(a, b)


def test_init_population_gene_mean_near_half():
    rng = make_rng(7)
    pop = init_population(1000, 10, rng)
    mean = np.mean(pop)
    assert abs(mean - 0.5) <= 0.02


def test_crossover_rate_zero_preserves_population():
    rng = make_rng(1)
    pop = init_population(8, 6, rng)
    after = crossover(pop, 0.0, make_rng(2))
    assert sorted(after.tolist()) == sorted(pop.tolist())


def test_crossover_single_point_tail_exchange():
    parents = population((1, 1, 1, 1), (0, 0, 0, 0))
    seen_cuts = set()
    for seed in range(30):
        offspring = crossover(parents, 1.0, make_rng(seed))
        combined = sorted(tuple(c) for c in offspring.tolist())
        # one offspring starts with the head of one parent and ends with
        # the tail of the other; cut in [1, 3]
        ones_first = max(combined)
        cut = sum(ones_first)
        if ones_first[0] == 1:
            assert ones_first == tuple([1] * cut + [0] * (4 - cut))
            seen_cuts.add(cut)
    assert seen_cuts <= {1, 2, 3}
    assert 2 in seen_cuts


def test_crossover_preserves_column_multisets():
    # bits 0 and N-1 forced on so no offspring can be all-zero and repair
    # never fires, making the conservation law exact
    rng = np.random.default_rng(29)
    for trial in range(20):
        rows = []
        for _ in range(10):
            middle = tuple(int(b) for b in rng.integers(0, 2, size=4))
            rows.append((1,) + middle + (1,))
        pop = population(*rows)
        after = crossover(pop, 0.8, make_rng(trial))
        before_counts = np.sum(pop, axis=0)
        after_counts = np.sum(after, axis=0)
        assert np.array_equal(before_counts, after_counts)


def test_mutation_rate_zero_is_identity():
    pop = init_population(6, 5, make_rng(3))
    after = mutation(pop, 0.0, make_rng(4))
    assert np.array_equal(after, pop)


def test_mutation_rate_one_complements():
    pop = population((1, 0, 1, 0))
    after = mutation(pop, 1.0, make_rng(5))
    assert after[0].tolist() == [0, 1, 0, 1]


def test_mutation_flip_frequency():
    genes = 10_000
    chrom = population([1, 0] * (genes // 2))
    for rate in (0.05, 0.3):
        after = mutation(chrom, rate, make_rng(6))
        flips = int(np.sum(chrom[0] != after[0]))
        assert abs(flips / genes - rate) <= 0.02


def test_selection_all_mass_on_one_chromosome():
    pop = population((1, 0), (0, 1), (1, 1))
    fits = np.array([0.0, 5.0, 0.0])
    new = select_newpop(pop, fits, 0, make_rng(7))
    assert all(np.array_equal(c, pop[1]) for c in new)


def test_selection_full_elitism_sorts():
    pop = population((1, 0), (0, 1), (1, 1))
    fits = np.array([1.0, 3.0, 2.0])
    new = select_newpop(pop, fits, 3, make_rng(8))
    assert np.array_equal(new, pop[[1, 2, 0]])


def test_selection_elite_ties_broken_by_lower_index():
    pop = population((1, 0), (0, 1), (1, 1))
    fits = np.array([2.0, 2.0, 1.0])
    new = select_newpop(pop, fits, 2, make_rng(9))
    assert np.array_equal(new[:2], pop[[0, 1]])


def test_selection_roulette_proportional_to_fitness():
    pop = population((1, 0, 0), (0, 1, 0),
                     (0, 0, 1), (1, 1, 1))
    fits = np.array([1.0, 2.0, 3.0, 4.0])
    rng = make_rng(10)
    counts = {tuple(c): 0 for c in pop.tolist()}
    draws = 0
    for _ in range(2500):
        for picked in select_newpop(pop, fits, 0, rng).tolist():
            counts[tuple(picked)] += 1
            draws += 1
    total_fitness = float(np.sum(fits))
    for chrom, fit in zip(pop.tolist(), fits):
        p = fit / total_fitness
        sigma = np.sqrt(draws * p * (1 - p))
        assert abs(counts[tuple(chrom)] - draws * p) <= 3 * sigma


def test_selection_zero_mass_degenerates_to_uniform():
    pop = population((1, 0), (0, 1))
    fits = np.array([0.0, 0.0])
    rng = make_rng(11)
    counts = {(1, 0): 0, (0, 1): 0}
    for _ in range(2000):
        for picked in select_newpop(pop, fits, 0, rng).tolist():
            counts[tuple(picked)] += 1
    assert abs(counts[(1, 0)] - 2000) <= 3 * np.sqrt(4000 * 0.25)


# --- full GA runs ---

def fixture_problem(seed=0, n=8, m=40):
    rng = np.random.default_rng(seed)
    matrix = random_sign_matrix(rng, n, m)
    labels = random_sign_matrix(rng, 1, m)[0]
    pool = pool_from_matrix(matrix)
    data = one_hot_dataset(m, labels.tolist())
    return pool, data, matrix, labels


def test_run_ga_trivial_generation():
    pool, data, matrix, labels = fixture_problem(seed=1, n=6, m=20)
    config = GAConfig(
        pop_size=2, max_iter=1, crossover_rate=0.0, mutation_rate=0.0,
        elite_count=0, rng_seed=5,
    )
    result = run_ga(pool, data, config=config)
    # with inert operators the evaluated population is the initial one
    initial = init_population(2, pool.size, make_rng(config.rng_seed, "ga"))
    expected = max(
        fitness(matrix, labels, c) for c in initial
    )
    assert result.fitness == expected
    assert list(result.omega.bits) in initial.tolist()


def test_run_ga_deterministic():
    pool, data, _, _ = fixture_problem(seed=2)
    config = GAConfig(pop_size=10, max_iter=8, rng_seed=3)
    a = run_ga(pool, data, config=config)
    b = run_ga(pool, data, config=config)
    assert a == b


def test_run_ga_history_and_best_consistency():
    pool, data, _, _ = fixture_problem(seed=4)
    config = GAConfig(pop_size=12, max_iter=15, rng_seed=6)
    result = run_ga(pool, data, config=config)
    assert len(result.history) == 15
    assert [s.generation for s in result.history] == list(range(1, 16))
    assert result.fitness == max(s.best_fitness for s in result.history)
    for s in result.history:
        assert s.mean_fitness <= s.best_fitness + 1e-12
    assert result.fitness == pytest.approx(result.accuracy * result.diversity, abs=1e-12)


def test_run_ga_never_beats_exhaustive_and_usually_matches():
    hits = 0
    for seed in range(6):
        pool, data, matrix, labels = fixture_problem(seed=seed, n=8, m=30)
        best, _ = exhaustive_best_fitness(matrix, labels)
        result = run_ga(
            pool, data, config=GAConfig(pop_size=20, max_iter=30, rng_seed=seed)
        )
        assert result.fitness <= best
        hits += result.fitness == best
    assert hits >= 4


@pytest.mark.filterwarnings("error")
def test_run_ga_on_empty_dataset_raises_empty_dataset():
    pool, _, _, _ = fixture_problem(seed=5, n=4, m=10)
    with pytest.raises(EmptyDataset):
        run_ga(pool, Dataset([], dimension=pool.dim), config=GAConfig())


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        GAConfig(pop_size=1)
    with pytest.raises(InvalidConfig):
        GAConfig(crossover_rate=1.5)
    with pytest.raises(InvalidConfig):
        GAConfig(elite_count=30, pop_size=30)
    with pytest.raises(InvalidConfig):
        GAConfig(diversity_norm="cosine")


def test_ga_report_contents():
    pool, data, _, _ = fixture_problem(seed=7, n=5, m=12)
    config = GAConfig(pop_size=6, max_iter=4, rng_seed=1)
    result = run_ga(pool, data, config=config)
    report = format_ga_report(result, config)
    assert report.startswith("malsieve-ga-report v1\n")
    assert f"best omega={result.omega.to_string()}" in report
    assert "generation 4 " in report
    assert "best accuracy=" in report and "best diversity=" in report
    assert "fitness_split" not in report


@pytest.mark.parametrize("norm", ["selected", "pairs"])
def test_run_ga_matches_per_call_fitness(monkeypatch, norm):
    """run_ga's one distance matrix per run gives the GAResult of scoring
    every generation from the prediction matrix alone."""
    import malsieve.ga as ga

    pool, data, matrix, labels = fixture_problem(seed=8, n=12, m=60)
    config = GAConfig(pop_size=16, max_iter=20, rng_seed=4, diversity_norm=norm)
    result = run_ga(pool, data, config=config)

    per_call = ga.fitness
    calls = []

    def fitness_without_distances(matrix, labels, masks, norm="selected", distances=None):
        calls.append(masks.shape)
        return per_call(matrix, labels, masks, norm)

    monkeypatch.setattr(ga, "fitness", fitness_without_distances)
    assert run_ga(pool, data, config=config) == result
    # one call per generation, on the whole population
    assert calls == [(config.pop_size, pool.size)] * config.max_iter
    assert result.diversity == diversity(matrix, result.omega.bits, norm)


# --- equivalence with the per-chromosome GA that the array GA replaced ---
#
# A frozen copy of the earlier run_ga and its operators: populations are
# lists of WeightVector, fitness is memoised per distinct chromosome and
# computed one chromosome at a time. run_ga must return an equal GAResult,
# history floats included.

def _ref_vote(matrix, omega):
    sel = [i for i, b in enumerate(omega.bits) if b]
    sums = matrix[sel].sum(axis=0, dtype=np.int64)
    return np.where(sums >= 0, 1, -1).astype(np.int8)


def _ref_accuracy(matrix, labels, omega):
    return float(np.mean(_ref_vote(matrix, omega) == labels))


def _ref_distances(matrix):
    P = matrix.astype(np.int64)
    return np.sqrt((2 * (P.shape[1] - P @ P.T)).astype(np.float64))


def _ref_diversity(omega, norm, distances):
    sel = [i for i, b in enumerate(omega.bits) if b]
    k = len(sel)
    if k == 1:
        return 0.0
    dist = distances[np.ix_(sel, sel)]
    total = float(np.sum(dist[np.triu_indices(k, 1)]))
    return total / (k if norm == "selected" else k * (k - 1) // 2)


def _ref_repair(bits, rng):
    if not bits.any():
        bits = bits.copy()
        bits[rng.integers(0, bits.shape[0])] = 1
    return bits


def _ref_population(rows):
    return [WeightVector(tuple(int(b) for b in row)) for row in rows]


def _ref_init(pop_size, n, rng):
    rows = [rng.integers(0, 2, size=n) for _ in range(pop_size)]
    return _ref_population([_ref_repair(r, rng) for r in rows])


def _ref_crossover(population, rate, rng):
    order = rng.permutation(len(population))
    n = len(population[0].bits)
    out = []
    for slot in range(0, len(order) - 1, 2):
        a = np.array(population[order[slot]].bits)
        b = np.array(population[order[slot + 1]].bits)
        if n >= 2 and rng.random() < rate:
            cut = int(rng.integers(1, n))
            a, b = (
                np.concatenate([a[:cut], b[cut:]]),
                np.concatenate([b[:cut], a[cut:]]),
            )
        out.append(a)
        out.append(b)
    if len(order) % 2:
        out.append(np.array(population[order[-1]].bits))
    return _ref_population([_ref_repair(r, rng) for r in out])


def _ref_mutation(population, rate, rng):
    out = []
    for chrom in population:
        bits = np.array(chrom.bits)
        flips = rng.random(bits.shape[0]) < rate
        out.append(_ref_repair(np.where(flips, 1 - bits, bits), rng))
    return _ref_population(out)


def _ref_select(population, fitnesses, elite_count, rng):
    order = sorted(range(len(population)), key=lambda i: (-fitnesses[i], i))
    new_pop = [population[i] for i in order[:elite_count]]
    total = float(np.sum(fitnesses))
    probs = fitnesses / total if total > 0 else None
    picks = rng.choice(
        len(population), size=len(population) - elite_count, replace=True, p=probs
    )
    new_pop.extend(population[i] for i in picks)
    return new_pop


def reference_run_ga(pool, data, config):
    from malsieve.ga import GAResult, GenerationStats

    matrix = precompute_predictions(pool.learners, data)
    y = data.label_array()
    distances = _ref_distances(matrix)
    rng = make_rng(config.rng_seed, "ga")
    memo = {}

    def evaluate(chrom):
        if chrom.bits not in memo:
            memo[chrom.bits] = _ref_accuracy(matrix, y, chrom) * _ref_diversity(
                chrom, config.diversity_norm, distances
            )
        return memo[chrom.bits]

    population = _ref_init(config.pop_size, pool.size, rng)
    best_bits, best_fit, history = None, -1.0, []
    for generation in range(1, config.max_iter + 1):
        population = _ref_crossover(population, config.crossover_rate, rng)
        population = _ref_mutation(population, config.mutation_rate, rng)
        fits = np.array([evaluate(c) for c in population])
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_bits = population[gen_best]
        history.append(
            GenerationStats(generation, float(fits[gen_best]), float(np.mean(fits)))
        )
        population = _ref_select(population, fits, config.elite_count, rng)
    return GAResult(
        omega=best_bits,
        fitness=best_fit,
        accuracy=_ref_accuracy(matrix, y, best_bits),
        diversity=_ref_diversity(best_bits, config.diversity_norm, distances),
        history=tuple(history),
    )


def reference_problem(seed: int):
    """Seed s has N = 1 + s % 30 learners and pop_size 2 + 7s % 29, and
    cycles both norms, crossover and mutation rates {0, 1, typical, other}
    and elite_count {0, pop_size - 1, 1}."""
    rng = np.random.default_rng(1000 + seed)
    n = 1 + seed % 30
    m = int(rng.integers(1, 41))
    matrix = random_sign_matrix(rng, n, m)
    labels = random_sign_matrix(rng, 1, m)[0]
    pop_size = 2 + (7 * seed) % 29
    config = GAConfig(
        pop_size=pop_size,
        max_iter=1 + seed % 7,
        crossover_rate=(0.0, 1.0, 0.8, 0.35)[seed % 4],
        mutation_rate=(0.0, 1.0, 0.05, 0.2)[(seed // 4) % 4],
        elite_count=(0, pop_size - 1, 1)[seed % 3],
        rng_seed=seed,
        diversity_norm=DIVERSITY_NORMS[(seed // 2) % 2],
    )
    return pool_from_matrix(matrix), one_hot_dataset(m, labels.tolist()), config


@pytest.mark.parametrize("seed", range(64))
def test_run_ga_matches_per_chromosome_reference(seed):
    pool, data, config = reference_problem(seed)
    result = run_ga(pool, data, config=config)
    expected = reference_run_ga(pool, data, config)
    assert result == expected
    assert format_ga_report(result, config) == format_ga_report(expected, config)


def test_float_product_distances_equal_the_int64_product():
    # pairwise_distances multiplies in float64 for BLAS; bit for bit the
    # same as the int64 product, identical rows (distance 0) included
    rng = np.random.default_rng(21)
    for n, m in ((1, 5), (6, 1), (30, 600), (50, 2001)):
        matrix = random_sign_matrix(rng, n, m)
        matrix[n // 2] = matrix[0]
        assert np.array_equal(pairwise_distances(matrix), _ref_distances(matrix))
