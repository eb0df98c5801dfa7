import numpy as np
import pytest

from malsieve.ensemble import WeightVector, precompute_predictions
from malsieve.errors import AllZeroWeights, EmptyDataset, InvalidConfig, LengthMismatch
from malsieve.ga import (
    GAConfig,
    crossover,
    diversity,
    fitness,
    format_ga_report,
    init_population,
    mutation,
    run_ga,
    select_newpop,
)
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
    computed = precompute_predictions(pool, one_hot_dataset(1))
    assert computed.shape == (1, 1)
    assert computed[0, 0] == 1


def test_precompute_matches_predict_label():
    rng = np.random.default_rng(3)
    matrix = random_sign_matrix(rng, 4, 12)
    pool = pool_from_matrix(matrix)
    data = one_hot_dataset(12)
    X = data.to_dense()
    computed = precompute_predictions(pool, data)
    for _ in range(20):
        i = int(rng.integers(0, 4))
        k = int(rng.integers(0, 12))
        expected = np.where(pool.learners[i].margins(X) >= 0, 1, -1)
        assert computed[i, k] == expected[k]
    assert np.array_equal(computed, precompute_predictions(pool, data))


# --- diversity ---

def test_identical_learners_have_zero_diversity():
    row = np.array([1, -1, 1, 1], dtype=np.int8)
    matrix = np.vstack([row, row, row])
    assert diversity(matrix, WeightVector((1, 1, 1))) == 0.0


def test_two_learners_one_disagreement():
    matrix = np.array([[1, 1, 1, 1], [1, 1, 1, -1]], dtype=np.int8)
    assert diversity(matrix, WeightVector((1, 1))) == pytest.approx(1.0, abs=1e-12)


def test_three_learner_worked_example():
    matrix = np.array(
        [[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, -1, 1]], dtype=np.int8
    )
    value = diversity(matrix, WeightVector((1, 1, 1)))
    expected = (2.0 + np.sqrt(8.0) + np.sqrt(12.0)) / 3.0
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(2.7642, abs=1e-4)


def test_single_selection_diversity_zero():
    rng = np.random.default_rng(0)
    matrix = random_sign_matrix(rng, 5, 9)
    assert diversity(matrix, WeightVector((0, 0, 1, 0, 0))) == 0.0


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
            mine = diversity(matrix, WeightVector(bits), norm)
            oracle = brute_force_diversity(matrix, bits, norm)
            assert mine == pytest.approx(oracle, abs=1e-9)


def test_diversity_ignores_deselected_rows_and_order():
    rng = np.random.default_rng(13)
    matrix = random_sign_matrix(rng, 6, 20)
    bits = (1, 0, 1, 0, 1, 0)
    baseline = diversity(matrix, WeightVector(bits))
    # permute the selected rows among themselves
    permuted = matrix.copy()
    permuted[[0, 2, 4]] = matrix[[4, 0, 2]]
    assert diversity(permuted, WeightVector(bits)) == pytest.approx(baseline, abs=1e-12)
    # rewrite the deselected rows entirely
    scrambled = matrix.copy()
    scrambled[[1, 3, 5]] = -scrambled[[1, 3, 5]]
    assert diversity(scrambled, WeightVector(bits)) == baseline


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
        assert diversity(matrix, WeightVector(bits)) <= bound + 1e-9


def test_diversity_rejects_all_zero():
    with pytest.raises(AllZeroWeights):
        diversity(np.array([[1, -1]], dtype=np.int8), WeightVector((0,)))


# --- fitness ---

def test_single_learner_fitness_zero():
    rng = np.random.default_rng(19)
    matrix = random_sign_matrix(rng, 4, 10)
    labels = random_sign_matrix(rng, 1, 10)[0]
    assert fitness(matrix, labels, WeightVector((0, 1, 0, 0))) == 0.0


def test_fitness_decomposition_fixture():
    # two learners disagreeing on the last of four samples; majority vote
    # (tie -> +1) gets three of four labels right
    matrix = np.array([[1, 1, -1, -1], [1, 1, -1, 1]], dtype=np.int8)
    labels = np.array([1, 1, -1, -1], dtype=np.int8)
    omega = WeightVector((1, 1))
    assert diversity(matrix, omega) == pytest.approx(1.0, abs=1e-12)
    assert fitness(matrix, labels, omega) == pytest.approx(0.75, abs=1e-12)


def test_always_wrong_ensemble_fitness_zero():
    labels = np.array([1, 1, 1, 1], dtype=np.int8)
    matrix = np.array([[-1, -1, -1, -1], [-1, -1, -1, -1]], dtype=np.int8)
    assert fitness(matrix, labels, WeightVector((1, 1))) == 0.0


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
        mine = fitness(matrix, labels, WeightVector(bits))
        oracle = brute_force_fitness(matrix, labels, bits)
        assert mine == pytest.approx(oracle, abs=1e-9)


# --- operators ---

def test_init_population_repairs_single_gene():
    pop = init_population(2, 1, make_rng(0))
    assert [c.bits for c in pop] == [(1,), (1,)]


def test_init_population_deterministic():
    a = init_population(10, 8, make_rng(42))
    b = init_population(10, 8, make_rng(42))
    assert a == b


def test_init_population_gene_mean_near_half():
    rng = make_rng(7)
    pop = init_population(1000, 10, rng)
    mean = np.mean([np.mean(c.bits) for c in pop])
    assert abs(mean - 0.5) <= 0.02


def test_crossover_rate_zero_preserves_population():
    rng = make_rng(1)
    pop = init_population(8, 6, rng)
    after = crossover(pop, 0.0, make_rng(2))
    assert sorted(c.bits for c in after) == sorted(c.bits for c in pop)


def test_crossover_single_point_tail_exchange():
    parents = [WeightVector((1, 1, 1, 1)), WeightVector((0, 0, 0, 0))]
    seen_cuts = set()
    for seed in range(30):
        offspring = crossover(parents, 1.0, make_rng(seed))
        combined = sorted(c.bits for c in offspring)
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
        pop = []
        for _ in range(10):
            middle = tuple(int(b) for b in rng.integers(0, 2, size=4))
            pop.append(WeightVector((1,) + middle + (1,)))
        after = crossover(pop, 0.8, make_rng(trial))
        before_counts = np.sum([c.bits for c in pop], axis=0)
        after_counts = np.sum([c.bits for c in after], axis=0)
        assert np.array_equal(before_counts, after_counts)


def test_mutation_rate_zero_is_identity():
    pop = init_population(6, 5, make_rng(3))
    after = mutation(pop, 0.0, make_rng(4))
    assert after == pop


def test_mutation_rate_one_complements():
    pop = [WeightVector((1, 0, 1, 0))]
    after = mutation(pop, 1.0, make_rng(5))
    assert after[0].bits == (0, 1, 0, 1)


def test_mutation_flip_frequency():
    genes = 10_000
    chrom = WeightVector(tuple([1, 0] * (genes // 2)))
    for rate in (0.05, 0.3):
        after = mutation([chrom], rate, make_rng(6))
        flips = sum(a != b for a, b in zip(chrom.bits, after[0].bits))
        assert abs(flips / genes - rate) <= 0.02


def test_selection_all_mass_on_one_chromosome():
    pop = [WeightVector((1, 0)), WeightVector((0, 1)), WeightVector((1, 1))]
    fits = np.array([0.0, 5.0, 0.0])
    new = select_newpop(pop, fits, 0, make_rng(7))
    assert all(c == pop[1] for c in new)


def test_selection_full_elitism_sorts():
    pop = [WeightVector((1, 0)), WeightVector((0, 1)), WeightVector((1, 1))]
    fits = np.array([1.0, 3.0, 2.0])
    new = select_newpop(pop, fits, 3, make_rng(8))
    assert new == [pop[1], pop[2], pop[0]]


def test_selection_elite_ties_broken_by_lower_index():
    pop = [WeightVector((1, 0)), WeightVector((0, 1)), WeightVector((1, 1))]
    fits = np.array([2.0, 2.0, 1.0])
    new = select_newpop(pop, fits, 2, make_rng(9))
    assert new[:2] == [pop[0], pop[1]]


def test_selection_roulette_proportional_to_fitness():
    pop = [WeightVector((1, 0, 0)), WeightVector((0, 1, 0)),
           WeightVector((0, 0, 1)), WeightVector((1, 1, 1))]
    fits = np.array([1.0, 2.0, 3.0, 4.0])
    rng = make_rng(10)
    counts = {c.bits: 0 for c in pop}
    draws = 0
    for _ in range(2500):
        for picked in select_newpop(pop, fits, 0, rng):
            counts[picked.bits] += 1
            draws += 1
    total_fitness = float(np.sum(fits))
    for chrom, fit in zip(pop, fits):
        p = fit / total_fitness
        sigma = np.sqrt(draws * p * (1 - p))
        assert abs(counts[chrom.bits] - draws * p) <= 3 * sigma


def test_selection_zero_mass_degenerates_to_uniform():
    pop = [WeightVector((1, 0)), WeightVector((0, 1))]
    fits = np.array([0.0, 0.0])
    rng = make_rng(11)
    counts = {pop[0].bits: 0, pop[1].bits: 0}
    for _ in range(2000):
        for picked in select_newpop(pop, fits, 0, rng):
            counts[picked.bits] += 1
    assert abs(counts[pop[0].bits] - 2000) <= 3 * np.sqrt(4000 * 0.25)


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
    assert result.omega in initial


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


def test_run_ga_label_length_mismatch():
    pool, data, _, _ = fixture_problem(seed=5, n=4, m=10)
    with pytest.raises(LengthMismatch):
        run_ga(pool, data, labels=np.ones(3, dtype=np.int8), config=GAConfig())



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
    every chromosome from the prediction matrix alone."""
    import malsieve.ga as ga

    pool, data, matrix, labels = fixture_problem(seed=8, n=12, m=60)
    config = GAConfig(pop_size=16, max_iter=20, rng_seed=4, diversity_norm=norm)
    result = run_ga(pool, data, config=config)

    per_call = ga.fitness
    calls = []

    def fitness_without_distances(matrix, labels, omega, norm="selected", distances=None):
        calls.append(omega)
        return per_call(matrix, labels, omega, norm)

    monkeypatch.setattr(ga, "fitness", fitness_without_distances)
    assert run_ga(pool, data, config=config) == result
    assert len(calls) == len(set(calls)) > config.pop_size
    assert result.diversity == diversity(matrix, result.omega, norm)
