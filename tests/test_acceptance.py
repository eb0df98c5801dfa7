"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and time
budget and prints a single pass line (visible with `pytest -s` or in the
captured output). The heavyweight robustness experiment uses the bundled
benchmark config.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from malsieve.cli import main
from malsieve.ensemble import (
    WeightVector,
    bootstrap_indices,
    precompute_predictions,
    train_pool,
)
from malsieve.errors import MalformedAxml, MalformedDex, TruncatedArchive
from malsieve.evaluation import (
    NoiseSpec,
    SplitSpec,
    inject_label_noise,
    metrics_from_counts,
    split,
)
from malsieve.experiment import (
    ExperimentConfig,
    parse_config,
    repeated_experiment,
    synthetic_dataset,
)
from malsieve.ga import GAConfig, diversity, fitness, run_ga
from malsieve.learners import LearnerSpec, gradient, init_params

from binfixtures import STORED, build_dex, build_zip, simple_manifest
from mlfixtures import (
    brute_force_diversity,
    brute_force_vote,
    dense,
    exhaustive_best_fitness,
    one_hot_dataset,
    pool_from_matrix,
    random_sign_matrix,
)
from test_learners import finite_difference_gradients

REPO = Path(__file__).resolve().parent.parent


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"{self.name}: took {elapsed:.1f}s, budget {self.seconds:.0f}s"
            )
            print(f"\n[acceptance] {self.name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_voting_oracle():
    with Budget("1 voting oracle", 1.0):
        rng = np.random.default_rng(101)
        n, m = 6, 50
        matrix = random_sign_matrix(rng, n, m)
        from malsieve.ensemble import majority_vote_matrix, vote

        pool = pool_from_matrix(matrix)
        samples = one_hot_dataset(m)
        for bits in itertools.product((0, 1), repeat=n):
            if not any(bits):
                continue
            votes = majority_vote_matrix(matrix, bits)
            for k in range(m):
                expected = brute_force_vote(matrix, bits, k)
                assert votes[k] == expected
            # the learner-backed path on every column
            assert np.array_equal(vote(pool, WeightVector(bits), samples), votes)


def test_criterion_2_diversity_oracle():
    with Budget("2 diversity oracle", 1.0):
        rng = np.random.default_rng(202)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 51))
            matrix = random_sign_matrix(rng, n, m)
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            if not any(bits):
                bits = (1,) + bits[1:]
            mine = diversity(matrix, bits)
            oracle = brute_force_diversity(matrix, bits)
            assert abs(mine - oracle) <= 1e-9

        # worked examples
        row = np.array([1, -1, 1, 1], dtype=np.int8)
        assert diversity(np.vstack([row, row, row]), (1, 1, 1)) == 0.0
        two = np.array([[1, 1, 1, 1], [1, 1, 1, -1]], dtype=np.int8)
        assert abs(diversity(two, (1, 1)) - 1.0) <= 1e-9
        three = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, -1, 1]], dtype=np.int8)
        assert abs(diversity(three, (1, 1, 1)) - 2.7642) <= 1e-4


def ga_oracle_problem():
    data = synthetic_dataset(600, 20, 0.15, seed=123)
    train_set, val_set, _ = split(data, SplitSpec(seed=1))
    X, y = dense(train_set)
    pool = train_pool(
        X,
        inject_label_noise(y, y, NoiseSpec(0.1, seed=2)),
        12,
        LearnerSpec(kind="linear", learning_rate=0.5, epochs=10, rng_seed=0),
        master_seed=5,
    )
    return pool, val_set


def test_criterion_3_ga_matches_exhaustive_search():
    with Budget("3 GA vs exhaustive (N=12, 20 seeds)", 120.0):
        pool, val_set = ga_oracle_problem()
        matrix = precompute_predictions(pool.learners, val_set)
        labels = val_set.label_array()
        best, _ = exhaustive_best_fitness(matrix, labels)
        hits = 0
        for seed in range(20):
            result = run_ga(pool, val_set, config=GAConfig(rng_seed=seed))
            assert result.fitness <= best, "GA reported fitness above the optimum"
            hits += result.fitness == best
        assert hits >= 16, f"GA hit the optimum in only {hits}/20 runs"


def test_criterion_4_gradient_check():
    with Budget("4 gradient finite differences", 10.0):
        rng = np.random.default_rng(404)
        for case in range(20):
            kind = "linear" if case % 2 == 0 else "mlp"
            d = int(rng.integers(2, 11))
            X = rng.integers(0, 2, size=(5, d)).astype(np.float64)
            y = np.where(rng.random(5) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            l2 = float(rng.choice([0.0, 0.01]))
            if kind == "linear":
                params = {"w": rng.normal(size=d), "b": rng.normal(size=1)}
            else:
                params = init_params(
                    LearnerSpec(kind="mlp", hidden_units=4, rng_seed=case), d
                )
                params = {
                    k: v + rng.normal(scale=0.3, size=v.shape)
                    for k, v in params.items()
                }
            analytic = gradient(kind, params, X, y, l2)
            numeric = finite_difference_gradients(kind, params, X, y, l2)
            a = np.concatenate([analytic[k].ravel() for k in sorted(params)])
            f = np.concatenate([numeric[k].ravel() for k in sorted(params)])
            rel = np.linalg.norm(a - f) / max(np.linalg.norm(a) + np.linalg.norm(f), 1e-12)
            assert rel <= 1e-4, f"case {case} ({kind}): relative error {rel:.2e}"


@pytest.mark.slow
def test_criterion_5_robustness_experiment():
    with Budget("5 robustness experiment (30 repeats)", 600.0):
        config = parse_config((REPO / "configs" / "synthetic-benchmark.cfg").read_text())
        assert config.repeats == 30
        assert config.pool_size == 20
        assert config.synthetic_samples == 2000
        assert config.synthetic_features == 50
        assert config.noise_fraction == 0.1
        summary = repeated_experiment(config)
        single = summary.summaries[("single", "f1")]
        full = summary.summaries[("full_pool", "f1")]
        selective = summary.summaries[("selective", "f1")]
        assert selective.mean >= single.mean, (
            f"selective mean F1 {selective.mean:.4f} < single {single.mean:.4f}"
        )
        assert selective.std <= single.std, (
            f"selective F1 std {selective.std:.4f} > single {single.std:.4f}"
        )
        assert selective.mean >= full.mean - 0.01, (
            f"selective mean F1 {selective.mean:.4f} more than 0.01 below "
            f"full pool {full.mean:.4f}"
        )


def test_criterion_6_bootstrap_distinct_fraction():
    with Budget("6 bootstrap distinct fraction", 5.0):
        m = 1000
        fractions = [len(set(bootstrap_indices(m, seed).tolist())) / m for seed in range(50)]
        observed = float(np.mean(fractions))
        expected = 1.0 - (1.0 - 1.0 / m) ** m  # ~0.632
        assert abs(observed - expected) <= 0.02


def test_criterion_7_parser_fixtures():
    with Budget("7 parser fixtures", 1.0):
        from malsieve.archive import parse_archive
        from malsieve.axml import parse_manifest
        from malsieve.dex import parse_dex

        perms = ["android.permission.SEND_SMS", "android.permission.INTERNET"]
        actions = ["android.intent.action.BOOT_COMPLETED"]
        manifest_payload = simple_manifest(perms, actions)
        features = parse_manifest(manifest_payload)
        assert features.permissions == tuple(perms)
        assert features.intent_actions == tuple(actions)

        dex_payload = build_dex([("Landroid/telephony/SmsManager;", "sendTextMessage")])
        assert parse_dex(dex_payload) == (
            "Landroid/telephony/SmsManager;->sendTextMessage",
        )

        # corrupted variants must raise typed errors, never crash
        with pytest.raises(MalformedAxml):
            parse_manifest(manifest_payload[:20])
        broken = bytearray(manifest_payload)
        broken[0] = 0x7F
        with pytest.raises(MalformedAxml):
            parse_manifest(bytes(broken))
        with pytest.raises(MalformedDex):
            parse_dex(b"dex\n" + dex_payload[4:60])
        with pytest.raises(MalformedDex):
            parse_dex(b"nope" + dex_payload[4:])
        archive_payload = build_zip([("AndroidManifest.xml", manifest_payload, STORED)])
        with pytest.raises(TruncatedArchive):
            archive = parse_archive(archive_payload[:40] + archive_payload[60:])


def test_criterion_8_metric_identities_and_noise_involution():
    with Budget("8 metric identities + noise involution", 5.0):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 50, size=4))
            if tp + fp + tn + fn == 0:
                tn = 1
            report = metrics_from_counts(tp, fp, tn, fn)
            total = tp + fp + tn + fn
            assert report.accuracy == (tp + tn) / total
            if tp + fp > 0:
                assert report.precision == tp / (tp + fp)
            if tp + fn > 0:
                assert report.recall == tp / (tp + fn)
            if report.precision + report.recall > 0:
                assert report.f1 == 2 * report.precision * report.recall / (
                    report.precision + report.recall
                )

        for trial in range(100):
            n = int(rng.integers(5, 60))
            labels = np.array([1 if k < n else -1 for k in range(2 * n)], dtype=np.int8)
            spec = NoiseSpec(
                noise_fraction=float(rng.uniform(0.0, 0.5)),
                seed=int(rng.integers(0, 10**9)),
            )
            once = inject_label_noise(labels, labels, spec)
            twice = inject_label_noise(once, labels, spec)
            assert np.array_equal(twice, labels)


DETERMINISM_CONFIG = """\
repeats=3
master_seed=2024
synthetic_samples=600
synthetic_features=30
pool_size=8
learner=mlp
learning_rate=0.5
epochs=25
hidden_units=8
pop_size=16
max_iter=20
"""


def test_criterion_9_end_to_end_determinism(tmp_path):
    with Budget("9 end-to-end determinism", 600.0):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(DETERMINISM_CONFIG)
        first = tmp_path / "report1.txt"
        second = tmp_path / "report2.txt"
        assert main(["experiment", str(config_path), "--out", str(first)]) == 0
        assert main(["experiment", str(config_path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        assert text.startswith("malsieve-experiment-report v1\n")
        assert "summary method=selective metric=f1" in text
