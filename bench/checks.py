"""Independent checks of malsieve's outputs.

Everything is recomputed here from the learners' parameters, the planted
features and the files the CLI wrote, with numpy expressions and parsers
of the benchmark's own. Nothing in this module calls malsieve. A check
that fails raises CheckFailed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PREFIXES = ("perm:", "action:", "api:")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- the model, recomputed ---

def predictions(kind: str, params: dict, X: np.ndarray) -> np.ndarray:
    """+1/-1 per sample; a margin of exactly 0 counts as +1."""
    if kind == "linear":
        margin = X @ params["w"] + params["b"][0]
    else:
        margin = np.tanh(X @ params["W1"] + params["b1"]) @ params["w2"] + params["b2"][0]
    return np.where(margin >= 0.0, 1, -1)


def prediction_rows(learners, index_lists, dim: int, chunk: int = 128) -> np.ndarray:
    """(learners x samples) +-1 matrix for binary samples given by their
    active indices. Samples are densified a chunk at a time, so the check
    stays small next to the program it checks."""
    rows = np.empty((len(learners), len(index_lists)), dtype=np.int64)
    for start in range(0, len(index_lists), chunk):
        part = index_lists[start:start + chunk]
        X = np.zeros((len(part), dim))
        for r, idx in enumerate(part):
            X[r, list(idx)] = 1.0
        for i, (kind, params) in enumerate(learners):
            rows[i, start:start + len(part)] = predictions(kind, params, X)
    return rows


def majority(rows: np.ndarray) -> np.ndarray:
    """Vote over a (k learners x M samples) +-1 matrix; a tie is +1."""
    return np.where(rows.sum(axis=0) >= 0, 1, -1)


def confusion(predicted, labels) -> tuple[int, int, int, int]:
    tp = fp = tn = fn = 0
    for p, y in zip(predicted, labels):
        if p == 1:
            tp, fp = (tp + 1, fp) if y == 1 else (tp, fp + 1)
        else:
            tn, fn = (tn + 1, fn) if y == -1 else (tn, fn + 1)
    return tp, fp, tn, fn


def f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def diversity(rows: np.ndarray) -> float:
    """Summed pairwise Euclidean distance between prediction rows,
    divided by the number of rows."""
    k = rows.shape[0]
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += math.sqrt(float(np.sum((rows[i] - rows[j]) ** 2)))
    return total / k if k > 1 else 0.0


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --- experiments ---

def check_experiment(outcome, pool, test_set, fit_set) -> float:
    """Recompute the selective ensemble's test metrics and the GA's
    fitness from the pool's parameters; returns the selective F1."""
    bits = list(outcome.omega.bits)
    chosen = [i for i, b in enumerate(bits) if b]
    require(len(chosen) >= 1, "GA selected no learner")
    require(len(bits) == len(pool.learners), "weight vector length != pool size")
    learners = [(pool.learners[i].kind, pool.learners[i].params) for i in chosen]

    rows = prediction_rows(learners, [v.indices for v in test_set.vectors], test_set.dimension)
    tp, fp, tn, fn = confusion(majority(rows), [v.label for v in test_set.vectors])
    m = outcome.metrics["selective"]
    require((m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn),
            f"selective confusion {(m.tp, m.fp, m.tn, m.fn)} != recomputed {(tp, fp, tn, fn)}")
    require(close(m.f1, f1(tp, fp, fn), 1e-12),
            f"selective f1 {m.f1!r} != recomputed {f1(tp, fp, fn)!r}")

    rows_v = prediction_rows(learners, [v.indices for v in fit_set.vectors], fit_set.dimension)
    yv = np.array([v.label for v in fit_set.vectors])
    accuracy = float(np.mean(majority(rows_v) == yv))
    div = diversity(rows_v)
    ga = outcome.ga
    require(close(ga.accuracy, accuracy), f"GA accuracy {ga.accuracy!r} != {accuracy!r}")
    require(close(ga.diversity, div), f"GA diversity {ga.diversity!r} != {div!r}")
    require(close(ga.fitness, accuracy * div),
            f"GA fitness {ga.fitness!r} != accuracy x diversity {accuracy * div!r}")
    return m.f1


# --- files the CLI writes, parsed here ---

def parse_records(text: str) -> dict[str, tuple[str, dict[str, set[str]]]]:
    """app_id -> (label text, {prefix: feature names})."""
    out = {}
    for line in text.splitlines():
        fields = line.split("\t")
        feats: dict[str, set[str]] = {p: set() for p in PREFIXES}
        for field in fields[2:]:
            prefix = next((p for p in PREFIXES if field.startswith(p)), None)
            require(prefix is not None, f"unprefixed feature {field!r}")
            feats[prefix].add(field[len(prefix):])
        require(fields[0] not in out, f"app {fields[0]} listed twice")
        out[fields[0]] = (fields[1], feats)
    return out


def parse_vocabulary(path: Path) -> dict[str, int]:
    index = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        i, name, _ = line.split("\t")
        index[name] = int(i)
    return index


def parse_selection(path: Path) -> list[int]:
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("omega="):
            return [int(c) for c in line[len("omega="):]]
    raise CheckFailed("selection file without omega")


def parse_pool(directory: Path) -> list[tuple[str, dict[str, np.ndarray]]]:
    """(kind, params) per learner, in pool order, from the model files."""
    directory = Path(directory)
    files = []
    for line in (directory / "pool.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("learner "):
            _, i, _, file_field = line.split(" ")
            files.append((int(i), file_field[len("file="):]))
    learners = []
    for _, name in sorted(files):
        kind, params = None, {}
        for line in (directory / name).read_text(encoding="utf-8").splitlines():
            if line.startswith("kind="):
                kind = line[len("kind="):]
            elif line.startswith("param "):
                _, pname, shape, tokens = line.split(" ", 3)
                values = [float.fromhex(t) for t in tokens.split()]
                params[pname] = np.array(values).reshape([int(s) for s in shape.split("x")])
        learners.append((kind, params))
    return learners


def vote_features(features: list[dict[str, set[str]]], vocab: dict[str, int],
                  learners, omega: list[int]) -> list[int]:
    """The selected learners' majority vote on each feature set."""
    indices = [
        sorted({vocab[p + name] for p in PREFIXES for name in f[p] if p + name in vocab})
        for f in features
    ]
    chosen = [learner for learner, bit in zip(learners, omega) if bit]
    return [int(v) for v in majority(prediction_rows(chosen, indices, len(vocab)))]


def check_predictions(pred_text: str, ids: list[str], expected: list[int]) -> None:
    lines = pred_text.splitlines()
    require(len(lines) == len(ids), f"{len(lines)} prediction lines for {len(ids)} inputs")
    for line, app_id, want in zip(lines, ids, expected):
        got_id, _, label = line.partition("\t")
        require(got_id == app_id, f"prediction for {got_id}, expected {app_id}")
        require(label == ("+1" if want == 1 else "-1"),
                f"{app_id}: predicted {label}, independent vote gives {want:+d}")


def check_extracted(records_text: str, truth: dict, corrupt: dict,
                    log: str, error_names: set[str]) -> None:
    """Each good APK yields exactly the features planted into it; each
    corrupt one is absent and logged with a typed malsieve error."""
    got = parse_records(records_text)
    require(set(got) == set(truth),
            f"extracted apps differ: missing {sorted(set(truth) - set(got))}, "
            f"unexpected {sorted(set(got) - set(truth))}")
    for app_id, planted in truth.items():
        label, feats = got[app_id]
        require(label == "?", f"{app_id}: label {label!r}, expected '?'")
        for prefix, key in zip(PREFIXES, ("perm", "action", "api")):
            want = set(planted[key])
            require(feats[prefix] == want,
                    f"{app_id}: {prefix} features differ: "
                    f"{len(want - feats[prefix])} missing, {len(feats[prefix] - want)} extra")
    for app_id in corrupt:
        line = next((l for l in log.splitlines() if f"{app_id}.apk: " in l), None)
        require(line is not None, f"corrupt {app_id} not reported")
        error = line.split(".apk: ", 1)[1].split(":", 1)[0]
        require(error in error_names, f"corrupt {app_id} rejected with untyped {error}")
