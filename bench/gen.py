"""Input generation for the benchmark, keyed by seed.

Everything here is independent of malsieve: records are written in the
documented line format, APKs are assembled byte by byte with the builders
in tests/binfixtures.py, and the features planted into each app are kept
as the truth the checks compare against.

Feature model. A fixed universe (seed-independent, like the Android API
surface) of permissions, intent actions and framework API references.
Feature j has a base rate p_j (a power law, so a few features are common
and most are rare) and a tilt sign s_j: one feature in seven leans
malicious (+1), one in seven leans benign (-1), the rest are neutral.
An app with label y holds feature j with probability
p_j * (1 + y * s_j * tilt). `tilt` sets how learnable the label is.

Run `python3 bench/run.py --generate-only --workload W --seed N` to
(re)build the inputs of one workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path(__file__).resolve().parent / ".inputs"
sys.path.insert(0, str(ROOT / "tests"))

from binfixtures import DEFLATED, STORED, build_dex, build_zip, simple_manifest  # noqa: E402

UNIVERSE_SEED = 20190909

# Sizes per profile. "tiny" is the self-check profile: every code path and
# check, at sizes that run in seconds.
PROFILES = {
    "full": {
        # experiment-records: a labelled corpus; the run splits it 60/20/20
        "corpus_apps": 3000,
        "corpus_tilt": 0.2,
        "pool_size": 50,
        "linear_epochs": 4,
        # predict-records
        "predict_train_apps": 400,
        "predict_batch_apps": 1000,
        "predict_tilt": 0.25,
        # apk-scan
        "train_apks_per_class": 16,
        "scan_apks": 40,
        "scan_corrupt": 4,
        "apk_tilt": 0.5,
        "private_methods": (2000, 24000),
        # both CLI workloads
        "cli_pool_size": 20,
        "cli_epochs": 6,
    },
    "tiny": {
        "corpus_apps": 300,
        "corpus_tilt": 0.3,
        "pool_size": 6,
        "linear_epochs": 3,
        "predict_train_apps": 120,
        "predict_batch_apps": 40,
        "predict_tilt": 0.4,
        "train_apks_per_class": 6,
        "scan_apks": 10,
        "scan_corrupt": 4,
        "apk_tilt": 0.6,
        "private_methods": (200, 2000),
        "cli_pool_size": 5,
        "cli_epochs": 3,
    },
}

CORRUPTIONS = ("truncated", "bad-deflate", "bad-dex-magic", "no-manifest")


@dataclass(frozen=True)
class FeatureModel:
    perms: list[str]
    actions: list[str]
    apis: list[str]
    base: np.ndarray  # base rate per feature, blocks concatenated
    sign: np.ndarray  # -1 / 0 / +1 per feature

    def sample(self, labels: list[int], tilt: float, rng: np.random.Generator):
        """One (perms, actions, apis) triple per label, block order kept."""
        n_p, n_a = len(self.perms), len(self.actions)
        out = []
        for y in labels:
            p = self.base * (1.0 + y * self.sign * tilt)
            present = np.flatnonzero(rng.random(p.shape[0]) < p)
            perms = [self.perms[j] for j in present if j < n_p]
            actions = [self.actions[j - n_p] for j in present if n_p <= j < n_p + n_a]
            apis = [self.apis[j - n_p - n_a] for j in present if j >= n_p + n_a]
            out.append((perms, actions, apis))
        return out


def feature_model(n_perm: int, n_action: int, n_api: int,
                  per_app: tuple[float, float, float]) -> FeatureModel:
    """per_app: expected number of perms, actions and APIs in one app."""
    rng = np.random.default_rng(UNIVERSE_SEED)
    perms = [f"android.permission.P{i:03d}_{_word(rng)}" for i in range(n_perm)]
    actions = [f"android.intent.action.A{i:03d}_{_word(rng)}" for i in range(n_action)]
    apis = [
        f"Landroid/{_word(rng)}/C{i // 8:04d};->{_word(rng)}{i % 8}"
        for i in range(n_api)
    ]
    blocks = []
    for n, mean in zip((n_perm, n_action, n_api), per_app):
        rate = (np.arange(n) + 1.0) ** -0.4
        rate = rng.permutation(np.minimum(0.6, rate * mean / rate.sum()))
        blocks.append(rate)
    base = np.concatenate(blocks)
    sign = rng.choice([-1, 0, 0, 0, 0, 0, 1], size=base.shape[0]).astype(np.float64)
    return FeatureModel(perms, actions, apis, base, sign)


def _word(rng: np.random.Generator) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "".join(letters[i] for i in rng.integers(0, 26, size=6))


def records_model() -> FeatureModel:
    return feature_model(160, 80, 2600, (15.0, 8.0, 110.0))


def apk_model() -> FeatureModel:
    return feature_model(160, 80, 3000, (30.0, 15.0, 300.0))


def balanced_labels(n: int, rng: np.random.Generator) -> list[int]:
    labels = [1] * (n // 2) + [-1] * (n - n // 2)
    return [labels[i] for i in rng.permutation(n)]


def record_line(app_id: str, label: int | None, feats) -> str:
    perms, actions, apis = feats
    label_text = {1: "+1", -1: "-1", None: "?"}[label]
    fields = [app_id, label_text]
    fields += ["perm:" + p for p in perms]
    fields += ["action:" + a for a in actions]
    fields += ["api:" + a for a in apis]
    return "\t".join(fields) + "\n"


def write_records(path: Path, ids, labels, feats) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for app_id, label, f in zip(ids, labels, feats):
            fh.write(record_line(app_id, label, f))


# --- APKs ---

_SHORT_NAMES = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghij"]


def private_methods(app_id: str, count: int, rng: np.random.Generator) -> list[tuple[str, str]]:
    """An app's own methods: obfuscated classes holding short method names,
    as a minifier leaves them. Every (class, name) pair is distinct."""
    per_class = 20
    refs = []
    for c in range((count + per_class - 1) // per_class):
        cls = f"Lcom/{app_id}/{_SHORT_NAMES[c % 260]}/{c // 260};"
        names = rng.choice(len(_SHORT_NAMES), size=per_class, replace=False)
        refs += [(cls, _SHORT_NAMES[i]) for i in names]
    return refs[:count]


def apk_sizes(n: int, prof: dict, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """(own methods, resource bytes, icon bytes) for n APKs. Sizes are
    spread evenly over each range (log-spaced for methods) and then
    shuffled, so every seed gets the same sizes in another order."""
    lo, hi = prof["private_methods"]
    q = (np.arange(n) + 0.5) / n
    methods = np.exp(np.log(lo) + q * (np.log(hi) - np.log(lo))).astype(int)
    resources = (20_000 + q * 100_000).astype(int)
    icons = (5_000 + q * 35_000).astype(int)
    return list(zip(*(rng.permutation(v).tolist() for v in (methods, resources, icons))))


def build_apk(app_id: str, feats, size: tuple[int, int, int],
              rng: np.random.Generator) -> tuple[bytes, list[str]]:
    """Returns the APK bytes and the API references planted in its DEX
    files. Apps with more than 10000 own methods are split over
    classes.dex and classes2.dex, as multidex builds are."""
    perms, actions, apis = feats
    n_private, resource_bytes, icon_bytes = size
    refs = [tuple(a.split("->")) for a in apis] + private_methods(app_id, n_private, rng)
    refs = [refs[i] for i in rng.permutation(len(refs))]
    dex_count = 2 if n_private > 10_000 else 1
    entries = [("AndroidManifest.xml", simple_manifest(perms, actions), DEFLATED)]
    cut = len(refs) // dex_count
    for k in range(dex_count):
        part = refs[k * cut:] if k == dex_count - 1 else refs[k * cut:(k + 1) * cut]
        name = "classes.dex" if k == 0 else f"classes{k + 1}.dex"
        entries.append((name, build_dex(part), DEFLATED))
    resources = rng.integers(0, 256, size=resource_bytes, dtype=np.uint8)
    entries.append(("resources.arsc", resources.tobytes(), STORED))
    icon = rng.integers(0, 256, size=icon_bytes, dtype=np.uint8)
    entries.append(("res/drawable/icon.png", icon.tobytes(), STORED))
    return build_zip(entries), [f"{c}->{m}" for c, m in refs]


def corrupt_apk(kind: str, feats) -> bytes:
    """An archive extract must refuse with a typed error."""
    perms, actions, apis = feats
    refs = [tuple(a.split("->")) for a in apis]
    manifest = simple_manifest(perms, actions)
    dex = build_dex(refs)
    if kind == "truncated":
        whole = build_zip([("AndroidManifest.xml", manifest, DEFLATED),
                           ("classes.dex", dex, DEFLATED)])
        return whole[: len(whole) * 3 // 5]
    if kind == "bad-deflate":
        whole = bytearray(build_zip([("AndroidManifest.xml", manifest, DEFLATED),
                                     ("classes.dex", dex, DEFLATED)]))
        start = 30 + len("AndroidManifest.xml") + 40
        for i in range(start, start + 16):
            whole[i] ^= 0xA5
        return bytes(whole)
    if kind == "bad-dex-magic":
        return build_zip([("AndroidManifest.xml", manifest, DEFLATED),
                          ("classes.dex", b"zip\n" + dex[4:], DEFLATED)])
    if kind == "no-manifest":
        return build_zip([("classes.dex", dex, DEFLATED)])
    raise ValueError(kind)


# --- per-workload inputs ---

def _experiment_records(out: Path, seed: int, prof: dict, final: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    model = records_model()
    labels = balanced_labels(prof["corpus_apps"], rng)
    feats = model.sample(labels, prof["corpus_tilt"], rng)
    ids = [f"app{i:05d}" for i in range(len(labels))]
    write_records(out / "corpus.records", ids, labels, feats)
    # run from the repository root, which the benchmark makes its cwd
    corpus = (final / "corpus.records").relative_to(ROOT).as_posix()
    config = (
        f"repeats=1\nmaster_seed={seed}\ndataset={corpus}\n"
        "train_fraction=0.6\nvalidation_fraction=0.2\ntest_fraction=0.2\n"
        "noise_fraction=0.1\nmin_doc_freq=2\nmax_api_features=2000\n"
        f"pool_size={prof['pool_size']}\nlearner=linear\nlearning_rate=0.1\n"
        f"epochs={prof['linear_epochs']}\nl2=0.0001\nbatch_size=32\n"
        "pop_size=30\nmax_iter=50\ncrossover_rate=0.8\nmutation_rate=0.05\n"
        "elite_count=2\nfitness_split=validation\ndiversity_norm=selected\n"
    )
    (out / "experiment.cfg").write_text(config, encoding="utf-8")
    return {"apps": len(labels)}


def _predict_records(out: Path, seed: int, prof: dict, final: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    model = records_model()
    train_labels = balanced_labels(prof["predict_train_apps"], rng)
    train_feats = model.sample(train_labels, prof["predict_tilt"], rng)
    write_records(out / "train.records",
                  [f"train{i:05d}" for i in range(len(train_labels))],
                  train_labels, train_feats)
    batch_labels = balanced_labels(prof["predict_batch_apps"], rng)
    batch_feats = model.sample(batch_labels, prof["predict_tilt"], rng)
    batch_ids = [f"new{i:05d}" for i in range(len(batch_labels))]
    write_records(out / "batch.records", batch_ids, [None] * len(batch_ids), batch_feats)
    truth = {
        app_id: {"label": y, "perm": f[0], "action": f[1], "api": f[2]}
        for app_id, y, f in zip(batch_ids, batch_labels, batch_feats)
    }
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return {"train": len(train_labels), "batch": len(batch_ids)}


def _apk_scan(out: Path, seed: int, prof: dict, final: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    model = apk_model()
    n = prof["train_apks_per_class"]
    for cls, y in (("mal", 1), ("ben", -1)):
        d = out / "train" / cls
        d.mkdir(parents=True)
        feats = model.sample([y] * n, prof["apk_tilt"], rng)
        for i, (f, size) in enumerate(zip(feats, apk_sizes(n, prof, rng))):
            app_id = f"{cls}{i:04d}"
            blob, _ = build_apk(app_id, f, size, rng)
            (d / f"{app_id}.apk").write_bytes(blob)
    scan = out / "scan"
    scan.mkdir()
    labels = balanced_labels(prof["scan_apks"], rng)
    feats = model.sample(labels, prof["apk_tilt"], rng)
    corrupt_slots = set(
        int(i) for i in rng.choice(len(labels), size=prof["scan_corrupt"], replace=False)
    )
    sizes = iter(apk_sizes(len(labels) - len(corrupt_slots), prof, rng))
    truth, corrupt, total_bytes = {}, {}, 0
    for i, (y, f) in enumerate(zip(labels, feats)):
        app_id = f"scan{i:04d}"
        if i in corrupt_slots:
            kind = CORRUPTIONS[len(corrupt) % len(CORRUPTIONS)]
            blob = corrupt_apk(kind, f)
            corrupt[app_id] = kind
        else:
            blob, refs = build_apk(app_id, f, next(sizes), rng)
            truth[app_id] = {"label": y, "perm": f[0], "action": f[1], "api": refs}
        total_bytes += len(blob)
        (scan / f"{app_id}.apk").write_bytes(blob)
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    (out / "corrupt.json").write_text(json.dumps(corrupt), encoding="utf-8")
    return {"scan_apks": len(labels), "corrupt": len(corrupt), "scan_bytes": total_bytes}


GENERATORS = {
    "experiment-records": _experiment_records,
    "apk-scan": _apk_scan,
    "predict-records": _predict_records,
}


def generate(workload: str, seed: int, profile: str) -> Path:
    """Build the inputs of one workload and seed once; later calls reuse
    them. Returns the input directory."""
    out = INPUTS / f"{workload}-{profile}-s{seed}"
    # inputs made by another version of this generator are made again
    version = hashlib.sha256(
        Path(__file__).read_bytes() + (ROOT / "tests" / "binfixtures.py").read_bytes()
    ).hexdigest()
    done = out / "inputs.json"
    if done.exists() and json.loads(done.read_text(encoding="utf-8")).get("version") == version:
        return out
    # inputs of other seeds are dropped: a set can take tens of MB
    for old in INPUTS.glob(f"{workload}-{profile}-s*"):
        shutil.rmtree(old)
    tmp = INPUTS / f".tmp-{workload}-{profile}-s{seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = {"workload": workload, "seed": seed, "profile": profile, "version": version}
    info.update(GENERATORS[workload](tmp, seed, PROFILES[profile], out))
    (tmp / "inputs.json").write_text(json.dumps(info), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


