"""Mutation fuzzing of the binary parsers and the text artifacts.

Random byte flips and truncations of the fixture APK, manifest and DEX,
and of each text file the package writes (records, vocabulary, dataset,
model, pool manifest and selection), must either load or raise a
MalsieveError; any other exception is a hole in the error contract. The
seeds are fixed, so every run tries the same inputs.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from malsieve import ensemble  # noqa: E402
from malsieve.archive import parse_archive  # noqa: E402
from malsieve.axml import parse_manifest  # noqa: E402
from malsieve.dex import parse_dex  # noqa: E402
from malsieve.errors import MalsieveError  # noqa: E402
from malsieve.learners import LearnerSpec, load_model, train  # noqa: E402
from malsieve.records import extract_features, load_records, save_records  # noqa: E402
from malsieve.vectorize import (  # noqa: E402
    build_vocabulary,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    vectorize_all,
)

from binfixtures import DEFLATED, STORED, build_dex, build_zip, simple_manifest  # noqa: E402

MANIFEST = simple_manifest(
    ["android.permission.INTERNET", "android.permission.SEND_SMS"],
    ["android.intent.action.BOOT_COMPLETED"],
)
DEX = build_dex(
    [("Landroid/telephony/SmsManager;", "sendTextMessage"), ("Ljava/lang/Object;", "<init>")]
)
APK = build_zip(
    [("AndroidManifest.xml", MANIFEST, DEFLATED), ("classes.dex", DEX, STORED)]
)

FUZZ = settings(max_examples=200, deadline=None, database=None)


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data with up to 8 bytes XORed by a nonzero mask, then maybe cut."""
    buf = bytearray(data)
    flips = draw(st.lists(
        st.tuples(st.integers(0, len(buf) - 1), st.integers(1, 255)), max_size=8
    ))
    for pos, mask in flips:
        buf[pos] ^= mask
    cut = draw(st.one_of(st.none(), st.integers(0, len(buf))))
    return bytes(buf[:cut])


def parses_or_raises_typed(parse, data: bytes) -> None:
    try:
        parse(data)
    except MalsieveError:
        pass


def test_fixtures_parse_unmutated():
    record = extract_features(parse_archive(APK), "app")
    assert any(f.startswith("api:") for f in record.features)
    assert parse_manifest(MANIFEST).permissions
    assert parse_dex(DEX).api_refs


@seed(410)
@FUZZ
@given(mutations(APK))
def test_mutated_apk(data):
    parses_or_raises_typed(lambda d: extract_features(parse_archive(d), "app"), data)


@seed(411)
@FUZZ
@given(mutations(MANIFEST))
def test_mutated_manifest(data):
    parses_or_raises_typed(parse_manifest, data)


@seed(412)
@FUZZ
@given(mutations(DEX))
def test_mutated_dex(data):
    parses_or_raises_typed(parse_dex, data)


# --- text artifacts ---

BENIGN_APK = build_zip(
    [("AndroidManifest.xml", simple_manifest(["android.permission.INTERNET"], []), DEFLATED)]
)

# file name -> loader; the pool manifest is loaded with its directory
LOADERS = {
    "corpus.records": load_records,
    "vocab.tsv": load_vocabulary,
    "data.svm": load_dataset,
    "pool/learner_000.model": load_model,
    "pool/pool.txt": lambda path: ensemble.load_pool(path.parent),
    "selection.txt": ensemble.load_selection,
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One of each text file, written by the package itself: the records
    of a two-app corpus, its vocabulary and dataset, a pool of two MLPs
    and a selection."""
    root = tmp_path_factory.mktemp("artifacts")
    records = [
        extract_features(parse_archive(APK), "mal", 1),
        extract_features(parse_archive(BENIGN_APK), "ben", -1),
    ]
    save_records(records, root / "corpus.records")
    vocab = build_vocabulary(records, min_doc_freq=1)
    save_vocabulary(vocab, root / "vocab.tsv")
    data = vectorize_all(records, vocab)
    save_dataset(data, root / "data.svm")
    learners = tuple(
        train(LearnerSpec(kind="mlp", hidden_units=2, epochs=2, rng_seed=s), data)
        for s in (0, 1)
    )
    ensemble.save_pool(ensemble.EnsemblePool(learners, (0, 1)), root / "pool")
    ensemble.save_selection(ensemble.WeightVector((1, 0)), root / "selection.txt")
    return root


def test_text_artifacts_load_unmutated(artifacts):
    for name, load in LOADERS.items():
        load(artifacts / name)


@pytest.mark.parametrize("name", sorted(LOADERS))
@seed(420)
@settings(FUZZ, max_examples=80)
@given(data=st.data())
def test_mutated_text_artifact(artifacts, name, data):
    path = artifacts / name
    original = path.read_bytes()
    path.write_bytes(data.draw(mutations(original)))
    try:
        parses_or_raises_typed(LOADERS[name], path)
    finally:
        path.write_bytes(original)
