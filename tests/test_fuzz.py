"""Mutation fuzzing of the binary parsers and the text artifacts, and
properties of the fast paths that replaced simpler code.

Random byte flips and truncations of the fixture APK, manifest and DEX,
and of each text file the package writes (records, vocabulary, dataset,
model, pool manifest and selection), must either load or raise a
MalsieveError; any other exception is a hole in the error contract. The
DEX reader must agree with the row-by-row walk it replaced, and record
lines must round-trip and parse like the block partition they skip. The
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
from malsieve.errors import FormatError, MalsieveError  # noqa: E402
from malsieve.learners import LearnerSpec, load_model, train  # noqa: E402
from malsieve.records import (  # noqa: E402
    FeatureRecord,
    extract_features,
    format_record,
    load_records,
    parse_record_line,
    save_records,
)
from malsieve.vectorize import (  # noqa: E402
    build_vocabulary,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    vectorize_all,
)

from binfixtures import DEFLATED, STORED, build_dex, build_zip, simple_manifest  # noqa: E402
from test_dex import WIDE_DEX, assert_matches_walk  # noqa: E402

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


@st.composite
def table_mutations(draw, data: bytes) -> bytes:
    """data with up to 4 bytes of its header fields, identifier tables or
    string data XORed, so that indices, offsets and lengths go bad."""
    buf = bytearray(data)
    region = draw(st.sampled_from([(56, 112), (112, len(buf))]))
    for _ in range(draw(st.integers(1, 4))):
        buf[draw(st.integers(region[0], region[1] - 1))] ^= draw(st.integers(1, 255))
    return bytes(buf)


@seed(413)
@settings(FUZZ, max_examples=400)
@given(st.one_of(mutations(WIDE_DEX), table_mutations(WIDE_DEX)))
def test_mutated_dex_matches_walk(data):
    """The array reader returns what the row-by-row walk returns, or
    raises the same error with the same message."""
    assert_matches_walk(data)


# --- record lines ---

LINE_SAFE = st.text(st.characters(blacklist_characters="\t\n\r"), max_size=12)


@st.composite
def records(draw) -> FeatureRecord:
    """Records whose app id and names hold no tab, newline or carriage
    return: distinct names in perm/action/api block order."""
    features = []
    for prefix in ("perm:", "action:", "api:"):
        features += [prefix + name for name in draw(st.lists(LINE_SAFE, unique=True))]
    return FeatureRecord(
        app_id=draw(LINE_SAFE.filter(bool)),
        label=draw(st.sampled_from([1, -1, None])),
        features=tuple(features),
    )


@seed(414)
@FUZZ
@given(records())
def test_record_line_round_trips(record):
    assert parse_record_line(format_record(record)) == record


def partitioned(fields: list[str], lineno: int):
    """What a record line's fields parse to by the plain block partition:
    the distinct names, perm then action then api, or FormatError naming
    the first name without a prefix."""
    unique = list(dict.fromkeys(fields))
    for f in unique:
        if not f.startswith(("perm:", "action:", "api:")):
            return FormatError, f"line {lineno}: feature without a known prefix: {f!r}"
    return tuple(f for p in ("perm:", "action:", "api:") for f in unique if f.startswith(p))


@seed(415)
@FUZZ
@given(st.lists(st.sampled_from(
    ["perm:a", "perm:b", "action:a", "action:b", "api:a", "api:b", "api:c", "apiX", ""]
), max_size=10), st.integers(1, 99))
def test_record_line_fields_parse_like_the_block_partition(fields, lineno):
    line = "\t".join(["app", "+1"] + fields)
    try:
        parsed = parse_record_line(line, lineno).features
    except FormatError as exc:
        parsed = FormatError, str(exc)
    assert parsed == partitioned(fields, lineno)


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
