"""Mutation fuzzing of the binary parsers and the text artifacts, and
properties of the fast paths that replaced simpler code.

Random byte flips and truncations of the fixture APK, manifest and DEX,
and of each text file the package writes (records, vocabulary, dataset,
model, pool manifest and selection), must either load or raise a
MalsieveError; any other exception is a hole in the error contract. The
DEX reader must agree with the row-by-row walk it replaced. A record line
whose names come in any order, with repeats, must parse to its distinct
names in that order, or raise FormatError naming the first name without
a known prefix, and must round-trip through `format_record`. Reading a
corpus with a names table, which checks a name's prefix only when the
name enters the table, must give the records or the error that reading
it without one gives, and leave only prefixed names in the table.
Saving then loading a vocabulary, dataset, model, pool or selection must
give an equal object, and so must parsing the lines an experiment config
writes and reading back any tagged file `write_tagged` writes. The array
hex encoder must write what `float.hex` writes for any finite float64, and
a model file must keep the bytes of the per-value writer it replaced;
the sliced decoder of a model row must give the values of the per-token
one. The seeds are fixed, so every run tries the same inputs.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import malsieve.learners  # noqa: E402
from malsieve import ensemble  # noqa: E402
from malsieve.archive import parse_archive  # noqa: E402
from malsieve.axml import parse_manifest  # noqa: E402
from malsieve.dex import parse_dex  # noqa: E402
from malsieve.errors import FormatError, MalsieveError, read_tagged, write_tagged  # noqa: E402
from malsieve.experiment import (  # noqa: E402
    FITNESS_SPLITS,
    ExperimentConfig,
    config_text,
    parse_config,
)
from malsieve.ga import DIVERSITY_NORMS  # noqa: E402
from malsieve.learners import (  # noqa: E402
    _HEX_BLOCK,
    KINDS,
    LearnerSpec,
    TrainedLearner,
    hex_floats,
    load_model,
    save_model,
    train,
)
from malsieve.records import (  # noqa: E402
    FeatureRecord,
    extract_features,
    format_record,
    load_records,
    parse_record_line,
    read_records,
)
from malsieve.vectorize import (  # noqa: E402
    BLOCK_PREFIXES,
    Dataset,
    FeatureVector,
    Vocabulary,
    build_vocabulary,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    vectorize_all,
)

from binfixtures import DEFLATED, STORED, build_dex, build_zip, simple_manifest  # noqa: E402
from mlfixtures import dense  # noqa: E402
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
    assert parse_dex(DEX)


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


PREFIXED = st.tuples(st.sampled_from(BLOCK_PREFIXES), LINE_SAFE).map("".join)
# near misses of a prefix, and any other text that has none
UNPREFIXED = st.one_of(
    st.sampled_from(["", "api", "apiX", "perm", "action", "Perm:x", " api:x"]),
    LINE_SAFE.filter(lambda name: not name.startswith(BLOCK_PREFIXES)),
)


@st.composite
def record_fields(draw) -> list[str]:
    """The fields after a line's label: a few names, each drawn any number
    of times in any order; one case in two may hold unprefixed names."""
    names = draw(st.lists(PREFIXED, min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        names += draw(st.lists(UNPREFIXED, min_size=1, max_size=2))
    return draw(st.lists(st.sampled_from(names), max_size=14))


@seed(415)
@FUZZ
@given(record_fields(), st.sampled_from(["+1", "-1", "?"]), st.integers(1, 99))
def test_record_line_parses_to_its_distinct_fields(fields, label, lineno):
    line = "\t".join(["app", label] + fields)
    unprefixed = [f for f in fields if not f.startswith(BLOCK_PREFIXES)]
    if unprefixed:
        with pytest.raises(FormatError) as info:
            parse_record_line(line, lineno)
        assert info.value.line == lineno
        assert str(info.value) == (
            f"line {lineno}: feature without a known prefix: {unprefixed[0]!r}"
        )
        return
    record = parse_record_line(line, lineno)
    assert record.features == tuple(dict.fromkeys(fields))
    assert parse_record_line(line, lineno, {}) == record
    assert parse_record_line(format_record(record)) == record


BLANK_LINES = st.sampled_from(["\n", "", " \n", "  \t\n", "\t"])


@st.composite
def corpora(draw) -> list[str]:
    """A records file's lines: a few names, each used on any number of
    lines and maybe twice on one, blank and whitespace-only lines among
    them, and 0-2 unprefixed names, each first used on a random line and
    maybe again on later ones."""
    names = draw(st.lists(PREFIXED, min_size=1, max_size=8, unique=True))
    rows = draw(st.lists(st.one_of(
        BLANK_LINES,
        st.tuples(LINE_SAFE.filter(bool), st.sampled_from(["+1", "-1", "?"]),
                  st.lists(st.sampled_from(names), max_size=10)).map(
            lambda row: [row[0], row[1], *row[2]]),
    ), min_size=1, max_size=10))
    records = [i for i, row in enumerate(rows) if isinstance(row, list)]
    if records:
        for bad in draw(st.lists(UNPREFIXED, max_size=2)):
            first = draw(st.sampled_from(records))
            for i in [first] + [i for i in records if i > first and draw(st.booleans())]:
                rows[i].insert(draw(st.integers(2, len(rows[i]))), bad)
    return [row if isinstance(row, str) else "\t".join(row) + "\n" for row in rows]


def read_outcome(lines: list[str], names: dict[str, str] | None):
    """The records of the lines, or the message and line of the error."""
    try:
        return list(read_records(lines, names))
    except FormatError as exc:
        return str(exc), exc.line


@seed(416)
@FUZZ
@given(corpora())
def test_reading_with_a_names_table_equals_reading_without(lines):
    # the table path checks a name's prefix only when the name enters the
    # table; the table-less path checks every name of every record
    names = {}
    outcome = read_outcome(lines, names)
    assert outcome == read_outcome(lines, None)
    assert all(name.startswith(BLOCK_PREFIXES) for name in names)
    if isinstance(outcome, list):
        assert set(names) == {f for record in outcome for f in record.features}


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
    (root / "corpus.records").write_text(
        "".join(format_record(r) + "\n" for r in records), encoding="utf-8")
    vocab = build_vocabulary(records, min_doc_freq=1)
    save_vocabulary(vocab, root / "vocab.tsv")
    data = vectorize_all(records, vocab)
    save_dataset(data, root / "data.svm")
    learners = tuple(
        train(LearnerSpec(kind="mlp", hidden_units=2, epochs=2, rng_seed=s), *dense(data))
        for s in (0, 1)
    )
    ensemble.save_pool(ensemble.EnsemblePool(learners), root / "pool")
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


# --- save then load gives an equal object ---

ROUND_TRIP = settings(max_examples=80, deadline=None, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# settings are finite: a learning rate > 0, an l2 >= 0
RATES = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
L2S = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def round_trip(save, load, obj, name="artifact"):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(obj, path)
        return load(path)


@st.composite
def vocabularies(draw) -> Vocabulary:
    blocks = [
        sorted(draw(st.sets(LINE_SAFE.map(lambda n, p=prefix: p + n), max_size=6)))
        for prefix in BLOCK_PREFIXES
    ]
    if not any(blocks):  # a vocabulary file holds at least one name
        blocks[2] = [BLOCK_PREFIXES[2] + "x"]
    names = [n for block in blocks for n in block]
    freqs = draw(st.lists(st.integers(1, 10**6), min_size=len(names), max_size=len(names)))
    return Vocabulary(names, freqs)


@seed(430)
@ROUND_TRIP
@given(vocabularies())
def test_vocabulary_round_trips(vocab):
    loaded = round_trip(save_vocabulary, load_vocabulary, vocab)
    assert loaded.names == vocab.names
    assert loaded.doc_freq == vocab.doc_freq
    assert (loaded.perm_count, loaded.action_count, loaded.api_count) == (
        vocab.perm_count, vocab.action_count, vocab.api_count
    )


@st.composite
def datasets(draw) -> Dataset:
    dim = draw(st.integers(1, 30))
    vectors = draw(st.lists(st.builds(
        FeatureVector,
        st.sets(st.integers(0, dim - 1)).map(lambda s: tuple(sorted(s))),
        st.sampled_from((1, -1)),
    ), max_size=8))
    return Dataset(vectors, dimension=dim)


@seed(431)
@ROUND_TRIP
@given(datasets())
def test_dataset_round_trips(data):
    loaded = round_trip(save_dataset, load_dataset, data)
    assert loaded.dimension == data.dimension
    assert loaded.vectors == data.vectors


@st.composite
def learners(draw, dim=None) -> TrainedLearner:
    spec = LearnerSpec(
        kind=draw(st.sampled_from(("linear", "mlp"))),
        learning_rate=draw(RATES),
        epochs=draw(st.integers(1, 1000)),
        hidden_units=draw(st.integers(1, 4)),
        l2=draw(L2S),
        rng_seed=draw(st.integers(0, 2**63 - 1)),
        batch_size=draw(st.integers(1, 4096)),
    )
    dim = draw(st.integers(1, 5)) if dim is None else dim
    h = spec.hidden_units
    shapes = {
        "linear": {"w": (dim,), "b": (1,)},
        "mlp": {"W1": (dim, h), "b1": (h,), "w2": (h,), "b2": (1,)},
    }[spec.kind]
    params = {
        name: np.array(draw(st.lists(FINITE, min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape))))).reshape(shape)
        for name, shape in shapes.items()
    }
    return TrainedLearner(spec=spec, params=params)


@seed(432)
@ROUND_TRIP
@given(learners())
def test_model_round_trips(learner):
    assert round_trip(save_model, load_model, learner) == learner


@st.composite
def pools(draw) -> ensemble.EnsemblePool:
    dim = draw(st.integers(1, 4))
    members = draw(st.lists(learners(dim), min_size=1, max_size=3))
    # `train-pool --seed` takes any int, a negative one included
    master = draw(st.integers(-2**63, 2**63 - 1))
    return ensemble.EnsemblePool(tuple(members), master)


@seed(433)
@ROUND_TRIP
@given(pools())
def test_pool_round_trips(pool):
    loaded = round_trip(ensemble.save_pool, ensemble.load_pool, pool, "pool")
    assert loaded.learners == pool.learners
    assert loaded.master_seed == pool.master_seed


@seed(434)
@ROUND_TRIP
@given(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=60))
def test_selection_round_trips(bits):
    omega = ensemble.WeightVector(tuple(bits))
    assert round_trip(ensemble.save_selection, ensemble.load_selection, omega) == omega


@st.composite
def experiment_configs(draw) -> ExperimentConfig:
    def unit(low=0.0, high=1.0):
        return draw(st.floats(low, high))

    seeds = st.integers(0, 2**63 - 1)
    counts = st.integers(1, 10**6)
    train_fraction, validation_fraction = unit(0.01, 0.49), unit(0.01, 0.49)
    pop_size = draw(st.integers(2, 500))
    return ExperimentConfig(
        repeats=draw(counts),
        master_seed=draw(seeds),
        dataset=draw(st.text(st.characters(whitelist_categories=("L", "N"),
                                           whitelist_characters="/._-#="))),
        synthetic_samples=draw(st.integers(10, 10**6)),
        synthetic_features=draw(counts),
        train_fraction=train_fraction,
        validation_fraction=validation_fraction,
        test_fraction=1.0 - train_fraction - validation_fraction,
        noise_fraction=unit(0.0, 0.5),
        noise_test=draw(st.booleans()),
        min_doc_freq=draw(counts),
        max_api_features=draw(st.integers(0, 10**6)),
        pool_size=draw(counts),
        learner=draw(st.sampled_from(KINDS)),
        learning_rate=draw(RATES),
        epochs=draw(counts),
        hidden_units=draw(counts),
        l2=draw(L2S),
        batch_size=draw(counts),
        pop_size=pop_size,
        max_iter=draw(counts),
        crossover_rate=unit(),
        mutation_rate=unit(),
        elite_count=draw(st.integers(0, pop_size - 1)),
        fitness_split=draw(st.sampled_from(FITNESS_SPLITS)),
        diversity_norm=draw(st.sampled_from(DIVERSITY_NORMS)),
        allow_partial=draw(st.booleans()),
    )


@seed(435)
@ROUND_TRIP
@given(experiment_configs())
def test_config_round_trips(config):
    assert parse_config(config_text(config)) == config


# every character str.splitlines() breaks a line at; surrogates cannot be
# written as UTF-8
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ONE_LINE = st.text(st.characters(blacklist_characters=LINE_BREAKS, blacklist_categories=("Cs",)),
                   max_size=12)


@st.composite
def tagged_files(draw):
    """(tag, header, rows, row word) that make a well-formed tagged file:
    no key holds "=", and no key line starts like a body row."""
    row = draw(st.text(st.characters(whitelist_categories=("L", "N")), min_size=1, max_size=6))
    key = ONE_LINE.filter(lambda k: "=" not in k and not k.startswith(row + " "))
    keys = draw(st.lists(key, unique=True, max_size=5))
    header = {key: draw(ONE_LINE) for key in keys}
    return draw(ONE_LINE.filter(bool)), header, draw(st.lists(ONE_LINE, max_size=5)), row


@seed(436)
@ROUND_TRIP
@given(tagged_files())
def test_tagged_file_round_trips(parts):
    tag, header, rows, row = parts
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        write_tagged(path, tag, header, rows, row=row)
        read_header, read_rows = read_tagged(path, tag, dict.fromkeys(header, str), row=row)
    assert read_header == header
    first_row_line = 2 + len(header)
    assert read_rows == [(first_row_line + i, text) for i, text in enumerate(rows)]


# --- model text: the array hex encoder against float.hex ---

def float_hex(values) -> str:
    return " ".join(map(float.hex, np.asarray(values, dtype=np.float64).reshape(-1).tolist()))


FINITE_BITS = st.one_of(
    st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF),
    st.builds(  # every exponent equally likely, subnormals and zero included
        lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
        st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1)
    ),
)


@seed(440)
@FUZZ
@given(st.lists(FINITE_BITS, max_size=40))
def test_hex_floats_equal_float_hex_on_any_finite_bits(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert hex_floats(values) == float_hex(values)


SMALLEST_NORMAL = sys.float_info.min
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324,
    SMALLEST_NORMAL - 5e-324, SMALLEST_NORMAL, -SMALLEST_NORMAL,
    sys.float_info.max, -sys.float_info.max, 1.0, -1.0, 1.5, 0.1,
    # exponents of 1 to 4 digits, either sign
    2.0, 0.5, 2.0**9, -(2.0**-9), 2.0**10, 2.0**-10, 2.0**99, -(2.0**-99),
    2.0**100, 2.0**-100, 2.0**999, 2.0**-999, 2.0**1000, -(2.0**-1000), 2.0**1023,
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=float.hex)
def test_hex_floats_edge_value(value):
    assert hex_floats(np.array([value])) == value.hex()


@pytest.mark.parametrize("size", [0, 1, _HEX_BLOCK - 1, _HEX_BLOCK, _HEX_BLOCK + 1, 3 * _HEX_BLOCK])
def test_hex_floats_across_block_boundaries(size):
    rng = np.random.default_rng(size)
    values = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 1.0)
    values[::7] = 0.0
    values[1::11] = -0.0
    values[2::13] = 5e-324
    assert hex_floats(values) == float_hex(values)
    assert hex_floats(values.reshape(-1, 1)) == float_hex(values)


def per_value_model_text(learner: TrainedLearner, path: Path) -> None:
    """`save_model` as it was before the array encoder: one float.hex call
    per value. Kept frozen as the byte oracle for model files."""
    spec = learner.spec
    header = {"kind": spec.kind, "dim": learner.dim}
    header.update((f.name, getattr(spec, f.name)) for f in dataclasses.fields(LearnerSpec))
    rows = (
        f"{name} {'x'.join(map(str, arr.shape))} "
        + " ".join(v.hex() for v in arr.reshape(-1).tolist())
        for name, arr in sorted(learner.params.items())
    )
    write_tagged(path, "malsieve-model v1", header, rows, row="param")


def same_bytes_as_per_value_writer(learner: TrainedLearner) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.model", Path(tmp) / "old.model"
        save_model(learner, new)
        per_value_model_text(learner, old)
        return new.read_bytes() == old.read_bytes()


@seed(441)
@ROUND_TRIP
@given(learners())
def test_model_file_bytes_equal_the_per_value_writer(learner):
    assert same_bytes_as_per_value_writer(learner)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, _HEX_BLOCK + 3])
def test_trained_model_file_bytes_equal_the_per_value_writer(kind, dim):
    # a linear weight of a feature no training row holds stays exactly 0.0
    rng = np.random.default_rng(dim)
    X = (rng.random((40, dim)) < 0.3).astype(np.uint8)
    X[:, 0] = 0
    labels = np.where(np.arange(40) % 2 == 0, 1, -1)
    spec = LearnerSpec(kind=kind, epochs=2, hidden_units=1, rng_seed=5)
    learner = train(spec, X, labels)
    if kind == "linear":
        assert learner.params["w"][0] == 0.0
    assert same_bytes_as_per_value_writer(learner)


# --- the sliced decoder of a model row ---

def fromhex_per_token(text: str) -> np.ndarray:
    """`load_model`'s decoder before slicing, kept frozen as its oracle."""
    return np.array(list(map(float.fromhex, text.split())))


SEPARATORS = [" ", "\t", "  ", " \t", "\t "]


@pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_hex_values_across_slice_boundaries(sep, offset):
    # every value in [1, 2) is 20 characters of float.hex, so a slice is
    # `per_slice` tokens; rows of 0, 1 and a slice less one, exactly and
    # plus one tokens
    per_slice = -(-malsieve.learners._DECODE_SLICE // (20 + len(sep)))
    rng = np.random.default_rng(len(sep))
    for size in (0, 1, per_slice + offset, 2 * per_slice + offset):
        values = rng.uniform(1.0, 2.0, size=size)
        text = sep.join(map(float.hex, values.tolist()))
        decoded = malsieve.learners.hex_values("w 1 " + text, 4)
        assert decoded.tobytes() == fromhex_per_token(text).tobytes() == values.tobytes()


@seed(442)
@FUZZ
@given(st.lists(st.tuples(FINITE_BITS, st.sampled_from(SEPARATORS)), max_size=30),
       st.integers(1, 60))
def test_hex_values_equal_the_per_token_decoder_for_any_slice(pairs, slice_chars):
    values = np.array([bits for bits, _ in pairs], dtype=np.uint64).view(np.float64)
    text = "".join(value.hex() + sep for value, (_, sep) in zip(values.tolist(), pairs))
    with mock.patch.object(malsieve.learners, "_DECODE_SLICE", slice_chars):
        decoded = malsieve.learners.hex_values(text)
    assert decoded.tobytes() == fromhex_per_token(text).tobytes() == values.tobytes()
