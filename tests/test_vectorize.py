import numpy as np
import pytest

from malsieve.errors import DimensionMismatch, EmptyCorpus, FormatError, InvalidConfig
from malsieve.evaluation import SplitSpec, split
from malsieve.records import FeatureRecord
from malsieve.vectorize import (
    Dataset,
    FeatureVector,
    build_vocabulary,
    is_dataset_header,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    vectorize,
    vectorize_all,
)


def record(perms=(), actions=(), apis=(), label=1, app_id="app"):
    features = [f"perm:{p}" for p in perms] + [f"action:{a}" for a in actions]
    features += [f"api:{a}" for a in apis]
    return FeatureRecord(app_id=app_id, label=label, features=tuple(dict.fromkeys(features)))


def test_doc_freq_threshold_boundary():
    records = [record(perms=["P"]), record(perms=["P"]), record(perms=["Q"])]
    vocab = build_vocabulary(records, min_doc_freq=2, max_api_features=10)
    assert vocab.names == ("perm:P",)
    assert vocab.doc_freq == (2,)


def test_block_concatenation_order():
    records = [record(perms=["P"], actions=["A"], apis=["Api"])]
    vocab = build_vocabulary(records, min_doc_freq=1, max_api_features=10)
    assert vocab.dimension == 3
    assert vocab.names == ("perm:P", "action:A", "api:Api")
    assert (vocab.perm_count, vocab.action_count, vocab.api_count) == (1, 1, 1)


def test_api_truncation_by_frequency_then_name():
    # doc freqs: e=5, d=4, b=3, c=3, a=1 -> keep e, d and the
    # lexicographically smaller of the two freq-3 names (b)
    apis = {"a": 1, "b": 3, "c": 3, "d": 4, "e": 5}
    records = []
    for name, freq in apis.items():
        for i in range(freq):
            records.append(record(apis=[name], app_id=f"{name}{i}"))
    vocab = build_vocabulary(records, min_doc_freq=1, max_api_features=3)
    assert vocab.names == ("api:b", "api:d", "api:e")


def test_min_doc_freq_applies_to_api_block_too():
    records = [record(apis=["x"]), record(apis=["y"]), record(apis=["y"])]
    vocab = build_vocabulary(records, min_doc_freq=2, max_api_features=10)
    assert vocab.names == ("api:y",)


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([], min_doc_freq=1, max_api_features=10)


def test_nothing_survives_pruning():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([record(perms=["solo"])], min_doc_freq=2, max_api_features=10)


@pytest.mark.parametrize("settings, message", [
    ({"min_doc_freq": 0}, "min_doc_freq must be >= 1"),
    ({"max_api_features": -1}, "max_api_features must be >= 0"),
])
def test_build_vocabulary_refuses_its_bad_settings(settings, message):
    # an experiment config refuses them when it is read; a direct caller here
    with pytest.raises(InvalidConfig, match=message):
        build_vocabulary([record(perms=["P"])], **settings)


def fixture_vocab():
    records = [
        record(perms=["P1", "P2"], actions=["A1"], apis=["M1", "M2"], app_id="r1"),
        record(perms=["P1", "P2"], actions=["A1"], apis=["M1", "M2"], app_id="r2"),
    ]
    return build_vocabulary(records, min_doc_freq=1, max_api_features=10)


def test_vectorize_all_known_features():
    vocab = fixture_vocab()
    v = vectorize(record(perms=["P1", "P2"], actions=["A1"], apis=["M1", "M2"]), vocab)
    assert v.indices == tuple(range(vocab.dimension))


def test_vectorize_no_known_features():
    vocab = fixture_vocab()
    v = vectorize(record(perms=["other"], label=-1), vocab)
    assert v.indices == ()
    assert v.label == -1


def test_vectorize_unknown_api_ignored():
    vocab = fixture_vocab()
    v = vectorize(record(perms=["P2"], apis=["unseen"]), vocab)
    assert v.indices == (vocab.names.index("perm:P2"),)
    assert len(v.indices) == 1


def test_block_layout_by_brute_force_recount():
    rng = np.random.default_rng(7)
    records = []
    for i in range(30):
        perms = [f"P{j}" for j in rng.integers(0, 8, size=3)]
        actions = [f"A{j}" for j in rng.integers(0, 5, size=2)]
        apis = [f"M{j}" for j in rng.integers(0, 12, size=4)]
        records.append(record(perms, actions, apis, app_id=f"r{i}"))
    vocab = build_vocabulary(records, min_doc_freq=1, max_api_features=8)
    # every column index must equal block offset + within-block rank
    perm_off, action_off = 0, vocab.perm_count
    api_off = vocab.perm_count + vocab.action_count
    perm_names = sorted(n for n in vocab.names if n.startswith("perm:"))
    action_names = sorted(n for n in vocab.names if n.startswith("action:"))
    api_names = sorted(n for n in vocab.names if n.startswith("api:"))
    for name, idx in vocab.index.items():
        if name.startswith("perm:"):
            assert idx == perm_off + perm_names.index(name)
        elif name.startswith("action:"):
            assert idx == action_off + action_names.index(name)
        else:
            assert idx == api_off + api_names.index(name)
    # and no surviving feature sits below the frequency threshold
    assert all(df >= 1 for df in vocab.doc_freq)


def test_sub_threshold_features_never_included():
    rng = np.random.default_rng(13)
    records = []
    for i in range(40):
        perms = [f"P{j}" for j in rng.integers(0, 20, size=2)]
        records.append(record(perms=perms, app_id=f"r{i}"))
    freq_by_name = {}
    for r in records:
        for name in r.features:
            freq_by_name[name] = freq_by_name.get(name, 0) + 1
    vocab = build_vocabulary(records, min_doc_freq=3, max_api_features=10)
    for name in vocab.names:
        assert freq_by_name[name] >= 3


def test_vocabulary_file_round_trip(tmp_path):
    vocab = fixture_vocab()
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.names == vocab.names
    assert loaded.doc_freq == vocab.doc_freq
    assert (loaded.perm_count, loaded.action_count, loaded.api_count) == (
        vocab.perm_count, vocab.action_count, vocab.api_count
    )


def test_vocabulary_file_rejects_gap(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("0\tperm:a\t3\n2\tperm:b\t2\n")
    with pytest.raises(FormatError):
        load_vocabulary(path)


def test_vocabulary_file_rejects_block_disorder(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("0\tapi:m\t3\n1\tperm:p\t2\n")
    with pytest.raises(FormatError):
        load_vocabulary(path)


@pytest.mark.parametrize("names, message, line", [
    # the first name that is not where the block partition puts it
    (["perm:a", "api:x", "action:b"], "blocks out of perm/action/api order", 2),
    (["perm:a", "", "perm:b", "x:none"], "unknown feature prefix in ''", 2),
    (["perm:a", "action:b", "apiX"], "unknown feature prefix in 'apiX'", 3),
])
def test_vocabulary_file_names_the_first_misplaced_line(tmp_path, names, message, line):
    path = tmp_path / "vocab.tsv"
    path.write_text("".join(f"{i}\t{name}\t2\n" for i, name in enumerate(names)))
    with pytest.raises(FormatError, match=message) as exc_info:
        load_vocabulary(path)
    assert exc_info.value.line == line


@pytest.mark.parametrize("doc_freq", ["0", "-5"])
def test_vocabulary_file_rejects_doc_freq_below_1_with_its_line(tmp_path, doc_freq):
    # build_vocabulary counts each kept name in at least one record; such a
    # file used to load
    path = tmp_path / "vocab.tsv"
    path.write_text(f"0\tperm:a\t3\n1\tperm:b\t{doc_freq}\n")
    with pytest.raises(FormatError, match="doc_freq must be >= 1") as exc_info:
        load_vocabulary(path)
    assert exc_info.value.line == 2


def test_vocabulary_file_rejects_duplicate_name_with_its_line(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("0\tperm:a\t3\n1\tperm:b\t2\n2\tperm:a\t2\n")
    with pytest.raises(FormatError, match="duplicate") as exc_info:
        load_vocabulary(path)
    assert exc_info.value.line == 3


def random_dataset(rng, n=20, dim=15):
    vectors = []
    for _ in range(n):
        k = int(rng.integers(0, dim))
        idx = tuple(sorted(rng.choice(dim, size=k, replace=False).tolist()))
        vectors.append(FeatureVector(idx, int(rng.choice([1, -1]))))
    return Dataset(vectors, dimension=dim)


def test_dataset_round_trip_identity(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(10):
        data = random_dataset(rng)
        path = tmp_path / f"d{trial}.svm"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.dimension == data.dimension
        assert loaded.vectors == data.vectors


def test_every_way_of_building_a_dataset_gives_labelled_data(tmp_path):
    from malsieve.experiment import synthetic_dataset

    rng = np.random.default_rng(5)
    path = tmp_path / "d.svm"
    save_dataset(random_dataset(rng), path)
    records = [record(perms=["P"], label=1, app_id="a"), record(apis=["M"], label=-1),
               record(perms=["P"], label=-1)]
    built = {
        "load_dataset": load_dataset(path),
        "vectorize_all": vectorize_all(records, build_vocabulary(records, min_doc_freq=1)),
        "synthetic_dataset": synthetic_dataset(40, 6, 0.1, seed=2),
        "split": split(random_dataset(rng), SplitSpec())[0],
    }
    for name, data in built.items():
        assert len(data) and None not in data.labels(), name


def test_dataset_header_and_layout(tmp_path):
    data = Dataset([FeatureVector((0, 3), 1), FeatureVector((), -1)], dimension=4)
    path = tmp_path / "d.svm"
    save_dataset(data, path)
    assert path.read_text() == "dim=4 n=2\n+1 0 3\n-1\n"


def test_save_dataset_with_an_unlabeled_vector_creates_no_file(tmp_path):
    # the header and first row used to be written before the error
    data = Dataset([FeatureVector((0,), 1), FeatureVector((2,), None)], dimension=3)
    path = tmp_path / "d.svm"
    with pytest.raises(FormatError, match="labeled"):
        save_dataset(data, path)
    assert not path.exists()


@pytest.mark.parametrize("first, expected", [
    ("dim=3 n=2\n", True),
    ("dim=1\t+1\tperm:a\n", False),  # the record of dim=1.apk
    ("dim=1\t?\n", False),
    ("app\t+1\tperm:a\n", False),
    ("", False),
])
def test_is_dataset_file_tells_a_header_from_a_record(first, expected):
    # a file's first line tells a dataset from a records file
    assert is_dataset_header(first) is expected


def test_hand_written_dataset_file(tmp_path):
    path = tmp_path / "d.svm"
    path.write_text("dim=5 n=2\n+1 0 2 4\n-1 1\n")
    data = load_dataset(path)
    assert len(data) == 2
    assert data.vectors[0] == FeatureVector((0, 2, 4), 1)
    assert data.vectors[1] == FeatureVector((1,), -1)


def test_dataset_index_at_dimension_rejected(tmp_path):
    path = tmp_path / "d.svm"
    path.write_text("dim=5 n=1\n+1 5\n")
    with pytest.raises(FormatError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == 2


def test_dataset_header_count_mismatch(tmp_path):
    path = tmp_path / "d.svm"
    # a count, not a dimension: this used to be a DimensionMismatch
    path.write_text("dim=5 n=3\n+1 1\n")
    with pytest.raises(FormatError, match="header declares n=3") as info:
        load_dataset(path)
    assert info.value.line == 1


@pytest.mark.parametrize("header, message", [
    ("dim=5", "expected header"),
    ("dim=x n=1", "dim and n must be integers"),
    ("dim=5 n=1.0", "dim and n must be integers"),
    ("dim=0 n=0", "dim must be >= 1"),
    ("dim=5 n=-1", "n >= 0"),
])
def test_dataset_header_is_refused_on_line_1(tmp_path, header, message):
    path = tmp_path / "d.svm"
    path.write_text(f"{header}\n+1 1\n")
    with pytest.raises(FormatError, match=message) as info:
        load_dataset(path)
    assert info.value.line == 1


INCREASING = "indices must be strictly increasing"


@pytest.mark.parametrize("indices, message", [
    ((-1, 2, 3), INCREASING),  # a negative first index
    ((3, 1, 2), INCREASING),  # out of order at the first index
    ((1, 3, 2, 4), INCREASING),  # ... at a middle one
    ((1, 2, 2), INCREASING),  # ... at the last one
    ((5, 6, 7), "index 7 >= dimension 5"),  # too large from the first index
    ((1, 5, 6), "index 6 >= dimension 5"),  # ... from a middle one
    ((0, 1, 5), "index 5 >= dimension 5"),  # ... at the last one
    ((1, 9, 3), INCREASING),  # both: the order is checked first
])
def test_feature_vector_names_its_first_index_fault(indices, message):
    # the order is the vector's own check; the range is its dataset's
    with pytest.raises((ValueError, DimensionMismatch)) as info:
        Dataset([FeatureVector(indices, 1)], dimension=5)
    assert type(info.value) is (ValueError if message == INCREASING else DimensionMismatch)
    assert str(info.value) == message


def test_dataset_takes_empty_vectors_and_indices_below_its_dimension():
    data = Dataset([FeatureVector((), 1), FeatureVector((0, 4), -1)], dimension=5)
    assert [v.indices for v in data.vectors] == [(), (0, 4)]
    with pytest.raises(DimensionMismatch, match=r"^index 5 >= dimension 5$"):
        Dataset([FeatureVector((), 1), FeatureVector((0, 5), -1)], dimension=5)


def test_feature_vector_to_dense_is_its_row_of_the_dataset_matrix():
    data = random_dataset(np.random.default_rng(7))
    X = data.to_dense()
    for v, expected in zip(data.vectors, X):
        row = v.to_dense(data.dimension)
        assert row.dtype == np.uint8
        assert np.array_equal(row, expected)


def test_dataset_non_increasing_indices_rejected(tmp_path):
    path = tmp_path / "d.svm"
    path.write_text("dim=5 n=1\n+1 3 3\n")
    with pytest.raises(FormatError):
        load_dataset(path)


@pytest.mark.parametrize(
    "bad_line", ["+1 3 1", "-1 2 2", "+1 0 x", "-1 -2"]
)
def test_dataset_bad_indices_name_their_line(tmp_path, bad_line):
    # decreasing, duplicate, non-integer, negative (out of range:
    # test_dataset_index_at_dimension_rejected)
    path = tmp_path / "d.svm"
    path.write_text(f"dim=5 n=3\n+1 0 4\n{bad_line}\n-1\n")
    with pytest.raises(FormatError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == 3


@pytest.mark.parametrize("load, text, line", [
    (load_vocabulary, "0\tperm:a\t3\n\n1\tperm:a\t2\n", 3),
    (load_dataset, "dim=5 n=2\n+1 0\n\n-1 x\n", 4),
])
def test_blank_lines_are_skipped_and_still_counted(tmp_path, load, text, line):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(FormatError) as exc_info:
        load(path)
    assert exc_info.value.line == line


def test_vectorize_all_stream():
    vocab = fixture_vocab()
    data = vectorize_all(
        [record(perms=["P1"], label=1), record(perms=["P2"], label=-1)], vocab
    )
    assert len(data) == 2
    assert data.labels() == (1, -1)


def test_dense_conversion():
    data = Dataset([FeatureVector((1,), 1), FeatureVector((0, 2), -1)], dimension=3)
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(data.to_dense(), expected)
    assert data.to_dense().dtype == np.uint8
    assert data.to_dense(slice(1, 2)).dtype == np.uint8
    assert np.array_equal(data.label_array(), np.array([1, -1]))
