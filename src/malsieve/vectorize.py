"""Vocabulary construction and binary feature vectors.

The vocabulary is built once from a training corpus and frozen; it lays
features out in three contiguous blocks, permissions first, then intent
actions, then API references. The block layout is this module's rule
alone: `feature_blocks` sorts names into blocks by their prefix, and
building, counting and loading a vocabulary all use it. A record is a
set of names, so it vectorizes to the set of column indices whose
feature it contains, whatever the order of its names; unknown features
are ignored so the dimension never moves after training. That rule is
`feature_indices`, and `dense_matrix` is the one fill of a uint8 0/1
matrix from index tuples, with no exception: `Dataset.to_dense` fills it
from vectors, `FeatureVector.to_dense` is one row of it, and the
experiment from the columns of a training split's items, records or
vectors, with no vector made. A dataset holds the one width: its
vectors' indices are checked against it, and its learners' widths in
`ensemble.precompute_predictions`.

File formats (both plain text, UTF-8):

  vocabulary   one feature per line: "<index>\\t<prefixed-name>\\t<doc_freq>",
               ascending contiguous indices, blocks in perm/action/api order,
               doc_freq >= 1.
  dataset      header "dim=<d> n=<M>", then one line per sample:
               "<label> <idx> <idx> ..." with label +1|-1 and strictly
               increasing indices.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus, FormatError, InvalidConfig, open_text
from .records import BLOCK_PREFIXES, LABEL_TEXT, LABELS, FeatureRecord


def feature_blocks(names: Sequence[str]) -> tuple[list[str], ...]:
    """The perm, action and api names among `names`, each block in the
    order given; a name with none of the prefixes is in no block. (One
    pass per block is faster than testing each name against each prefix.)"""
    return tuple([n for n in names if n.startswith(p)] for p in BLOCK_PREFIXES)


class Vocabulary:
    """Frozen mapping from prefixed feature names to column indices.

    Blocks are contiguous: permissions at [0, perm_count), actions next,
    API references last. Within a block names are in ascending
    lexicographic order. A name's block is its prefix, so the block
    sizes are counted from the names.
    """

    def __init__(self, names: Sequence[str], doc_freq: Sequence[int]):
        if len(doc_freq) != len(names):
            raise ValueError("doc_freq length mismatch")
        self.names = tuple(names)
        self.doc_freq = tuple(doc_freq)
        blocks = feature_blocks(self.names)
        self.perm_count, self.action_count, self.api_count = map(len, blocks)
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate feature name in vocabulary")

    @property
    def dimension(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class FeatureVector:
    """Sparse binary vector: sorted active column indices plus a label;
    its width is its dataset's."""

    indices: tuple[int, ...]
    label: int | None = None

    def __post_init__(self):
        if self.label not in LABEL_TEXT:
            raise ValueError("label must be +1, -1 or None")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError("indices must be strictly increasing")
            prev = i

    def to_dense(self, dimension: int) -> np.ndarray:
        """This vector's uint8 row of a `dense_matrix` of that width."""
        return dense_matrix([self.indices], 1, dimension)[0]


def _check_width(indices: Sequence[int], dimension: int) -> None:
    """DimensionMismatch unless the sorted `indices` are below `dimension`."""
    if indices and indices[-1] >= dimension:
        raise DimensionMismatch(f"index {indices[-1]} >= dimension {dimension}")


class Dataset:
    """Ordered collection of feature vectors of the given dimension.

    A noisy split is built with its noisy labels; its clean labels are
    the labels of the items it was built from, which the caller holds.
    """

    def __init__(self, vectors: Sequence[FeatureVector], dimension: int):
        self.vectors = list(vectors)
        self.dimension = dimension
        for v in self.vectors:
            _check_width(v.indices, dimension)

    def __len__(self) -> int:
        return len(self.vectors)

    def labels(self) -> tuple[int | None, ...]:
        return tuple(v.label for v in self.vectors)

    def label_array(self) -> np.ndarray:
        labels = self.labels()
        if any(l is None for l in labels):
            raise ValueError("dataset contains unlabeled vectors")
        return np.array(labels, dtype=np.int8)

    def to_dense(self, rows: slice = slice(None)) -> np.ndarray:
        """The dense 0/1 matrix of the samples `rows` picks, all by default,
        as uint8: one byte per entry. Code that multiplies it by learner
        parameters widens the part it multiplies to float64, which is exact
        for 0 and 1."""
        vectors = self.vectors[rows]
        return dense_matrix((v.indices for v in vectors), len(vectors), self.dimension)


def build_vocabulary(records: Iterable[FeatureRecord],
                     min_doc_freq: int = 2,
                     max_api_features: int = 2000) -> Vocabulary:
    """Count document frequencies and freeze a vocabulary.

    Permission and action features need doc frequency >= min_doc_freq.
    API features need that too and are then truncated to the
    max_api_features most frequent, ties broken by name.
    """
    if min_doc_freq < 1:
        raise InvalidConfig("min_doc_freq must be >= 1")
    if max_api_features < 0:
        raise InvalidConfig("max_api_features must be >= 0")

    freq: Counter[str] = Counter()
    n_records = 0
    for record in records:
        n_records += 1
        freq.update(record.features)
    if n_records == 0:
        raise EmptyCorpus("no records")

    kept = sorted(name for name, c in freq.items() if c >= min_doc_freq)
    perms, actions, apis = feature_blocks(kept)
    if len(apis) > max_api_features:
        ranked = sorted(apis, key=lambda name: (-freq[name], name))
        apis = sorted(ranked[:max_api_features])

    names = perms + actions + apis
    if not names:
        raise EmptyCorpus("no feature met the document-frequency threshold")
    return Vocabulary(names, [freq[n] for n in names])


def feature_indices(record: FeatureRecord, vocab: Vocabulary) -> tuple[int, ...]:
    """The sorted columns of the record's features; unknown features drop
    out, and a name given twice is one column."""
    # one membership test per feature, in C; only the known ones are indexed
    known = vocab.index.keys() & record.features
    return tuple(sorted(map(vocab.index.__getitem__, known)))


def dense_matrix(rows: Iterable[Sequence[int]], n_rows: int, dimension: int) -> np.ndarray:
    """The (n_rows x dimension) uint8 0/1 matrix whose row r holds a 1 at
    each column of the r-th index tuple of `rows`, which must hold n_rows."""
    X = np.zeros((n_rows, dimension), dtype=np.uint8)
    for row, indices in zip(range(n_rows), rows, strict=True):
        X[row, list(indices)] = 1
    return X


def vectorize(record: FeatureRecord, vocab: Vocabulary) -> FeatureVector:
    """Map a record onto the frozen vocabulary; unknown features drop out."""
    return FeatureVector(feature_indices(record, vocab), record.label)


def vectorize_all(records: Iterable[FeatureRecord], vocab: Vocabulary) -> Dataset:
    vectors = [vectorize(r, vocab) for r in records]
    return Dataset(vectors, dimension=vocab.dimension)


# --- file formats ---

def save_vocabulary(vocab: Vocabulary, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, df) in enumerate(zip(vocab.names, vocab.doc_freq)):
            fh.write(f"{i}\t{name}\t{df}\n")


def load_vocabulary(path: str | os.PathLike) -> Vocabulary:
    names: dict[str, int] = {}  # name -> its line
    freqs: list[int] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError("expected index, name, doc_freq", lineno)
            idx_text, name, df_text = parts
            try:
                idx, df = int(idx_text), int(df_text)
            except ValueError:
                raise FormatError("index and doc_freq must be integers", lineno)
            if idx != len(names):
                raise FormatError(f"expected index {len(names)}, got {idx}", lineno)
            if df < 1:
                raise FormatError(f"doc_freq must be >= 1, got {df}", lineno)
            if name in names:
                raise FormatError(f"duplicate feature name {name!r}", lineno)
            names[name] = lineno
            freqs.append(df)
    if not names:
        raise FormatError("empty vocabulary file", None)
    # the file's names must be its blocks laid end to end; the first that
    # is not is reported
    for name, ordered in zip_longest(names, chain.from_iterable(feature_blocks(list(names)))):
        if not name.startswith(BLOCK_PREFIXES):
            raise FormatError(f"unknown feature prefix in {name!r}", names[name])
        if name != ordered:
            raise FormatError("blocks out of perm/action/api order", names[name])
    return Vocabulary(list(names), freqs)


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset file; an unlabeled vector raises before the file
    is opened, so no partial file is left."""
    if any(v.label is None for v in dataset.vectors):
        raise FormatError("dataset files require labeled vectors", None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dataset.dimension} n={len(dataset)}\n")
        for v in dataset.vectors:
            fh.write(" ".join([LABEL_TEXT[v.label], *map(str, v.indices)]) + "\n")


def is_dataset_header(line: str) -> bool:
    """Whether a file's first line is a dataset header; the other text
    input the pipeline takes in a dataset's place is a records file, whose
    lines, unlike a header, always hold a tab (the record of dim=1.apk
    starts with dim=). A caller tests the line it read from the handle it
    goes on to parse, so a pipe works as an input."""
    return line.startswith("dim=") and "\t" not in line


def read_dataset(lines: Iterable[str]) -> Dataset:
    """The dataset of a dataset file's lines, its header first."""
    lines = iter(lines)
    parts = next(lines, "").split()
    if (len(parts) != 2 or not parts[0].startswith("dim=")
            or not parts[1].startswith("n=")):
        raise FormatError("expected header 'dim=<d> n=<M>'", 1)
    try:
        dim = int(parts[0][4:])
        n = int(parts[1][2:])
    except ValueError:
        raise FormatError("dim and n must be integers", 1)
    if dim < 1 or n < 0:
        raise FormatError("dim must be >= 1 and n >= 0", 1)

    vectors: list[FeatureVector] = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        tokens = line.split()
        label = LABELS.get(tokens[0])
        if label is None:  # an unknown token, or ? (unlabeled)
            raise FormatError(f"bad label {tokens[0]!r}", lineno)
        try:
            vectors.append(FeatureVector(tuple(int(t) for t in tokens[1:]), label))
            _check_width(vectors[-1].indices, dim)
        except (ValueError, DimensionMismatch) as exc:
            raise FormatError(str(exc), lineno)
    if len(vectors) != n:
        raise FormatError(f"header declares n={n} but file holds {len(vectors)} samples", 1)
    return Dataset(vectors, dimension=dim)


def load_dataset(path: str | os.PathLike) -> Dataset:
    with open_text(path) as fh:
        return read_dataset(fh)
