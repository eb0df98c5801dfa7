"""Vocabulary construction and binary feature vectors.

The vocabulary is built once from a training corpus and frozen; it lays
features out in three contiguous blocks, permissions first, then intent
actions, then API references. A record vectorizes to the set of column
indices whose feature it contains; unknown features are ignored so the
dimension never moves after training.

File formats (both plain text, UTF-8):

  vocabulary   one feature per line: "<index>\\t<prefixed-name>\\t<doc_freq>",
               ascending contiguous indices, blocks in perm/action/api order.
  dataset      header "dim=<d> n=<M>", then one line per sample:
               "<label> <idx> <idx> ..." with label +1|-1 and strictly
               increasing indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus, FormatError, InvalidConfig, open_text
from .records import BLOCK_PREFIXES, FeatureRecord


class Vocabulary:
    """Frozen mapping from prefixed feature names to column indices.

    Blocks are contiguous: permissions at [0, perm_count), actions next,
    API references last. Within a block names are in ascending
    lexicographic order.
    """

    def __init__(self, names: Sequence[str], doc_freq: Sequence[int],
                 perm_count: int, action_count: int, api_count: int):
        if perm_count + action_count + api_count != len(names):
            raise ValueError("block sizes do not sum to the vocabulary size")
        if len(doc_freq) != len(names):
            raise ValueError("doc_freq length mismatch")
        self.names = tuple(names)
        self.doc_freq = tuple(doc_freq)
        self.perm_count = perm_count
        self.action_count = action_count
        self.api_count = api_count
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate feature name in vocabulary")

    @property
    def dimension(self) -> int:
        return len(self.names)

    def block_offsets(self) -> tuple[int, int, int]:
        """Start column of the perm, action and api blocks."""
        return 0, self.perm_count, self.perm_count + self.action_count


@dataclass(frozen=True)
class FeatureVector:
    """Sparse binary vector: sorted active column indices plus a label."""

    dimension: int
    indices: tuple[int, ...]
    label: int | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.label not in (1, -1, None):
            raise ValueError("label must be +1, -1 or None")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError("indices must be strictly increasing")
            prev = i
        if prev >= self.dimension:
            raise ValueError(f"index {prev} >= dimension {self.dimension}")

    def to_dense(self) -> np.ndarray:
        row = np.zeros(self.dimension, dtype=np.float64)
        if self.indices:
            row[list(self.indices)] = 1.0
        return row


class Dataset:
    """Ordered collection of equal-dimension feature vectors.

    `clean_labels`, when set, preserves the labels the dataset had before
    any noise injection; evaluation uses it for audits and to make
    repeated noise application an involution.
    """

    def __init__(self, vectors: Sequence[FeatureVector],
                 dimension: int | None = None,
                 clean_labels: tuple[int | None, ...] | None = None):
        vectors = list(vectors)
        if dimension is None:
            if not vectors:
                raise ValueError("empty dataset needs an explicit dimension")
            dimension = vectors[0].dimension
        for v in vectors:
            if v.dimension != dimension:
                raise DimensionMismatch(
                    f"vector dimension {v.dimension} != dataset dimension {dimension}"
                )
        if clean_labels is not None and len(clean_labels) != len(vectors):
            raise ValueError("clean_labels length mismatch")
        self.vectors = vectors
        self.dimension = dimension
        self.clean_labels = clean_labels

    def __len__(self) -> int:
        return len(self.vectors)

    def labels(self) -> tuple[int | None, ...]:
        return tuple(v.label for v in self.vectors)

    def label_array(self) -> np.ndarray:
        labels = self.labels()
        if any(l is None for l in labels):
            raise ValueError("dataset contains unlabeled vectors")
        return np.array(labels, dtype=np.int8)

    def to_dense(self) -> np.ndarray:
        X = np.zeros((len(self.vectors), self.dimension), dtype=np.float64)
        for row, v in enumerate(self.vectors):
            if v.indices:
                X[row, list(v.indices)] = 1.0
        return X

    def subset(self, indices: Sequence[int]) -> "Dataset":
        picked = [self.vectors[i] for i in indices]
        clean = None
        if self.clean_labels is not None:
            clean = tuple(self.clean_labels[i] for i in indices)
        return Dataset(picked, dimension=self.dimension, clean_labels=clean)

    def with_labels(self, labels: Sequence[int | None],
                    clean_labels: tuple[int | None, ...] | None = None) -> "Dataset":
        if len(labels) != len(self.vectors):
            raise ValueError("label count mismatch")
        vecs = [
            FeatureVector(v.dimension, v.indices, label)
            for v, label in zip(self.vectors, labels)
        ]
        return Dataset(vecs, dimension=self.dimension, clean_labels=clean_labels)


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

    freq: dict[str, int] = {}
    n_records = 0
    for record in records:
        n_records += 1
        for name in record.features:
            freq[name] = freq.get(name, 0) + 1
    if n_records == 0:
        raise EmptyCorpus("no records")

    kept = sorted(name for name, c in freq.items() if c >= min_doc_freq)
    perms, actions, apis = (
        [name for name in kept if name.startswith(p)] for p in BLOCK_PREFIXES
    )
    if len(apis) > max_api_features:
        ranked = sorted(apis, key=lambda name: (-freq[name], name))
        apis = sorted(ranked[:max_api_features])

    names = perms + actions + apis
    if not names:
        raise EmptyCorpus("no feature met the document-frequency threshold")
    return Vocabulary(
        names=names,
        doc_freq=[freq[n] for n in names],
        perm_count=len(perms),
        action_count=len(actions),
        api_count=len(apis),
    )


def vectorize(record: FeatureRecord, vocab: Vocabulary) -> FeatureVector:
    """Map a record onto the frozen vocabulary; unknown features drop out."""
    active = {
        vocab.index[name]
        for name in record.features
        if name in vocab.index
    }
    return FeatureVector(
        dimension=vocab.dimension,
        indices=tuple(sorted(active)),
        label=record.label,
    )


def vectorize_all(records: Iterable[FeatureRecord], vocab: Vocabulary) -> Dataset:
    vectors = [vectorize(r, vocab) for r in records]
    return Dataset(vectors, dimension=vocab.dimension)


# --- file formats ---

def save_vocabulary(vocab: Vocabulary, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, df) in enumerate(zip(vocab.names, vocab.doc_freq)):
            fh.write(f"{i}\t{name}\t{df}\n")


def load_vocabulary(path: str | os.PathLike) -> Vocabulary:
    names: list[str] = []
    freqs: list[int] = []
    seen: set[str] = set()
    block_sizes = [0, 0, 0]
    block = 0  # of the previous name; blocks only move forward
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
            for name_block, prefix in enumerate(BLOCK_PREFIXES):
                if name.startswith(prefix):
                    break
            else:
                raise FormatError(f"unknown feature prefix in {name!r}", lineno)
            if name_block < block:
                raise FormatError("blocks out of perm/action/api order", lineno)
            if name in seen:
                raise FormatError(f"duplicate feature name {name!r}", lineno)
            block = name_block
            block_sizes[block] += 1
            seen.add(name)
            names.append(name)
            freqs.append(df)
    if not names:
        raise FormatError("empty vocabulary file", None)
    return Vocabulary(names, freqs, *block_sizes)


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dataset.dimension} n={len(dataset)}\n")
        for v in dataset.vectors:
            if v.label is None:
                raise FormatError("dataset files require labeled vectors", None)
            label = "+1" if v.label == 1 else "-1"
            fh.write(" ".join([label, *map(str, v.indices)]) + "\n")


def load_dataset(path: str | os.PathLike) -> Dataset:
    with open_text(path) as fh:
        header = fh.readline()
        parts = header.split()
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
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            tokens = line.split()
            if tokens[0] not in ("+1", "-1"):
                raise FormatError(f"bad label {tokens[0]!r}", lineno)
            label = 1 if tokens[0] == "+1" else -1
            try:
                indices = tuple(int(t) for t in tokens[1:])
                vectors.append(FeatureVector(dim, indices, label))
            except ValueError as exc:
                raise FormatError(str(exc), lineno)

    if len(vectors) != n:
        raise DimensionMismatch(
            f"header declares n={n} but file holds {len(vectors)} samples"
        )
    return Dataset(vectors, dimension=dim)
