"""Per-app feature records and their on-disk line format.

One record per app: app id, optional label and its features. A feature
is a name carrying its block prefix (perm:, action: or api:), so
permissions, intent actions and API references share one name space,
the one the vectorizer keys on. A record holds each feature once, in
perm/action/api block order, exactly as its line in a records file
does. The text serialization is one tab-separated line per record,

    app_id<TAB>label<TAB>perm:<name>...<TAB>action:<name>...<TAB>api:<name>...

with label +1 (malicious), -1 (benign) or ? (unlabeled).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable, Iterator

from .archive import ApkArchive
from .axml import parse_manifest
from .dex import parse_dex
from .errors import FormatError, MissingManifest, open_text

PERM_PREFIX = "perm:"
ACTION_PREFIX = "action:"
API_PREFIX = "api:"
BLOCK_PREFIXES = (PERM_PREFIX, ACTION_PREFIX, API_PREFIX)

_LABEL_TO_TEXT = {1: "+1", -1: "-1", None: "?"}
_TEXT_TO_LABEL = {"+1": 1, "-1": -1, "?": None}


@dataclass(frozen=True)
class FeatureRecord:
    """An app's prefixed feature names, each once, in block order."""

    app_id: str
    label: int | None
    features: tuple[str, ...]

    def __post_init__(self):
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if self.label not in (1, -1, None):
            raise ValueError("label must be +1, -1 or None")


def extract_features(
    archive: ApkArchive, app_id: str, label: int | None = None
) -> FeatureRecord:
    """Run both parsers over an archive and combine their output into one
    record of prefixed features.

    The manifest is mandatory; DEX entries are optional and their method
    references are unioned in classes.dex, classes2.dex, ... order.
    """
    entry = archive.manifest_entry
    if entry is None:
        raise MissingManifest("archive has no AndroidManifest.xml")
    manifest = parse_manifest(archive.read(entry))

    features = [PERM_PREFIX + p for p in manifest.permissions]
    features += [ACTION_PREFIX + a for a in manifest.intent_actions]
    for dex_entry in archive.dex_entries:
        features += [API_PREFIX + r for r in parse_dex(archive.read(dex_entry)).api_refs]
    return FeatureRecord(
        app_id=app_id, label=label, features=tuple(dict.fromkeys(features))
    )


def _printable(name: str) -> bool:
    # tab/newline would corrupt the line format; such names only occur in
    # deliberately broken inputs and are dropped
    return not any(c in name for c in "\t\n\r")


def format_record(record: FeatureRecord) -> str:
    """The record's line, without its newline. Names that hold a tab,
    newline or carriage return are dropped; an app id that holds one
    raises FormatError."""
    label = _LABEL_TO_TEXT[record.label]
    line = "\t".join((record.app_id, label) + record.features)
    # one scan per character over the joined line; only a line that fails
    # it is taken apart name by name
    tabs_ok = line.count("\t") == len(record.features) + 1
    if tabs_ok and "\n" not in line and "\r" not in line:
        return line
    if not _printable(record.app_id):
        raise FormatError(f"app id {record.app_id!r} holds a tab, newline or carriage return")
    kept = [f for f in record.features if _printable(f)]
    return "\t".join([record.app_id, label] + kept)


def write_records(records: Iterable[FeatureRecord], fh: IO[str]) -> int:
    n = 0
    for record in records:
        fh.write(format_record(record) + "\n")
        n += 1
    return n


def save_records(records: Iterable[FeatureRecord], path: str | os.PathLike) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        return write_records(records, fh)


def parse_record_line(
    line: str, lineno: int | None = None, names: dict[str, str] | None = None
) -> FeatureRecord:
    """One record from its line. With `names`, every feature name is
    replaced by the equal string already in it (and added when new), so
    that the records parsed with one dict share one string per name."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 2:
        raise FormatError("record needs at least app_id and label", lineno)
    app_id, label_text = fields[0], fields[1]
    if not app_id:
        raise FormatError("empty app_id", lineno)
    if label_text not in _TEXT_TO_LABEL:
        raise FormatError(f"bad label {label_text!r}", lineno)
    features = fields[2:]
    if names is not None:
        features = map(names.setdefault, features, features)
    return FeatureRecord(
        app_id=app_id,
        label=_TEXT_TO_LABEL[label_text],
        features=_block_order(tuple(dict.fromkeys(features)), lineno),
    )


def _block_order(unique: tuple[str, ...], lineno: int | None) -> tuple[str, ...]:
    """Distinct feature names in perm/action/api block order, keeping the
    order within each block."""
    # every line format_record writes is in block order already: skip the
    # few perm and action names, then test the api tail in one C-level pass
    i, n = 0, len(unique)
    for prefix in (PERM_PREFIX, ACTION_PREFIX):
        while i < n and unique[i].startswith(prefix):
            i += 1
    if all(map(str.startswith, unique[i:], repeat(API_PREFIX))):
        return unique
    # one pass per block is faster than testing every field against each
    # prefix; the prefixes are disjoint, so the blocks partition the
    # fields unless some field has none of them
    blocks = [[f for f in unique if f.startswith(p)] for p in BLOCK_PREFIXES]
    features = tuple(blocks[0] + blocks[1] + blocks[2])
    if len(features) != len(unique):
        bad = next(f for f in unique if not f.startswith(BLOCK_PREFIXES))
        raise FormatError(f"feature without a known prefix: {bad!r}", lineno)
    return features


def read_records(fh: IO[str]) -> Iterator[FeatureRecord]:
    """The records of fh's lines, blank lines skipped. The records share
    one string per distinct feature name."""
    names: dict[str, str] = {}
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            yield parse_record_line(line, lineno, names)


def load_records(path: str | os.PathLike) -> list[FeatureRecord]:
    with open_text(path) as fh:
        return list(read_records(fh))
