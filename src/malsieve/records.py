"""Per-app feature records and their on-disk line format.

One record per app: app id, optional label and its features. A feature
is a name carrying its block prefix (perm:, action: or api:), so
permissions, intent actions and API references share one name space,
the one the vectorizer keys on. A record is the set of its app's
features: it holds each feature once, in the order given, and no
consumer reads that order (the vocabulary owns the block layout).
The text serialization is one tab-separated line per record,

    app_id<TAB>label<TAB><prefixed-name><TAB><prefixed-name>...

with label +1 (malicious), -1 (benign) or ? (unlabeled). Reading
accepts the names in any order; `extract_features` emits them in
perm/action/api block order, so every line `extract` writes is in it.
Every name read must carry a block prefix. A reader given a names table
(one string per distinct name, shared by the records it reads) checks a
name's prefix once, when the name enters the table, so the table holds
only names this reader checked and starts empty; without a table, each
record's names are checked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator

from .archive import ApkArchive
from .axml import parse_manifest
from .dex import parse_dex
from .errors import FormatError, MissingManifest, open_text

PERM_PREFIX = "perm:"
ACTION_PREFIX = "action:"
API_PREFIX = "api:"
BLOCK_PREFIXES = (PERM_PREFIX, ACTION_PREFIX, API_PREFIX)

LABELS = {"+1": 1, "-1": -1, "?": None}  # label text -> label
LABEL_TEXT = {label: text for text, label in LABELS.items()}


@dataclass(frozen=True)
class FeatureRecord:
    """An app's prefixed feature names, each once, in the order given."""

    app_id: str
    label: int | None
    features: tuple[str, ...]

    def __post_init__(self):
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if self.label not in LABEL_TEXT:
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

    refs = [parse_dex(archive.read(e)) for e in archive.dex_entries]
    # each parser's names are already distinct; only several DEX entries'
    # refs can repeat one another (deduplicating one takes 40% longer)
    api_refs = refs[0] if len(refs) == 1 else dict.fromkeys(chain.from_iterable(refs))
    features = [PERM_PREFIX + p for p in manifest.permissions]
    features += [ACTION_PREFIX + a for a in manifest.intent_actions]
    features += [API_PREFIX + r for r in api_refs]
    return FeatureRecord(app_id=app_id, label=label, features=tuple(features))


def _printable(name: str) -> bool:
    # tab/newline would corrupt the line format; such names only occur in
    # deliberately broken inputs and are dropped
    return not any(c in name for c in "\t\n\r")


def format_record(record: FeatureRecord) -> str:
    """The record's line, without its newline. Names that hold a tab,
    newline or carriage return are dropped; an app id that holds one, or
    that UTF-8 cannot encode (a file name that is not UTF-8), raises
    FormatError."""
    try:
        record.app_id.encode("utf-8")
    except UnicodeEncodeError:
        raise FormatError(f"app id {record.app_id!r} cannot be encoded as UTF-8") from None
    label = LABEL_TEXT[record.label]
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


def parse_record_line(
    line: str, lineno: int | None = None, names: dict[str, str] | None = None
) -> FeatureRecord:
    """One record from its line. With `names`, every feature name is
    replaced by the equal string already in it (and added when new), so
    that the records parsed with one dict share one string per name.

    A name's prefix is checked once per table: when it enters `names`,
    or, without a table, in every record that holds it. So a table holds
    only names this reader checked, and a caller starts it empty. (A stream
    keeps none: per record one costs a third more time, and a shared one
    doubles it on mostly unique APK names.) A line
    with a name of no known prefix raises FormatError naming its first
    such name, and leaves nothing of that line in `names`."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 2:
        raise FormatError("record needs at least app_id and label", lineno)
    app_id, label_text = fields[0], fields[1]
    if not app_id:
        raise FormatError("empty app_id", lineno)
    if label_text not in LABELS:
        raise FormatError(f"bad label {label_text!r}", lineno)
    features = fields[2:]
    if names is None:
        features = unchecked = tuple(dict.fromkeys(features))
    else:
        known = len(names)
        features = tuple(dict.fromkeys(map(names.setdefault, features, features)))
        # a dict keeps insertion order, so the names this line added are last
        unchecked = islice(reversed(names), len(names) - known)
    if not all(map(str.startswith, unchecked, repeat(BLOCK_PREFIXES))):
        if names is not None:
            for _ in range(len(names) - known):
                names.popitem()
        bad = next(f for f in features if not f.startswith(BLOCK_PREFIXES))
        raise FormatError(f"feature without a known prefix: {bad!r}", lineno)
    return FeatureRecord(app_id=app_id, label=LABELS[label_text], features=features)


def read_records(
    lines: Iterable[str], names: dict[str, str] | None = None
) -> Iterator[FeatureRecord]:
    """The records of a records file's lines, one at a time; a line that
    is empty or all whitespace is skipped. `names` is passed on to
    `parse_record_line`, so it starts empty; without it each record keeps
    the strings of its own line, and nothing outlives the record."""
    for lineno, line in enumerate(lines, start=1):
        # isspace stops at the first other character and copies nothing
        if line and not line.isspace():
            yield parse_record_line(line, lineno, names)


def load_records(path: str | os.PathLike) -> list[FeatureRecord]:
    """Every record of a records file, for a caller that keeps the corpus.
    The records share one string per distinct feature name, which makes a
    corpus of many apps with common names several times smaller, and each
    name's prefix is checked once, when the first record holding it is
    read, not in every record."""
    with open_text(path) as fh:
        return list(read_records(fh, {}))
