"""Exception types raised across the pipeline, and the shared reader and
writer of text artifacts.

Every malformed input or contract violation maps to one of these; nothing
in the package intentionally lets a raw struct/index error escape. Every
text artifact is read through `open_text`, so bytes that are not UTF-8
raise a typed error too. The model, pool-manifest and selection files are
all written by `write_tagged` and read by `read_tagged`, which reads each
header value with the parser its caller gives for that key, so a value
the parser refuses is a FormatError naming the key and its line. Every
setting (an experiment config key, a model header field) goes between
text and value through `value_text` and `FIELD_PARSERS`, by the type its
dataclass field declares.

`ValueError` is the channel for a programmer's bad arguments: the
constructors and helpers raise it on values no reader hands them
(`FeatureVector` on its label and index order, `Dataset` on an
unlabeled vector's label array, `Vocabulary`, `FeatureRecord`,
`WeightVector`, `EnsemblePool`, `ga.select_newpop` on negative or
non-finite fitness, the splitter and the noise injector on unlabeled
data). An index at or above its dataset's dimension is a typed
DimensionMismatch, which `Dataset` raises. It is never the answer to
outside input: every reader of a file (`load_dataset`, `load_selection`,
`load_model`, `load_pool`, `parse_config`) checks what it reads or turns
such an error into a FormatError or InvalidConfig, with its line when
one is known, so the command line exits 2 on it, never with a traceback.
For the tagged files `read_tagged` does that turning once, for every
header value.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import IO, Any, Callable, Iterable, Iterator, Mapping


class MalsieveError(Exception):
    """Base class for all errors raised by this package."""


# --- APK container / binary format parsing ---

class NotAnArchive(MalsieveError):
    """Input bytes are not a ZIP container (no end-of-central-directory)."""


class TruncatedArchive(MalsieveError):
    """Archive structures or entry payloads run past the available bytes,
    or a payload does not match the sizes declared in the entry header."""


class UnsupportedCompression(MalsieveError):
    """Entry uses a compression method other than stored or deflate."""


class DuplicateEntry(MalsieveError):
    """Two archive entries share the same path."""


class MissingManifest(MalsieveError):
    """Archive has no AndroidManifest.xml entry."""


class MalformedAxml(MalsieveError):
    """Binary XML payload violates the chunk layout."""


class MalformedDex(MalsieveError):
    """DEX payload has a bad magic, out-of-bounds offset or bad string data."""


# --- vectorizer / file formats ---

class EmptyCorpus(MalsieveError):
    """Vocabulary construction got zero records."""


class FormatError(MalsieveError):
    """A text artifact (records / dataset / vocabulary / model file) is
    malformed; carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(MalsieveError):
    """Vector, model or file dimensions disagree."""


# --- learners / ensemble ---

class SingleClassData(MalsieveError):
    """Training data contains only one class."""


class NonFiniteLoss(MalsieveError):
    """Training diverged (a parameter became NaN or infinite after an
    epoch); the learning rate is almost certainly too high. Saving a
    learner that holds such a parameter raises it too."""


class AllZeroWeights(MalsieveError):
    """A weight vector selecting no learners was used for voting."""


class EmptyDataset(MalsieveError):
    """Operation requires at least one sample."""


# --- evaluation / configuration ---

class TooSmall(MalsieveError):
    """Dataset too small to split."""


class LengthMismatch(MalsieveError):
    """Parallel sequences have different lengths."""


class InvalidConfig(MalsieveError):
    """Configuration value out of range or key unknown; names the key."""


class RunFailed(MalsieveError):
    """A pool learner or an experiment run raised an exception that is not
    a MalsieveError; the original is the __cause__."""


def with_context(exc: Exception, prefix: str) -> MalsieveError:
    """The error to raise `from exc` when exc escaped the step `prefix`
    names (e.g. "learner 3"); its message starts with "<prefix>: ".

    A MalsieveError comes back as a copy of its own type with its
    attributes, such as FormatError.line, intact. Its constructor is not
    called, so any signature works. Any other exception becomes a
    RunFailed naming the original type.
    """
    if not isinstance(exc, MalsieveError):
        return RunFailed(f"{prefix}: {type(exc).__name__}: {exc}")
    copy = type(exc).__new__(type(exc))
    copy.__dict__.update(exc.__dict__)
    copy.args = (f"{prefix}: {exc}",)
    return copy


@contextmanager
def open_text(
    path: str | os.PathLike, error: type[MalsieveError] = FormatError
) -> Iterator[IO[str]]:
    """Open path as UTF-8 text; a decode failure while the block reads it
    raises `error` (FormatError, or InvalidConfig for a config file)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{os.fspath(path)} is not UTF-8 text ({exc.reason})") from exc


def write_tagged(path: str | os.PathLike, tag: str, header: Mapping[str, object],
                 rows: Iterable[str] = (), row: str | None = None) -> None:
    """The file `read_tagged` reads: the tag line, `key=value_text(value)`
    per header item, then `row <text>` per body row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tag + "\n")
        fh.writelines(f"{key}={value_text(value)}\n" for key, value in header.items())
        fh.writelines(f"{row} {text}\n" for text in rows)


def read_tagged(
    path: str | os.PathLike,
    tag: str,
    parsers: Mapping[str, Callable[[str], object]],
    row: str | None = None,
) -> tuple[dict[str, Any], list[tuple[int, str]]]:
    """Read a tagged text artifact (model, pool manifest, selection): line
    1 is `tag`; every other nonblank line is a body row starting with the
    word `row`, or a `key=value` line giving one of the keys of `parsers`,
    each exactly once. Returns the header, each value read by its key's
    parser, and the body rows as (line number, rest of the row). Any other
    line, or a value its parser refuses with ValueError, is a FormatError
    with its number."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != tag:
        raise FormatError(f"expected the tag {tag!r}", 1)
    prefix = None if row is None else row + " "
    header: dict[str, Any] = {}
    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if prefix is not None and line.startswith(prefix):
            rows.append((lineno, line[len(prefix):]))
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in parsers:
            raise FormatError("unrecognized line", lineno)
        if key in header:
            raise FormatError(f"{key} given twice", lineno)
        try:
            header[key] = parsers[key](value)
        except ValueError as exc:
            raise FormatError(f"bad header field {key} ({exc})", lineno)
    for key in parsers:
        if key not in header:
            raise FormatError(f"missing header field {key}", None)
    return header, rows


def value_text(value: object) -> str:
    """The text of a setting's value: true/false, the repr of a float
    (which reads back exactly), and str of anything else."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0"):
        raise ValueError("expected true/false")
    return text.lower() in ("true", "1")


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError("expected a finite number")
    return value


# a dataclass field's declared type -> the inverse of `value_text` for it;
# each raises ValueError on text it cannot read
FIELD_PARSERS = {"str": str, "int": int, "float": _finite_float, "bool": _bool}
