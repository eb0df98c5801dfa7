"""Exception types raised across the pipeline.

Every malformed input or contract violation maps to one of these; nothing
in the package intentionally lets a raw struct/index error escape. Every
text artifact is read through `open_text`, so bytes that are not UTF-8
raise a typed error too.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


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
    epoch); the learning rate is almost certainly too high."""


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
