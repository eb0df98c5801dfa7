"""APK container reading.

An APK is a ZIP archive; we only need the entry table and on-demand
payload decompression, so this is a small purpose-built reader rather
than a wrapper around zipfile: it gives precise typed errors for the
corruption cases we must detect (bad magic, truncated structures,
payload/declared-size mismatches) and accepts nothing it cannot verify.

Only stored (0) and deflate (8) entries are supported; APKs in the wild
use nothing else for the manifest and DEX files.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass

from .errors import (
    DuplicateEntry,
    NotAnArchive,
    TruncatedArchive,
    UnsupportedCompression,
)

_EOCD_MAGIC = b"PK\x05\x06"
_CENTRAL_MAGIC = b"PK\x01\x02"
_LOCAL_MAGIC = b"PK\x03\x04"

_METHOD_STORED = 0
_METHOD_DEFLATE = 8

MANIFEST_PATH = "AndroidManifest.xml"
_DEX_NAME = re.compile(r"^classes([2-9]|[1-9]\d+)?\.dex$")


@dataclass(frozen=True)
class ZipEntry:
    """One central-directory record; payload decoded on demand."""

    path: str
    method: int
    compressed_size: int
    uncompressed_size: int
    crc32: int
    local_offset: int


@dataclass(frozen=True)
class ApkArchive:
    """Immutable view of an APK container.

    `entries` preserves central-directory order; `read()` decompresses a
    single entry and validates its size against the declared one.
    """

    data: bytes
    entries: tuple[ZipEntry, ...]

    @property
    def manifest_entry(self) -> ZipEntry | None:
        return next((e for e in self.entries if e.path == MANIFEST_PATH), None)

    @property
    def dex_entries(self) -> list[ZipEntry]:
        """classes.dex, classes2.dex, ... in numeric order."""
        found = []
        for e in self.entries:
            m = _DEX_NAME.match(e.path)
            if m:
                found.append((int(m.group(1) or 1), e))
        found.sort(key=lambda t: t[0])
        return [e for _, e in found]

    def read(self, entry: ZipEntry) -> bytes:
        """Decompress one entry's payload.

        Raises TruncatedArchive when the payload runs past the file or the
        decompressed size disagrees with the declared one, and
        UnsupportedCompression for methods other than stored/deflate. A
        deflate entry is inflated at most one byte past its declared size,
        so an entry that inflates far beyond it costs no more memory.
        """
        data = self.data
        off = entry.local_offset
        if off + 30 > len(data):
            raise TruncatedArchive(f"{entry.path}: local header past end of file")
        if data[off : off + 4] != _LOCAL_MAGIC:
            raise TruncatedArchive(f"{entry.path}: bad local header magic")
        name_len, extra_len = struct.unpack_from("<HH", data, off + 26)
        payload_off = off + 30 + name_len + extra_len
        payload_end = payload_off + entry.compressed_size
        if payload_end > len(data):
            raise TruncatedArchive(
                f"{entry.path}: payload declares {entry.compressed_size} bytes, "
                f"only {max(0, len(data) - payload_off)} available"
            )
        raw = data[payload_off:payload_end]
        if entry.method == _METHOD_STORED:
            out = raw
        elif entry.method == _METHOD_DEFLATE:
            inflater = zlib.decompressobj(wbits=-15)
            try:
                out = inflater.decompress(raw, entry.uncompressed_size + 1)
            except zlib.error as exc:
                raise TruncatedArchive(f"{entry.path}: bad deflate stream ({exc})") from exc
            if len(out) > entry.uncompressed_size:
                raise TruncatedArchive(
                    f"{entry.path}: inflates past its declared {entry.uncompressed_size} bytes"
                )
            if not inflater.eof:  # bytes after the stream's end are ignored, as zlib does
                raise TruncatedArchive(
                    f"{entry.path}: bad deflate stream (incomplete or truncated stream)"
                )
        else:
            raise UnsupportedCompression(f"{entry.path}: method {entry.method}")
        if len(out) != entry.uncompressed_size:
            raise TruncatedArchive(
                f"{entry.path}: decompressed {len(out)} bytes, header declares "
                f"{entry.uncompressed_size}"
            )
        if zlib.crc32(out) != entry.crc32:
            raise TruncatedArchive(
                f"{entry.path}: payload crc mismatch (truncated or corrupted)"
            )
        return out


def _find_eocd(data: bytes) -> int:
    # EOCD is min 22 bytes and may be followed by a comment up to 64 KiB.
    if len(data) < 22:
        raise NotAnArchive("too short for an archive")
    lo = max(0, len(data) - 22 - 0xFFFF)
    pos = data.rfind(_EOCD_MAGIC, lo)
    if pos == -1:
        raise NotAnArchive("no end-of-central-directory record")
    return pos


def parse_archive(data: bytes) -> ApkArchive:
    """Parse the central directory of a ZIP byte string into an ApkArchive."""
    eocd = _find_eocd(data)
    if eocd + 22 > len(data):
        raise TruncatedArchive("end-of-central-directory record cut short")
    (total_entries, cd_size, cd_offset) = struct.unpack_from("<HII", data, eocd + 10)
    if cd_offset + cd_size > eocd:
        raise TruncatedArchive("central directory extends past its end record")

    entries: list[ZipEntry] = []
    seen: set[str] = set()
    pos = cd_offset
    for _ in range(total_entries):
        if pos + 46 > eocd:
            raise TruncatedArchive("central directory entry cut short")
        if data[pos : pos + 4] != _CENTRAL_MAGIC:
            raise TruncatedArchive("bad central directory magic")
        (
            flags,
            method,
            crc,
            comp_size,
            uncomp_size,
            name_len,
            extra_len,
            comment_len,
        ) = struct.unpack_from("<HH4xIIIHHH", data, pos + 8)
        local_offset = struct.unpack_from("<I", data, pos + 42)[0]
        name_end = pos + 46 + name_len
        if name_end > eocd:
            raise TruncatedArchive("entry name cut short")
        raw_name = data[pos + 46 : name_end]
        if flags & 0x0800:
            path = raw_name.decode("utf-8", errors="replace")
        else:
            path = raw_name.decode("cp437")
        if path in seen:
            raise DuplicateEntry(f"duplicate entry path: {path!r}")
        seen.add(path)
        entries.append(ZipEntry(path, method, comp_size, uncomp_size, crc, local_offset))
        pos = name_end + extra_len + comment_len

    return ApkArchive(data=data, entries=tuple(entries))


def open_apk(path: str | os.PathLike) -> ApkArchive:
    """Read a file and parse it as an APK container."""
    with open(path, "rb") as fh:
        return parse_archive(fh.read())
