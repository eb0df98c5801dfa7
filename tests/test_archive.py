import io
import struct
import zipfile

import pytest

from malsieve.archive import open_apk, parse_archive
from malsieve.errors import (
    DuplicateEntry,
    NotAnArchive,
    TruncatedArchive,
    UnsupportedCompression,
)

from binfixtures import DEFLATED, STORED, build_zip

MANIFEST = b"\x03\x00\x08\x00 fake manifest payload for container tests"


def minimal_archive() -> bytes:
    return build_zip([("AndroidManifest.xml", MANIFEST, STORED)])


def test_minimal_archive_lists_one_entry():
    archive = parse_archive(minimal_archive())
    assert [e.path for e in archive.entries] == ["AndroidManifest.xml"]
    assert archive.manifest_entry is not None
    assert archive.read(archive.manifest_entry) == MANIFEST


def test_fixture_is_a_real_zip_per_stdlib():
    # independent oracle: the standard library must agree on the listing
    # and the payload of the hand-assembled container
    data = minimal_archive()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        assert zf.namelist() == ["AndroidManifest.xml"]
        assert zf.read("AndroidManifest.xml") == MANIFEST


def test_stored_and_deflate_payloads_round_trip():
    payload = bytes(range(256)) * 20
    data = build_zip(
        [("a.bin", payload, STORED), ("b.bin", payload, DEFLATED)]
    )
    archive = parse_archive(data)
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        for entry in archive.entries:
            assert archive.read(entry) == zf.read(entry.path) == payload


def test_empty_file_is_not_an_archive():
    with pytest.raises(NotAnArchive):
        parse_archive(b"")


def test_garbage_is_not_an_archive():
    with pytest.raises(NotAnArchive):
        parse_archive(b"MZ" + bytes(400))


def test_truncated_payload_raises_typed_error():
    # corrupted copy of the minimal fixture: the entry still declares the
    # full payload size but half the payload bytes are gone
    payload = bytes(100)
    data = build_zip([("AndroidManifest.xml", payload, STORED)])
    cd_offset = data.index(b"PK\x01\x02")
    eocd_offset = data.index(b"PK\x05\x06")
    spliced = bytearray(data[: cd_offset - 50] + data[cd_offset:])
    struct.pack_into("<I", spliced, eocd_offset - 50 + 16, cd_offset - 50)
    archive = parse_archive(bytes(spliced))
    with pytest.raises(TruncatedArchive):
        archive.read(archive.entries[0])


def test_payload_running_past_eof_raises_typed_error():
    data = bytearray(minimal_archive())
    # inflate the declared sizes in the central directory entry
    cd = data.index(b"PK\x01\x02")
    struct.pack_into("<II", data, cd + 20, 1 << 20, 1 << 20)
    archive = parse_archive(bytes(data))
    with pytest.raises(TruncatedArchive):
        archive.read(archive.entries[0])


def test_central_directory_cut_short():
    data = minimal_archive()
    cd = data.index(b"PK\x01\x02")
    eocd = data.index(b"PK\x05\x06")
    # drop the central entry but keep the EOCD claiming one entry
    broken = data[:cd] + data[eocd:]
    with pytest.raises(TruncatedArchive):
        parse_archive(broken)


def test_unsupported_compression_method():
    data = bytearray(build_zip([("x", b"payload", STORED)]))
    cd = data.index(b"PK\x01\x02")
    struct.pack_into("<H", data, cd + 10, 12)  # bzip2
    archive = parse_archive(bytes(data))
    with pytest.raises(UnsupportedCompression):
        archive.read(archive.entries[0])


def test_duplicate_entry_paths_rejected():
    data = build_zip([("same", b"a", STORED), ("same", b"b", STORED)])
    with pytest.raises(DuplicateEntry):
        parse_archive(data)


def test_dex_entries_in_numeric_order():
    data = build_zip(
        [
            ("classes10.dex", b"", STORED),
            ("classes.dex", b"", STORED),
            ("classes2.dex", b"", STORED),
            ("resources.arsc", b"", STORED),
        ]
    )
    archive = parse_archive(data)
    assert [e.path for e in archive.dex_entries] == [
        "classes.dex",
        "classes2.dex",
        "classes10.dex",
    ]


def test_open_apk_reads_from_disk(tmp_path):
    path = tmp_path / "app.apk"
    path.write_bytes(minimal_archive())
    archive = open_apk(path)
    assert [e.path for e in archive.entries] == ["AndroidManifest.xml"]


def test_local_header_past_the_end_of_the_file():
    data = bytearray(minimal_archive())
    cd = data.index(b"PK\x01\x02")
    struct.pack_into("<I", data, cd + 42, len(data))  # local header offset
    archive = parse_archive(bytes(data))
    with pytest.raises(TruncatedArchive, match="local header past end of file"):
        archive.read(archive.entries[0])


def test_end_record_cut_short():
    # the magic sits in the last 21 bytes, so no whole record follows it
    with pytest.raises(TruncatedArchive, match="end-of-central-directory record cut short"):
        parse_archive(bytes(30) + b"PK\x05\x06" + bytes(4))


def test_end_record_counting_more_entries_than_the_directory_holds():
    data = bytearray(minimal_archive())
    eocd = data.index(b"PK\x05\x06")
    struct.pack_into("<H", data, eocd + 10, 2)  # total entries
    with pytest.raises(TruncatedArchive, match="central directory entry cut short"):
        parse_archive(bytes(data))


def test_entry_name_running_past_the_directory():
    data = bytearray(minimal_archive())
    cd = data.index(b"PK\x01\x02")
    struct.pack_into("<H", data, cd + 28, 200)  # name length
    with pytest.raises(TruncatedArchive, match="entry name cut short"):
        parse_archive(bytes(data))


def test_entry_name_without_the_utf8_flag_is_cp437():
    data = bytearray(build_zip([("caf\u00e9.txt", b"x", STORED)]))
    for magic, flags_at in ((b"PK\x03\x04", 6), (b"PK\x01\x02", 8)):
        at = data.index(magic)
        struct.pack_into("<H", data, at + flags_at, 0)
    archive = parse_archive(bytes(data))
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        assert [e.path for e in archive.entries] == zf.namelist() == ["caf\u251c\u2310.txt"]
    assert archive.read(archive.entries[0]) == b"x"
