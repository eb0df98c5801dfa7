"""Byte-level builders for ZIP, binary-XML and DEX test fixtures.

These assemble files field by field from the published layouts, entirely
independent of the parsers under test: a fixture's expected content is
whatever was put into it. Corruption cases are made by slicing or
patching the assembled bytes.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

ANDROID_NS = "http://schemas.android.com/apk/res/android"

STORED = 0
DEFLATED = 8


# --- ZIP ---

def build_zip(entries: list[tuple[str, bytes, int]], comment: bytes = b"") -> bytes:
    """entries: (path, payload, method)."""
    out = bytearray()
    central = bytearray()
    for path, payload, method in entries:
        name = path.encode("utf-8")
        crc = zlib.crc32(payload)
        if method == DEFLATED:
            comp = zlib.compressobj(level=6, wbits=-15)
            blob = comp.compress(payload) + comp.flush()
        else:
            blob = payload
        local_offset = len(out)
        out += struct.pack(
            "<4sHHHHHIIIHH",
            b"PK\x03\x04", 20, 0x0800, method, 0, 0x21,
            crc, len(blob), len(payload), len(name), 0,
        )
        out += name
        out += blob
        central += struct.pack(
            "<4sHHHHHHIIIHHHHHII",
            b"PK\x01\x02", 20, 20, 0x0800, method, 0, 0x21,
            crc, len(blob), len(payload), len(name), 0, 0, 0, 0, 0,
            local_offset,
        )
        central += name
    cd_offset = len(out)
    out += central
    out += struct.pack(
        "<4sHHHHIIH",
        b"PK\x05\x06", 0, 0, len(entries), len(entries),
        len(central), cd_offset, len(comment),
    )
    out += comment
    return bytes(out)


# --- Android binary XML ---

class AxmlBuilder:
    """Event-driven builder; strings are interned in first-use order.

    Events:
      start_ns(prefix, uri) / end_ns(prefix, uri)
      start(name, attrs) with attrs = [(ns_uri_or_None, local_name, value)]
      end(name)
    """

    def __init__(self, utf8_pool: bool = False):
        self.utf8 = utf8_pool
        self.strings: list[str] = []
        self.index: dict[str, int] = {}
        self.body = bytearray()

    def intern(self, s: str) -> int:
        if s not in self.index:
            self.index[s] = len(self.strings)
            self.strings.append(s)
        return self.index[s]

    def start_ns(self, prefix: str, uri: str) -> "AxmlBuilder":
        p, u = self.intern(prefix), self.intern(uri)
        self.body += struct.pack("<HHIIIII", 0x0100, 16, 24, 1, 0xFFFFFFFF, p, u)
        return self

    def end_ns(self, prefix: str, uri: str) -> "AxmlBuilder":
        p, u = self.intern(prefix), self.intern(uri)
        self.body += struct.pack("<HHIIIII", 0x0101, 16, 24, 1, 0xFFFFFFFF, p, u)
        return self

    def start(self, name: str, attrs: list[tuple[str | None, str, str]] = ()) -> "AxmlBuilder":
        name_idx = self.intern(name)
        attr_blobs = []
        for ns_uri, local, value in attrs:
            ns_idx = 0xFFFFFFFF if ns_uri is None else self.intern(ns_uri)
            local_idx = self.intern(local)
            value_idx = self.intern(value)
            attr_blobs.append(
                struct.pack("<IIIHBBI", ns_idx, local_idx, value_idx, 8, 0, 0x03, value_idx)
            )
        size = 16 + 20 + 20 * len(attr_blobs)
        self.body += struct.pack(
            "<HHIIIIIHHHHHH",
            0x0102, 16, size, 1, 0xFFFFFFFF,
            0xFFFFFFFF, name_idx, 20, 20, len(attr_blobs), 0, 0, 0,
        )
        for blob in attr_blobs:
            self.body += blob
        return self

    def end(self, name: str) -> "AxmlBuilder":
        name_idx = self.intern(name)
        self.body += struct.pack(
            "<HHIIIII", 0x0103, 16, 24, 1, 0xFFFFFFFF, 0xFFFFFFFF, name_idx
        )
        return self

    def string_pool(self) -> bytes:
        data = bytearray()
        offsets = []
        for s in self.strings:
            offsets.append(len(data))
            if self.utf8:
                raw = s.encode("utf-8")
                data += _utf8_length(len(s)) + _utf8_length(len(raw)) + raw + b"\x00"
            else:
                raw = s.encode("utf-16-le")
                assert len(s) < 0x8000
                data += struct.pack("<H", len(s)) + raw + b"\x00\x00"
        while len(data) % 4:
            data += b"\x00"
        header_size = 28
        strings_start = header_size + 4 * len(self.strings)
        size = strings_start + len(data)
        flags = (1 << 8) if self.utf8 else 0
        pool = struct.pack(
            "<HHIIIIII",
            0x0001, header_size, size,
            len(self.strings), 0, flags, strings_start, 0,
        )
        pool += b"".join(struct.pack("<I", o) for o in offsets)
        pool += data
        return pool

    def build(self) -> bytes:
        pool = self.string_pool()
        total = 8 + len(pool) + len(self.body)
        return struct.pack("<HHI", 0x0003, 8, total) + pool + bytes(self.body)


def _utf8_length(n: int) -> bytes:
    """A UTF-8 pool string's length field: one byte below 0x80, else two,
    big-endian, with the high bit of the first set."""
    assert n < 0x8000
    return bytes([n]) if n < 0x80 else bytes([0x80 | n >> 8, n & 0xFF])


def simple_manifest(
    permissions: list[str] = (),
    actions: list[str] = (),
    with_namespace: bool = True,
    utf8_pool: bool = False,
    repeat: int = 1,
) -> bytes:
    """Manifest fixture: uses-permission elements plus one receiver with
    an intent-filter holding the action elements."""
    b = AxmlBuilder(utf8_pool=utf8_pool)
    ns = ANDROID_NS if with_namespace else None
    if with_namespace:
        b.start_ns("android", ANDROID_NS)
    b.start("manifest", [])
    for _ in range(repeat):
        for perm in permissions:
            b.start("uses-permission", [(ns, "name", perm)]).end("uses-permission")
    b.start("application", []).start("receiver", [])
    b.start("intent-filter", [])
    for _ in range(repeat):
        for action in actions:
            b.start("action", [(ns, "name", action)]).end("action")
    b.end("intent-filter").end("receiver").end("application")
    b.end("manifest")
    if with_namespace:
        b.end_ns("android", ANDROID_NS)
    return b.build()


# --- DEX ---

def _uleb128(n: int) -> bytes:
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def build_dex(method_refs: list[tuple[str, str]], version: bytes = b"035") -> bytes:
    """Assemble a minimal DEX whose method_ids table holds exactly
    method_refs as (class descriptor, method name) pairs.

    String and type tables are sorted as the format requires; a single
    void prototype backs every method.
    """
    class_descs = sorted({c for c, _ in method_refs})
    types = sorted(set(class_descs) | {"V"})
    strings = sorted(set(types) | {m for _, m in method_refs} | {"V"})
    str_idx = {s: i for i, s in enumerate(strings)}
    type_idx = {t: i for i, t in enumerate(types)}

    header_size = 0x70
    string_ids_off = header_size
    type_ids_off = string_ids_off + 4 * len(strings)
    proto_ids_off = type_ids_off + 4 * len(types)
    method_ids_off = proto_ids_off + 12  # one proto_id_item
    data_off = method_ids_off + 8 * len(method_refs)

    data = bytearray()
    string_offsets = []
    for s in strings:
        string_offsets.append(data_off + len(data))
        raw = s.encode("utf-8")
        data += _uleb128(len(s)) + raw + b"\x00"

    body = bytearray()
    body += b"".join(struct.pack("<I", o) for o in string_offsets)
    body += b"".join(struct.pack("<I", str_idx[t]) for t in types)
    body += struct.pack("<III", str_idx["V"], type_idx["V"], 0)  # void proto
    ordered = sorted(method_refs, key=lambda cm: (type_idx[cm[0]], str_idx[cm[1]]))
    for class_desc, name in ordered:
        body += struct.pack("<HHI", type_idx[class_desc], 0, str_idx[name])
    body += data

    file_size = header_size + len(body)
    header = bytearray(header_size)
    header[0:4] = b"dex\n"
    header[4:7] = version
    header[7] = 0
    struct.pack_into("<I", header, 32, file_size)
    struct.pack_into("<I", header, 36, header_size)
    struct.pack_into("<I", header, 40, 0x12345678)
    struct.pack_into("<II", header, 44, 0, 0)  # link
    struct.pack_into("<I", header, 52, 0)  # map
    struct.pack_into("<II", header, 56, len(strings), string_ids_off)
    struct.pack_into("<II", header, 64, len(types), type_ids_off)
    struct.pack_into("<II", header, 72, 1, proto_ids_off)
    struct.pack_into("<II", header, 80, 0, 0)  # field_ids
    struct.pack_into("<II", header, 88, len(method_refs), method_ids_off)
    struct.pack_into("<II", header, 96, 0, 0)  # class_defs
    struct.pack_into("<II", header, 104, len(data), data_off)

    blob = bytes(header) + bytes(body)
    signature = hashlib.sha1(blob[32:]).digest()
    blob = blob[:12] + signature + blob[32:]
    checksum = zlib.adler32(blob[12:])
    return blob[:8] + struct.pack("<I", checksum) + blob[12:]
