"""Android binary XML (AndroidManifest.xml) parsing.

The manifest inside an APK is not text XML but a chunked binary encoding:
a string pool chunk followed by namespace/element event chunks, each with
a (type: u16, header_size: u16, chunk_size: u32) header. We walk the
event stream and collect exactly two things:

  * values of the name attribute on <uses-permission> elements,
  * values of the name attribute on <action> elements that sit inside an
    <intent-filter>.

Attribute name matching follows the android namespace URI when the
document declares it; documents that never declare it (some obfuscated
apps strip namespace chunks) fall back to a bare local-name match. The
rule is decided once per document, after the whole walk, so the position
of the namespace chunk does not change which names count.

Any structural violation raises MalformedAxml: bad outer type, a chunk
header that lies about its size, a string index out of range, or an end
element with no matching start.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import MalformedAxml

ANDROID_NS = "http://schemas.android.com/apk/res/android"

_RES_STRING_POOL = 0x0001
_RES_XML = 0x0003
_RES_XML_START_NAMESPACE = 0x0100
_RES_XML_START_ELEMENT = 0x0102
_RES_XML_END_ELEMENT = 0x0103

_UTF8_FLAG = 1 << 8
_NO_INDEX = 0xFFFFFFFF
_TYPE_STRING = 0x03


@dataclass(frozen=True)
class ManifestFeatures:
    """Deduplicated manifest-declared features in first-occurrence order."""

    permissions: tuple[str, ...] = ()
    intent_actions: tuple[str, ...] = ()


def _read_string_pool(data: bytes, start: int, header_size: int, size: int) -> list[str]:
    if header_size < 28 or start + 28 > len(data):
        raise MalformedAxml("string pool header cut short")
    count, style_count, flags, strings_start, _styles_start = struct.unpack_from(
        "<IIIII", data, start + 8
    )
    offsets_at = start + header_size
    if offsets_at + 4 * count > start + size:
        raise MalformedAxml("string pool offset table cut short")
    base = start + strings_start
    end = start + size
    utf8 = bool(flags & _UTF8_FLAG)
    strings: list[str] = []
    for i in range(count):
        rel = struct.unpack_from("<I", data, offsets_at + 4 * i)[0]
        pos = base + rel
        if pos >= end:
            raise MalformedAxml(f"string {i} offset out of bounds")
        strings.append(_decode_string(data, pos, end, utf8))
    return strings


def _decode_string(data: bytes, pos: int, end: int, utf8: bool) -> str:
    if utf8:
        # two lengths (utf16 units then bytes), each 1 or 2 bytes
        _, pos = _read_u8_len(data, pos, end)
        nbytes, pos = _read_u8_len(data, pos, end)
        if pos + nbytes > end:
            raise MalformedAxml("utf-8 string data out of bounds")
        return data[pos : pos + nbytes].decode("utf-8", errors="replace")
    if pos + 2 > end:
        raise MalformedAxml("utf-16 string length out of bounds")
    n = struct.unpack_from("<H", data, pos)[0]
    pos += 2
    if n & 0x8000:
        if pos + 2 > end:
            raise MalformedAxml("utf-16 extended length out of bounds")
        n = ((n & 0x7FFF) << 16) | struct.unpack_from("<H", data, pos)[0]
        pos += 2
    if pos + 2 * n > end:
        raise MalformedAxml("utf-16 string data out of bounds")
    return data[pos : pos + 2 * n].decode("utf-16-le", errors="replace")


def _read_u8_len(data: bytes, pos: int, end: int) -> tuple[int, int]:
    if pos >= end:
        raise MalformedAxml("utf-8 string length out of bounds")
    n = data[pos]
    pos += 1
    if n & 0x80:
        if pos >= end:
            raise MalformedAxml("utf-8 extended length out of bounds")
        n = ((n & 0x7F) << 8) | data[pos]
        pos += 1
    return n, pos


class _Parser:
    def __init__(self, payload: bytes):
        self.data = payload
        self.strings: list[str] | None = None
        self.android_ns_seen = False
        self.element_stack: list[str] = []
        self.open_filters = 0  # how many intent-filter elements element_stack holds
        # (is a permission, value, has no namespace) per name attribute found
        self.found: list[tuple[bool, str, bool]] = []

    def string(self, idx: int) -> str:
        if self.strings is None:
            raise MalformedAxml("element chunk before string pool")
        if idx >= len(self.strings):
            raise MalformedAxml(f"string index {idx} out of range")
        return self.strings[idx]

    def run(self) -> ManifestFeatures:
        data = self.data
        if len(data) < 8:
            raise MalformedAxml("payload shorter than a chunk header")
        outer_type, outer_header, outer_size = struct.unpack_from("<HHI", data, 0)
        if outer_type != _RES_XML:
            raise MalformedAxml(f"bad outer chunk type 0x{outer_type:04x}")
        if outer_size > len(data) or outer_header < 8 or outer_header > outer_size:
            raise MalformedAxml("outer chunk size out of bounds")

        pos = outer_header
        while pos < outer_size:
            if pos + 8 > outer_size:
                raise MalformedAxml("trailing bytes too short for a chunk header")
            ctype, cheader, csize = struct.unpack_from("<HHI", data, pos)
            if csize < cheader or cheader < 8 or pos + csize > outer_size:
                raise MalformedAxml(f"chunk 0x{ctype:04x} size out of bounds")
            if ctype == _RES_STRING_POOL:
                if self.strings is None:
                    self.strings = _read_string_pool(data, pos, cheader, csize)
            elif ctype == _RES_XML_START_NAMESPACE:
                self.start_namespace(pos, cheader, csize)
            elif ctype == _RES_XML_START_ELEMENT:
                self.start_element(pos, cheader, csize)
            elif ctype == _RES_XML_END_ELEMENT:
                if not self.element_stack:
                    raise MalformedAxml("end element without open element")
                if self.element_stack.pop() == "intent-filter":
                    self.open_filters -= 1
            # other chunk types are skipped; their size field was validated
            pos += csize

        # the local-name fallback holds for the whole document or not at
        # all, wherever its namespace chunk sits
        kept = [(perm, value) for perm, value, bare in self.found
                if not (bare and self.android_ns_seen)]
        return ManifestFeatures(
            permissions=tuple(dict.fromkeys(value for perm, value in kept if perm)),
            intent_actions=tuple(dict.fromkeys(value for perm, value in kept if not perm)),
        )

    def start_namespace(self, pos: int, cheader: int, csize: int) -> None:
        if csize < cheader + 8:
            raise MalformedAxml("namespace chunk body cut short")
        _prefix, uri = struct.unpack_from("<II", self.data, pos + cheader)
        if uri != _NO_INDEX and self.string(uri) == ANDROID_NS:
            self.android_ns_seen = True

    def start_element(self, pos: int, cheader: int, csize: int) -> None:
        data = self.data
        body = pos + cheader
        if csize < cheader + 20:
            raise MalformedAxml("element chunk body cut short")
        _ns, name_idx, attr_start, attr_size, attr_count = struct.unpack_from(
            "<IIHHH", data, body
        )
        name = self.string(name_idx)
        self.element_stack.append(name)
        if name == "intent-filter":
            self.open_filters += 1

        wants_permission = name == "uses-permission"
        wants_action = name == "action" and self.open_filters > 0  # inside one, at any depth
        if not (wants_permission or wants_action):
            return

        if attr_size < 20:
            raise MalformedAxml("attribute record smaller than 20 bytes")
        for i in range(attr_count):
            at = body + attr_start + i * attr_size
            if at + 20 > pos + csize:
                raise MalformedAxml("attribute table out of bounds")
            a_ns, a_name, a_raw, _vsize, _res0, vtype, vdata = struct.unpack_from(
                "<IIIHBBI", data, at
            )
            if self.string(a_name) != "name":
                continue
            bare = a_ns == _NO_INDEX
            if not bare and self.string(a_ns) != ANDROID_NS:
                continue
            value = self._attr_value(a_raw, vtype, vdata)
            if value:  # an empty name is no feature
                self.found.append((wants_permission, value, bare))

    def _attr_value(self, a_raw: int, vtype: int, vdata: int) -> str | None:
        if a_raw != _NO_INDEX:
            return self.string(a_raw)
        if vtype == _TYPE_STRING:
            return self.string(vdata)
        return None


def parse_manifest(payload: bytes) -> ManifestFeatures:
    """Extract permission and intent-action names from a binary manifest."""
    return _Parser(payload).run()
