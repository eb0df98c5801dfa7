import struct
import time

import pytest

from malsieve.axml import parse_manifest
from malsieve.errors import MalformedAxml

from binfixtures import ANDROID_NS, AxmlBuilder, simple_manifest

INTERNET = "android.permission.INTERNET"
SEND_SMS = "android.permission.SEND_SMS"
BOOT = "android.intent.action.BOOT_COMPLETED"


def hand_assembled_minimal() -> bytes:
    """<manifest><uses-permission android:name=INTERNET/></manifest>,
    spelled out chunk by chunk straight from the format layout."""
    strings = ["android", ANDROID_NS, "manifest", "uses-permission", "name", INTERNET]
    blob = bytearray()
    offsets = []
    for s in strings:
        offsets.append(len(blob))
        blob += struct.pack("<H", len(s)) + s.encode("utf-16-le") + b"\x00\x00"
    while len(blob) % 4:
        blob += b"\x00"
    strings_start = 28 + 4 * len(strings)
    pool = struct.pack(
        "<HHIIIIII", 0x0001, 28, strings_start + len(blob),
        len(strings), 0, 0, strings_start, 0,
    )
    pool += b"".join(struct.pack("<I", o) for o in offsets) + blob

    body = bytearray()
    # start namespace android=ANDROID_NS
    body += struct.pack("<HHIIIII", 0x0100, 16, 24, 1, 0xFFFFFFFF, 0, 1)
    # <manifest>
    body += struct.pack(
        "<HHIIIIIHHHHHH", 0x0102, 16, 36, 1, 0xFFFFFFFF,
        0xFFFFFFFF, 2, 20, 20, 0, 0, 0, 0,
    )
    # <uses-permission android:name=INTERNET/>
    body += struct.pack(
        "<HHIIIIIHHHHHH", 0x0102, 16, 56, 1, 0xFFFFFFFF,
        0xFFFFFFFF, 3, 20, 20, 1, 0, 0, 0,
    )
    body += struct.pack("<IIIHBBI", 1, 4, 5, 8, 0, 0x03, 5)
    body += struct.pack("<HHIIIII", 0x0103, 16, 24, 1, 0xFFFFFFFF, 0xFFFFFFFF, 3)
    # </manifest>, end namespace
    body += struct.pack("<HHIIIII", 0x0103, 16, 24, 1, 0xFFFFFFFF, 0xFFFFFFFF, 2)
    body += struct.pack("<HHIIIII", 0x0101, 16, 24, 1, 0xFFFFFFFF, 0, 1)

    total = 8 + len(pool) + len(body)
    return struct.pack("<HHI", 0x0003, 8, total) + pool + bytes(body)


def test_hand_assembled_fixture_parses():
    features = parse_manifest(hand_assembled_minimal())
    assert features.permissions == (INTERNET,)
    assert features.intent_actions == ()


def test_builder_matches_hand_assembly():
    built = (
        AxmlBuilder()
        .start_ns("android", ANDROID_NS)
        .start("manifest")
        .start("uses-permission", [(ANDROID_NS, "name", INTERNET)])
        .end("uses-permission")
        .end("manifest")
        .end_ns("android", ANDROID_NS)
        .build()
    )
    assert built == hand_assembled_minimal()


def test_permissions_and_actions_collected():
    payload = simple_manifest([INTERNET, SEND_SMS], [BOOT])
    features = parse_manifest(payload)
    assert features.permissions == (INTERNET, SEND_SMS)
    assert features.intent_actions == (BOOT,)


def test_no_permission_or_action_elements():
    features = parse_manifest(simple_manifest([], []))
    assert features.permissions == ()
    assert features.intent_actions == ()


def test_duplicate_declarations_deduplicated():
    features = parse_manifest(simple_manifest([INTERNET], [BOOT], repeat=2))
    assert features.permissions == (INTERNET,)
    assert features.intent_actions == (BOOT,)


def test_utf8_string_pool_variant():
    features = parse_manifest(simple_manifest([SEND_SMS], [BOOT], utf8_pool=True))
    assert features.permissions == (SEND_SMS,)
    assert features.intent_actions == (BOOT,)


def test_local_name_fallback_without_namespace():
    features = parse_manifest(simple_manifest([INTERNET], [], with_namespace=False))
    assert features.permissions == (INTERNET,)


def manifest_declaring_the_namespace_at(position):
    """Two uses-permission names without a namespace, then one in the
    android namespace; the android start-namespace chunk comes before
    element `position` (None: nowhere)."""
    b = AxmlBuilder().start("manifest")
    names = [(None, "early.PERM"), (None, "late.PERM"), (ANDROID_NS, "ns.PERM")]
    for i, (ns, name) in enumerate(names):
        if i == position:
            b.start_ns("android", ANDROID_NS)
        b.start("uses-permission", [(ns, "name", name)]).end("uses-permission")
    return b.end("manifest").build()


@pytest.mark.parametrize("position", [0, 1, 2])
def test_namespace_fallback_is_decided_once_per_document(position):
    # a bare name before a late namespace chunk used to count, and one
    # after it not
    features = parse_manifest(manifest_declaring_the_namespace_at(position))
    assert features.permissions == ("ns.PERM",)


def test_undeclared_namespace_keeps_every_name_in_order():
    features = parse_manifest(manifest_declaring_the_namespace_at(None))
    assert features.permissions == ("early.PERM", "late.PERM", "ns.PERM")


def test_foreign_namespace_attribute_ignored():
    b = AxmlBuilder()
    b.start_ns("android", ANDROID_NS)
    b.start("manifest")
    b.start("uses-permission", [("http://example.com/other", "name", INTERNET)])
    b.end("uses-permission").end("manifest").end_ns("android", ANDROID_NS)
    features = parse_manifest(b.build())
    assert features.permissions == ()


def test_action_outside_intent_filter_ignored():
    b = AxmlBuilder()
    b.start_ns("android", ANDROID_NS)
    b.start("manifest")
    b.start("action", [(ANDROID_NS, "name", BOOT)]).end("action")
    b.end("manifest").end_ns("android", ANDROID_NS)
    features = parse_manifest(b.build())
    assert features.intent_actions == ()


def test_typed_only_attribute_value():
    payload = simple_manifest([INTERNET], [])
    raw_attr = struct.pack("<IIIHBBI", 1, 4, 5, 8, 0, 0x03, 5)
    patched = payload.replace(
        raw_attr, struct.pack("<IIIHBBI", 1, 4, 0xFFFFFFFF, 8, 0, 0x03, 5)
    )
    assert patched != payload
    assert parse_manifest(patched).permissions == (INTERNET,)


def test_utf8_pool_with_two_byte_lengths():
    name = "android.permission." + "\u00e9" * 150  # 169 characters, 319 bytes
    features = parse_manifest(simple_manifest([name], [BOOT], utf8_pool=True))
    assert features.permissions == (name,)
    assert features.intent_actions == (BOOT,)


NO_INDEX = 0xFFFFFFFF
STRINGS = ["uses-permission", "name", INTERNET]  # indices 0, 1, 2


def document(body: bytes) -> bytes:
    """A document whose string pool holds STRINGS and whose event chunks
    are the raw bytes `body`."""
    b = AxmlBuilder()
    for text in STRINGS:
        b.intern(text)
    b.body += body
    return b.build()


def uses_permission(attr_size=20, attr_count=1, vtype=0x03, raw=2) -> bytes:
    """A start-element chunk for uses-permission with one name attribute
    of no namespace; its header may declare other attribute sizes and
    counts than the one record that follows."""
    return struct.pack(
        "<HHIIIIIHHHHHH", 0x0102, 16, 56, 1, NO_INDEX,
        NO_INDEX, 0, 20, attr_size, attr_count, 0, 0, 0,
    ) + struct.pack("<IIIHBBI", NO_INDEX, 1, raw, 8, 0, vtype, 2)


def pool_only(data: bytes, utf8: bool = False) -> bytes:
    """A document holding one string pool chunk: one string at offset 0
    of the string data `data`, with no padding."""
    pool = struct.pack(
        "<HHIIIIII", 0x0001, 28, 32 + len(data), 1, 0, (1 << 8) if utf8 else 0, 32, 0
    ) + struct.pack("<I", 0) + data
    return struct.pack("<HHI", 0x0003, 8, 8 + len(pool)) + pool


def patched(payload: bytes, at: int, fmt: str, value: int) -> bytes:
    out = bytearray(payload)
    struct.pack_into(fmt, out, at, value)
    return bytes(out)


def trailing_bytes() -> bytes:
    payload = simple_manifest([INTERNET], []) + bytes(4)
    return patched(payload, 4, "<I", len(payload))


MALFORMED = {
    "pool header under 28 bytes": (
        lambda: patched(pool_only(b"\x00\x00\x00\x00"), 10, "<H", 20),
        "string pool header cut short"),
    "offset table past the pool": (
        lambda: patched(pool_only(b"\x00\x00\x00\x00"), 16, "<I", 1000),
        "string pool offset table cut short"),
    "utf-16 length cut": (lambda: pool_only(b"\x00"), "utf-16 string length out of bounds"),
    "utf-16 extended length cut": (
        lambda: pool_only(b"\x00\x80"), "utf-16 extended length out of bounds"),
    "utf-8 length cut": (
        lambda: pool_only(b"\x01", utf8=True), "utf-8 string length out of bounds"),
    "utf-8 extended length cut": (
        lambda: pool_only(b"\x81", utf8=True), "utf-8 extended length out of bounds"),
    "utf-8 data past the pool": (
        lambda: pool_only(b"\x01\x32a", utf8=True), "utf-8 string data out of bounds"),
    "trailing bytes": (trailing_bytes, "trailing bytes too short for a chunk header"),
    "namespace body cut": (
        lambda: document(struct.pack("<HHI", 0x0100, 16, 16) + bytes(8)),
        "namespace chunk body cut short"),
    "element body cut": (
        lambda: document(struct.pack("<HHI", 0x0102, 16, 24) + bytes(16)),
        "element chunk body cut short"),
    "attribute record under 20 bytes": (
        lambda: document(uses_permission(attr_size=8)),
        "attribute record smaller than 20 bytes"),
    "attribute table past the element": (
        lambda: document(uses_permission(attr_count=2)), "attribute table out of bounds"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_raises_typed_error(case):
    build, message = MALFORMED[case]
    with pytest.raises(MalformedAxml, match=message):
        parse_manifest(build())


def test_well_formed_raw_element_counts():
    # the raw chunks above are right but for the one field each case breaks
    assert parse_manifest(document(uses_permission())).permissions == (INTERNET,)


def test_non_string_attribute_value_is_no_feature():
    # no raw string, and an integer (0x10) typed value
    element = uses_permission(vtype=0x10, raw=NO_INDEX)
    assert parse_manifest(document(element)).permissions == ()


def test_bad_outer_type():
    with pytest.raises(MalformedAxml):
        parse_manifest(b"\x00\x00\x08\x00\x10\x00\x00\x00" + bytes(8))


def test_short_payload():
    with pytest.raises(MalformedAxml):
        parse_manifest(b"\x03\x00\x08")


def test_chunk_size_overflow():
    payload = bytearray(simple_manifest([INTERNET], []))
    # inflate the string pool chunk size past the document end
    struct.pack_into("<I", payload, 8 + 4, 1 << 30)
    with pytest.raises(MalformedAxml):
        parse_manifest(bytes(payload))


def test_string_index_out_of_range():
    payload = simple_manifest([INTERNET], [])
    # element name index patched to nonsense
    b = AxmlBuilder()
    b.start_ns("android", ANDROID_NS)
    b.start("manifest")
    needle = struct.pack(
        "<HHIIIIIHHHHHH", 0x0102, 16, 36, 1, 0xFFFFFFFF,
        0xFFFFFFFF, b.index["manifest"], 20, 20, 0, 0, 0, 0,
    )
    bad = struct.pack(
        "<HHIIIIIHHHHHH", 0x0102, 16, 36, 1, 0xFFFFFFFF,
        0xFFFFFFFF, 999, 20, 20, 0, 0, 0, 0,
    )
    patched = payload.replace(needle, bad)
    assert patched != payload
    with pytest.raises(MalformedAxml):
        parse_manifest(patched)


def test_nesting_underflow():
    b = AxmlBuilder()
    b.end("manifest")
    with pytest.raises(MalformedAxml):
        parse_manifest(b.build())


def test_element_before_string_pool():
    end_chunk = struct.pack(
        "<HHIIIII", 0x0102, 16, 36, 1, 0xFFFFFFFF, 0xFFFFFFFF, 0
    ) + bytes(12)
    payload = struct.pack("<HHI", 0x0003, 8, 8 + len(end_chunk)) + end_chunk
    with pytest.raises(MalformedAxml):
        parse_manifest(payload)


def test_determinism():
    payload = simple_manifest([SEND_SMS, INTERNET], [BOOT])
    assert parse_manifest(payload) == parse_manifest(payload)


def test_action_counts_anywhere_inside_an_intent_filter_and_only_there():
    # "inside" means any depth below an open intent-filter, not only its child
    b = AxmlBuilder()
    b.start_ns("android", ANDROID_NS)
    b.start("manifest").start("intent-filter").start("intent-filter").start("data")
    b.start("action", [(ANDROID_NS, "name", BOOT)]).end("action")
    b.end("data").end("intent-filter")
    b.start("action", [(ANDROID_NS, "name", "still.inside")]).end("action")
    b.end("intent-filter")
    b.start("action", [(ANDROID_NS, "name", "outside")]).end("action")
    b.end("manifest").end_ns("android", ANDROID_NS)
    assert parse_manifest(b.build()).intent_actions == (BOOT, "still.inside")


def deep_manifest(depth: int, nested: bool) -> bytes:
    """depth elements, nested or each closed at once, then depth actions
    inside one intent-filter."""
    b = AxmlBuilder()
    b.start_ns("android", ANDROID_NS)
    b.start("manifest")
    for _ in range(depth):
        b.start("x")
        if not nested:
            b.end("x")
    b.start("intent-filter")
    for _ in range(depth):
        b.start("action", [(ANDROID_NS, "name", BOOT)]).end("action")
    b.end("intent-filter")
    for _ in range(depth if nested else 0):
        b.end("x")
    b.end("manifest").end_ns("android", ANDROID_NS)
    return b.build()


def test_parse_time_does_not_grow_with_nesting_depth():
    # each action used to copy and scan the whole element stack, so D
    # nested elements and D actions took time in D squared: 1.2 s at
    # D=10,000 against 0.03 s for the same elements unnested
    def best_time(payload):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert parse_manifest(payload).intent_actions == (BOOT,)
            times.append(time.perf_counter() - start)
        return min(times)

    flat, nested = (deep_manifest(10_000, nested) for nested in (False, True))
    assert best_time(nested) < 10 * best_time(flat)
