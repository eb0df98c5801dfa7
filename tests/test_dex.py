import struct

import pytest

from malsieve.dex import parse_dex
from malsieve.errors import MalformedDex, MalsieveError

from binfixtures import build_dex

SMS_REF = ("Landroid/telephony/SmsManager;", "sendTextMessage")


def mini_dump(payload: bytes) -> list[str]:
    """Test-local reference dumper: a direct struct walk of the three
    identifier tables, independent of the production parser."""

    def read_string(data_off: int) -> str:
        pos = data_off
        while data[pos] & 0x80:  # skip uleb128 length
            pos += 1
        pos += 1
        end = data.index(b"\x00", pos)
        return data[pos:end].decode("utf-8")

    data = payload
    n_str, str_off = struct.unpack_from("<II", data, 56)
    n_type, type_off = struct.unpack_from("<II", data, 64)
    n_meth, meth_off = struct.unpack_from("<II", data, 88)
    strings = [
        read_string(struct.unpack_from("<I", data, str_off + 4 * i)[0])
        for i in range(n_str)
    ]
    types = [
        strings[struct.unpack_from("<I", data, type_off + 4 * i)[0]]
        for i in range(n_type)
    ]
    refs = []
    for i in range(n_meth):
        class_idx, _, name_idx = struct.unpack_from("<HHI", data, meth_off + 8 * i)
        refs.append(f"{types[class_idx]}->{strings[name_idx]}")
    return refs


def test_single_method_fixture():
    payload = build_dex([SMS_REF])
    assert parse_dex(payload) == ("Landroid/telephony/SmsManager;->sendTextMessage",)


def test_parser_agrees_with_reference_dumper():
    refs = [
        ("Landroid/telephony/SmsManager;", "sendTextMessage"),
        ("Ljava/lang/Runtime;", "exec"),
        ("Ljava/lang/Runtime;", "getRuntime"),
        ("Landroid/content/Context;", "getSystemService"),
    ]
    payload = build_dex(refs)
    expected = mini_dump(payload)
    assert list(parse_dex(payload)) == expected
    assert sorted(expected) == sorted(f"{c}->{m}" for c, m in refs)


def test_zero_method_ids():
    assert parse_dex(build_dex([])) == ()


def test_duplicate_method_rows_deduplicated():
    payload = build_dex([SMS_REF, SMS_REF])
    assert parse_dex(payload) == (
        "Landroid/telephony/SmsManager;->sendTextMessage",
    )


def test_wrong_magic():
    payload = bytearray(build_dex([SMS_REF]))
    payload[:4] = b"fake"
    with pytest.raises(MalformedDex):
        parse_dex(bytes(payload))


def test_short_payload():
    with pytest.raises(MalformedDex):
        parse_dex(b"dex\n035\x00")


def test_method_table_out_of_bounds():
    payload = bytearray(build_dex([SMS_REF]))
    struct.pack_into("<I", payload, 92, len(payload))  # method_ids_off past end
    with pytest.raises(MalformedDex):
        parse_dex(bytes(payload))


def test_string_offset_out_of_bounds():
    payload = bytearray(build_dex([SMS_REF]))
    str_off = struct.unpack_from("<I", payload, 60)[0]
    struct.pack_into("<I", payload, str_off, len(payload) + 100)
    with pytest.raises(MalformedDex):
        parse_dex(bytes(payload))


def test_truncations_never_crash():
    payload = build_dex(
        [SMS_REF, ("Ljava/lang/Runtime;", "exec")]
    )
    for cut in range(0, len(payload), 7):
        try:
            parse_dex(payload[:cut])
        except MalformedDex:
            pass


def test_bit_flips_raise_typed_errors_only():
    payload = build_dex([SMS_REF])
    for pos in range(56, 112, 4):  # header table fields
        corrupted = bytearray(payload)
        corrupted[pos] ^= 0xFF
        try:
            parse_dex(bytes(corrupted))
        except MalformedDex:
            pass


def test_determinism():
    payload = build_dex([SMS_REF, ("Ljava/lang/Object;", "toString")])
    assert parse_dex(payload) == parse_dex(payload)


# --- the array reader against the entry-by-entry walk it replaced ---

def walk_method_refs(payload: bytes) -> tuple[str, ...]:
    """The method_ids walk the array reader replaced, kept as the oracle:
    one struct read per row, each string resolved on first use."""
    data = payload
    if len(data) < 0x70:
        raise MalformedDex("payload shorter than the header")
    if data[:4] != b"dex\n" or data[7:8] != b"\x00":
        raise MalformedDex("bad magic")
    n_str, str_off, n_type, type_off = struct.unpack_from("<IIII", data, 56)
    n_meth, meth_off = struct.unpack_from("<II", data, 88)
    for name, off, size, width in (
        ("string_ids", str_off, n_str, 4),
        ("type_ids", type_off, n_type, 4),
        ("method_ids", meth_off, n_meth, 8),
    ):
        if size and off + size * width > len(data):
            raise MalformedDex(f"{name} table out of bounds")
    cache: dict[int, str] = {}

    def string(idx: int) -> str:
        if idx >= n_str:
            raise MalformedDex(f"string index {idx} out of range")
        if idx in cache:
            return cache[idx]
        data_off = struct.unpack_from("<I", data, str_off + 4 * idx)[0]
        if data_off >= len(data):
            raise MalformedDex(f"string {idx} data offset out of bounds")
        pos = data_off
        for _ in range(5):
            if pos >= len(data):
                raise MalformedDex("uleb128 runs past end of payload")
            byte = data[pos]
            pos += 1
            if not byte & 0x80:
                break
        else:
            raise MalformedDex("uleb128 longer than 5 bytes")
        end = data.find(b"\x00", pos)
        if end == -1:
            raise MalformedDex(f"string {idx} unterminated")
        cache[idx] = data[pos:end].decode("utf-8", errors="replace")
        return cache[idx]

    def type_descriptor(idx: int) -> str:
        if idx >= n_type:
            raise MalformedDex(f"type index {idx} out of range")
        return string(struct.unpack_from("<I", data, type_off + 4 * idx)[0])

    refs: list[str] = []
    for i in range(n_meth):
        class_idx, _, name_idx = struct.unpack_from("<HHI", data, meth_off + 8 * i)
        refs.append(f"{type_descriptor(class_idx)}->{string(name_idx)}")
    return tuple(dict.fromkeys(refs))


def outcome(parse, payload: bytes):
    """The refs parse returns, or the type and message of what it raises."""
    try:
        return parse(payload)
    except MalsieveError as exc:
        return type(exc), str(exc)


def assert_matches_walk(payload: bytes) -> None:
    assert outcome(parse_dex, payload) == outcome(walk_method_refs, payload)


EIGHT_REFS = [
    ("Landroid/telephony/SmsManager;", "sendTextMessage"),
    ("Landroid/telephony/SmsManager;", "getDefault"),
    ("Ljava/lang/Runtime;", "exec"),
    ("Ljava/lang/Runtime;", "getRuntime"),
    ("Ljava/lang/Object;", "<init>"),
    ("Ljava/lang/Object;", "toString"),
    ("Lcom/example/\u00e9t\u00e9;", "caf\u00e9"),
    ("Lcom/example/A;", "toString"),
]
WIDE_DEX = build_dex(EIGHT_REFS)


def method_row(payload: bytearray, row: int) -> int:
    return struct.unpack_from("<I", payload, 92)[0] + 8 * row


def with_rows(rows: dict[int, tuple[int | None, int | None]]) -> bytes:
    """WIDE_DEX with method_ids rows patched to (class_idx, name_idx);
    None keeps a field."""
    payload = bytearray(WIDE_DEX)
    for row, (class_idx, name_idx) in rows.items():
        off = method_row(payload, row)
        if class_idx is not None:
            struct.pack_into("<H", payload, off, class_idx)
        if name_idx is not None:
            struct.pack_into("<I", payload, off + 4, name_idx)
    return bytes(payload)


def test_wide_fixture_matches_walk():
    assert set(parse_dex(WIDE_DEX)) == {f"{c}->{m}" for c, m in EIGHT_REFS}
    assert_matches_walk(WIDE_DEX)


def test_first_bad_row_in_table_order_is_reported():
    payload = with_rows({2: (None, 1002), 4: (60004, None)})
    with pytest.raises(MalformedDex, match=r"^string index 1002 out of range$"):
        parse_dex(payload)
    assert_matches_walk(payload)


def test_bad_type_reported_before_bad_name_of_one_row():
    payload = with_rows({3: (60003, 1003)})
    with pytest.raises(MalformedDex, match=r"^type index 60003 out of range$"):
        parse_dex(payload)
    assert_matches_walk(payload)


def test_bad_descriptor_string_reported_for_its_row():
    payload = bytearray(WIDE_DEX)
    type_off = struct.unpack_from("<I", payload, 68)[0]
    struct.pack_into("<I", payload, type_off, 70000)  # type 0's descriptor
    assert_matches_walk(bytes(payload))
    with pytest.raises(MalformedDex, match="string index 70000 out of range"):
        parse_dex(bytes(payload))


@pytest.mark.parametrize("method_ids_off", [0x70, 1 << 30])
def test_empty_method_table(method_ids_off):
    payload = bytearray(WIDE_DEX)
    struct.pack_into("<II", payload, 88, 0, method_ids_off)
    assert parse_dex(bytes(payload)) == ()
    assert_matches_walk(bytes(payload))


@pytest.mark.parametrize("tail, past_end, message", [
    (b"", 0, "string {} data offset out of bounds"),
    (b"\x80", 0, "uleb128 runs past end of payload"),
    (b"\x80" * 5 + b"\x01\x00", 0, "uleb128 longer than 5 bytes"),
    (b"\x05A", 0, "string {} unterminated"),
    (b"\x05A\x00", 1, "string index {} out of range"),
])
def test_string_errors_match_walk(tail, past_end, message):
    """Row 0's name string pointed at a broken tail appended to the
    payload, or (past_end) its name index pushed out of the table."""
    payload = bytearray(WIDE_DEX)
    n_str, str_off = struct.unpack_from("<II", payload, 56)
    name_idx = struct.unpack_from("<I", payload, method_row(payload, 0) + 4)[0]
    struct.pack_into("<I", payload, str_off + 4 * name_idx, len(payload))
    if past_end:
        name_idx = n_str
        struct.pack_into("<I", payload, method_row(payload, 0) + 4, name_idx)
    payload += tail
    assert_matches_walk(bytes(payload))
    with pytest.raises(MalformedDex, match=f"^{message.format(name_idx)}$"):
        parse_dex(bytes(payload))
