"""Mutation fuzzing of the binary parsers.

Random byte flips and truncations of the fixture APK, manifest and DEX
must either parse or raise a MalsieveError; any other exception is a
hole in the error contract. The seed is fixed, so every run tries the
same inputs.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from malsieve.archive import parse_archive  # noqa: E402
from malsieve.axml import parse_manifest  # noqa: E402
from malsieve.dex import parse_dex  # noqa: E402
from malsieve.errors import MalsieveError  # noqa: E402
from malsieve.records import extract_features  # noqa: E402

from binfixtures import DEFLATED, STORED, build_dex, build_zip, simple_manifest  # noqa: E402

MANIFEST = simple_manifest(
    ["android.permission.INTERNET", "android.permission.SEND_SMS"],
    ["android.intent.action.BOOT_COMPLETED"],
)
DEX = build_dex(
    [("Landroid/telephony/SmsManager;", "sendTextMessage"), ("Ljava/lang/Object;", "<init>")]
)
APK = build_zip(
    [("AndroidManifest.xml", MANIFEST, DEFLATED), ("classes.dex", DEX, STORED)]
)

FUZZ = settings(max_examples=200, deadline=None, database=None)


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data with up to 8 bytes XORed by a nonzero mask, then maybe cut."""
    buf = bytearray(data)
    flips = draw(st.lists(
        st.tuples(st.integers(0, len(buf) - 1), st.integers(1, 255)), max_size=8
    ))
    for pos, mask in flips:
        buf[pos] ^= mask
    cut = draw(st.one_of(st.none(), st.integers(0, len(buf))))
    return bytes(buf[:cut])


def parses_or_raises_typed(parse, data: bytes) -> None:
    try:
        parse(data)
    except MalsieveError:
        pass


def test_fixtures_parse_unmutated():
    assert extract_features(parse_archive(APK), "app").dex.api_refs
    assert parse_manifest(MANIFEST).permissions
    assert parse_dex(DEX).api_refs


@seed(410)
@FUZZ
@given(mutations(APK))
def test_mutated_apk(data):
    parses_or_raises_typed(lambda d: extract_features(parse_archive(d), "app"), data)


@seed(411)
@FUZZ
@given(mutations(MANIFEST))
def test_mutated_manifest(data):
    parses_or_raises_typed(parse_manifest, data)


@seed(412)
@FUZZ
@given(mutations(DEX))
def test_mutated_dex(data):
    parses_or_raises_typed(parse_dex, data)
