import io

import pytest

from malsieve.archive import parse_archive
from malsieve.errors import FormatError, MissingManifest
from malsieve.records import (
    FeatureRecord,
    extract_features,
    format_record,
    load_records,
    parse_record_line,
    read_records,
)
from malsieve.vectorize import feature_blocks

from binfixtures import STORED, build_dex, build_zip, simple_manifest

INTERNET = "android.permission.INTERNET"
BOOT = "android.intent.action.BOOT_COMPLETED"
SMS_REF = ("Landroid/telephony/SmsManager;", "sendTextMessage")
EXEC_REF = ("Ljava/lang/Runtime;", "exec")
SMS_API = "api:Landroid/telephony/SmsManager;->sendTextMessage"


def apk_bytes(manifest=True, dex_payloads=()):
    entries = []
    if manifest:
        entries.append(("AndroidManifest.xml", simple_manifest([INTERNET], [BOOT]), STORED))
    for i, payload in enumerate(dex_payloads):
        name = "classes.dex" if i == 0 else f"classes{i + 1}.dex"
        entries.append((name, payload, STORED))
    return build_zip(entries)


def test_manifest_plus_dex_composition():
    archive = parse_archive(apk_bytes(dex_payloads=[build_dex([SMS_REF])]))
    record = extract_features(archive, app_id="app-1", label=1)
    assert record.features == (f"perm:{INTERNET}", f"action:{BOOT}", SMS_API)
    assert record.label == 1


def test_manifest_only_archive():
    record = extract_features(parse_archive(apk_bytes()), app_id="x")
    assert record.features == (f"perm:{INTERNET}", f"action:{BOOT}")
    assert record.label is None


def test_missing_manifest():
    archive = parse_archive(apk_bytes(manifest=False, dex_payloads=[build_dex([])]))
    with pytest.raises(MissingManifest):
        extract_features(archive, app_id="x")


def test_multidex_union_in_file_order():
    d1 = build_dex([SMS_REF, EXEC_REF])
    d2 = build_dex([EXEC_REF, ("Ljava/lang/Object;", "toString")])
    archive = parse_archive(apk_bytes(dex_payloads=[d1, d2]))
    record = extract_features(archive, app_id="x")
    apis = [f for f in record.features if f.startswith("api:")]
    solo1 = set(f"api:{c}->{m}" for c, m in [SMS_REF, EXEC_REF])
    solo2 = {"api:Ljava/lang/Runtime;->exec", "api:Ljava/lang/Object;->toString"}
    assert set(apis) == solo1 | solo2
    assert len(apis) == len(set(apis))


def test_extraction_deterministic():
    data = apk_bytes(dex_payloads=[build_dex([SMS_REF])])
    first = extract_features(parse_archive(data), app_id="a", label=-1)
    second = extract_features(parse_archive(data), app_id="a", label=-1)
    assert first == second


def sample_record(label=1):
    return FeatureRecord(
        app_id="com.example.app",
        label=label,
        features=(f"perm:{INTERNET}", f"action:{BOOT}", SMS_API),
    )


def test_record_line_format():
    line = format_record(sample_record())
    assert line == (
        "com.example.app\t+1"
        f"\tperm:{INTERNET}"
        f"\taction:{BOOT}"
        "\tapi:Landroid/telephony/SmsManager;->sendTextMessage"
    )


def test_records_round_trip(tmp_path):
    records = [sample_record(1), sample_record(-1), sample_record(None)]
    path = tmp_path / "corpus.records"
    path.write_text("".join(format_record(r) + "\n" for r in records), encoding="utf-8")
    assert load_records(path) == records


def test_unlabeled_serializes_as_question_mark():
    assert format_record(sample_record(None)).split("\t")[1] == "?"


def test_bad_label_rejected_with_line_number():
    with pytest.raises(FormatError) as exc_info:
        list(read_records(io.StringIO("app\t+2\tperm:x\n")))
    assert exc_info.value.line == 1


def test_unknown_prefix_rejected():
    with pytest.raises(FormatError):
        parse_record_line("app\t+1\tbogus:thing")


def test_first_unprefixed_feature_named_with_its_line():
    line = "app\t+1\tapi:a\tnope\tperm:p\tbogus:thing"
    with pytest.raises(FormatError, match="'nope'") as exc_info:
        parse_record_line(line, 7)
    assert exc_info.value.line == 7


def test_parsed_features_deduplicated_in_given_order():
    line = "app\t+1\tapi:b\tperm:p\tapi:a\taction:x\tapi:b\tperm:p\tperm:o"
    record = parse_record_line(line)
    assert record.features == ("api:b", "perm:p", "api:a", "action:x", "perm:o")


def test_missing_fields_rejected():
    with pytest.raises(FormatError):
        parse_record_line("lonely-app-id")


def test_empty_app_id_rejected_with_its_line():
    with pytest.raises(FormatError, match="empty app_id") as exc_info:
        list(read_records(io.StringIO("app\t+1\tperm:x\n\t-1\tperm:x\n")))
    assert exc_info.value.line == 2


def test_feature_with_tab_dropped_at_write():
    record = FeatureRecord(app_id="x", label=1, features=("perm:good", "perm:bad\tname"))
    assert format_record(record) == "x\t+1\tperm:good"


@pytest.mark.parametrize("char", ["\n", "\r"])
def test_feature_with_line_break_dropped_at_write(char):
    record = FeatureRecord(
        app_id="x", label=1, features=("perm:good", f"perm:bad{char}name", "api:a")
    )
    assert format_record(record) == "x\t+1\tperm:good\tapi:a"


# "\udcff" is what the byte 0xff of a file name that is not UTF-8 decodes to
@pytest.mark.parametrize("char", ["\t", "\n", "\r", "\udcff"])
def test_app_id_that_breaks_the_line_rejected_at_write(char):
    record = FeatureRecord(app_id=f"ab{char}cd", label=1, features=("perm:p",))
    with pytest.raises(FormatError, match="app id"):
        format_record(record)


def test_record_without_features_round_trips():
    record = FeatureRecord(app_id="bare", label=None, features=())
    assert format_record(record) == "bare\t?"
    assert parse_record_line(format_record(record)) == record


def test_repeated_names_in_block_order_kept_once():
    record = parse_record_line("app\t-1\tperm:p\tperm:p\taction:a\tapi:x\tapi:y\tapi:x")
    assert record.features == ("perm:p", "action:a", "api:x", "api:y")


def test_api_block_before_perm_block_kept():
    # a record is a set of names; the vocabulary alone lays out blocks
    record = parse_record_line("app\t+1\tapi:x\taction:a\tperm:p")
    assert record.features == ("api:x", "action:a", "perm:p")


def test_unprefixed_field_in_api_tail_rejected_with_its_line():
    with pytest.raises(FormatError, match="'api'") as exc_info:
        parse_record_line("app\t+1\tperm:p\tapi:x\tapi", 3)
    assert exc_info.value.line == 3


def test_loaded_records_share_one_string_per_name(tmp_path):
    path = tmp_path / "corpus.records"
    path.write_text("".join(
        f"app{i}\t+1\tperm:{INTERNET}\t{SMS_API}\n" for i in range(3)
    ))
    records = load_records(path)
    assert records[0].features == records[2].features
    for k in range(2):
        assert len({id(r.features[k]) for r in records}) == 1


def test_blank_lines_skipped():
    text = (format_record(sample_record()) + "\n\n  \t\n"
            + format_record(sample_record(-1)) + "\n")
    records = list(read_records(io.StringIO(text)))
    assert [r.label for r in records] == [1, -1]


def test_name_first_unprefixed_on_a_late_line_rejected_with_that_line():
    # line 1 brings its names into the table, so line 3 adds only its new
    # names, the unprefixed one among them
    lines = [
        "a\t+1\tperm:p\tapi:x\n",
        "b\t-1\tapi:x\tperm:p\n",
        "c\t+1\tapi:x\tapi:y\tsneaky\tperm:p\tworse\n",
    ]
    names = {}
    with pytest.raises(FormatError, match="'sneaky'") as exc_info:
        list(read_records(lines, names))
    assert exc_info.value.line == 3
    # nothing of the rejected line stays in the table
    assert list(names) == ["perm:p", "api:x"]


def test_feature_blocks_partition_by_prefix_keeping_order():
    names = ["api:b", "perm:z", "x:none", "action:a", "api:a", "perm:a", "apiX", ""]
    assert feature_blocks(names) == (["perm:z", "perm:a"], ["action:a"], ["api:b", "api:a"])
    assert feature_blocks([]) == ([], [], [])
