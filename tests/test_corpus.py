import json
import sys
import unicodedata
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgraph import corpus
from adgraph.analysis import WilcoxonResult
from adgraph.cli import main
from adgraph.dedup import DuplicateCluster
from adgraph.errors import EmptyCorpusError, IngestError, PipelineError
from adgraph.extract import AdIdentifier, Identifier
from adgraph.graph import GraphEdge, RelatednessGraph
from adgraph.label import HtrpFeatures, LabeledAd, LabeledPair, Split

from conftest import corpus_row, make_record, write_corpus


class TestNormalizeText:
    def test_casefold_and_collapse(self):
        assert corpus.normalize_text("  Hello   WORLD ") == "hello world"

    def test_nfc_composition(self):
        # e + combining acute composes to a single code point
        assert corpus.normalize_text("café") == "café"

    def test_control_chars_stripped(self):
        assert corpus.normalize_text("a\x00b\x07c") == "abc"

    def test_tabs_and_newlines_become_single_spaces(self):
        assert corpus.normalize_text("a\tb\nc\r\nd") == "a b c d"

    def test_zero_width_joiner_survives(self):
        # Cf category, not Cc: emoji sequences must not be broken
        s = "\U0001F469‍\U0001F4BB"
        assert "‍" in corpus.normalize_text(s)

    def test_empty(self):
        assert corpus.normalize_text("") == ""

    def test_control_table_deletes_exactly_non_space_cc(self):
        wrong = []
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            strip = unicodedata.category(ch) == "Cc" and not ch.isspace()
            if corpus._CONTROL_RE.sub("", ch) != ("" if strip else ch):
                wrong.append(cp)
        assert wrong == []

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, s):
        once = corpus.normalize_text(s)
        assert corpus.normalize_text(once) == once

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_no_leading_trailing_or_double_spaces(self, s):
        out = corpus.normalize_text(s)
        assert out == " ".join(out.split())


class TestTimestamps:
    def test_z_suffix(self):
        t = corpus.parse_timestamp("2024-06-01T12:00:00Z")
        assert t.tzinfo == timezone.utc and t.hour == 12

    def test_offset_converted_to_utc(self):
        t = corpus.parse_timestamp("2024-06-01T12:00:00+02:00")
        assert t.hour == 10 and t.tzinfo == timezone.utc

    def test_naive_assumed_utc(self):
        t = corpus.parse_timestamp("2024-06-01T12:00:00")
        assert t.tzinfo == timezone.utc

    def test_microseconds_dropped(self):
        assert corpus.parse_timestamp("2024-06-01T12:00:00.123456Z").microsecond == 0

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            corpus.parse_timestamp("not a date")


class TestNormalizeRecord:
    def test_fields(self):
        rec = make_record("a1", text="Hi  THERE \U0001F339", title="Sweet")
        norm = corpus.normalize(rec)
        assert norm.ad_id == "a1"
        assert norm.norm_text == "sweet hi there \U0001F339"
        assert corpus.build_original_text(rec.title, rec.description) == "Sweet Hi  THERE \U0001F339"
        assert set(vars(norm)) == {"ad_id", "norm_text", "emoji_count"}
        assert norm.emoji_count == 1

    def test_title_only(self):
        norm = corpus.normalize(make_record("a1", text="", title="Just Title"))
        assert norm.norm_text == "just title"


class TestIngestJsonl:
    def test_happy_path(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [corpus_row("a1"), corpus_row("a2", locations=["dallas"])],
        )
        records, rejects = corpus.ingest(path, "jsonl")
        assert [r.ad_id for r in records] == ["a1", "a2"]
        assert rejects == []
        assert records[1].locations == ["dallas"]

    def test_rejects_do_not_abort(self, tmp_path):
        rows = [
            corpus_row("a1"),
            {"ad_id": "", "title": "x", "description": "y"},
            corpus_row("a1"),  # duplicate id
            corpus_row("a3", posted_at="yesterday"),
        ]
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
            fh.write("{broken json\n")
            fh.write("[1, 2]\n")
        records, rejects = corpus.ingest(path, "jsonl")
        assert [r.ad_id for r in records] == ["a1"]
        assert len(rejects) == 5
        reasons = " | ".join(r.reason for r in rejects)
        assert "duplicate ad_id" in reasons
        assert "invalid json" in reasons
        assert "posted_at" in reasons
        lines = [r.line for r in rejects]
        assert lines == sorted(lines)

    def test_empty_title_and_description_rejected(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [corpus_row("a1"), corpus_row("a2", description="", title="")],
        )
        records, rejects = corpus.ingest(path, "jsonl")
        assert len(records) == 1 and len(rejects) == 1

    def test_declared_phone_empty_string_becomes_none(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [corpus_row("a1", declared_phone="")])
        records, _ = corpus.ingest(path, "jsonl")
        assert records[0].declared_phone is None

    def test_all_rejected_raises(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [{"ad_id": ""}])
        with pytest.raises(EmptyCorpusError):
            corpus.ingest(path, "jsonl")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(IngestError):
            corpus.ingest(tmp_path / "nope.jsonl", "jsonl")

    def test_invalid_utf8_line_is_a_reject_and_the_rest_is_kept(self, tmp_path):
        def row(ad_id):
            return json.dumps(corpus_row(ad_id, description="caf\u00e9"), ensure_ascii=False)

        path = tmp_path / "c.jsonl"
        lines = [
            row("a1").encode("utf-8"),
            b"",
            row("a2").encode("latin-1"),  # a lone \xe9 is not UTF-8
            row("a3").encode("utf-8"),
            b"\xff\xfe",
            row("a4").encode("utf-8"),
        ]
        path.write_bytes(b"\n".join(lines) + b"\n")
        records, rejects = corpus.ingest(path, "jsonl")
        assert [r.ad_id for r in records] == ["a1", "a3", "a4"]
        assert records[0].description == "caf\u00e9"
        assert rejects == [corpus.Reject(3, "invalid utf-8"), corpus.Reject(5, "invalid utf-8")]

    def test_lone_surrogate_escape_is_a_reject_and_the_rest_is_kept(self, tmp_path):
        # json.loads keeps an escaped lone surrogate, which no UTF-8 artifact
        # can hold; it joins an escaped pair into one character
        rows = [corpus_row(f"a{i}", f"ad number {i} here") for i in range(1, 7)]
        rows[2]["description"] = "bad \udc80 half"
        rows[4]["description"] = "smile \U0001F600 ok"
        rows[5]["description"] = "a literal \\udc80 is text"
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
        assert "\\ud83d\\ude00" in path.read_text()

        records, rejects = corpus.ingest(path, "jsonl")
        assert rejects == [corpus.Reject(3, "invalid unicode (lone surrogate escape)")]
        assert [r.ad_id for r in records] == ["a1", "a2", "a4", "a5", "a6"]
        assert records[3].description == "smile \U0001F600 ok"
        assert records[4].description == "a literal \\udc80 is text"

        workdir = tmp_path / "w"
        assert main(["all", "--workdir", str(workdir), "--corpus", str(path), "--quiet"]) == 0
        assert corpus.read_jsonl(workdir / "rejects.jsonl") == [
            {"line": 3, "reason": "invalid unicode (lone surrogate escape)"}
        ]
        assert len(corpus.read_jsonl(workdir / "records.jsonl")) == 5


class TestIngestCsv:
    HEADER = "ad_id,title,description,posted_at,locations,declared_phone,source"

    def test_happy_path(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            self.HEADER + "\n"
            'b1,Hi,Nice text,2024-01-01T00:00:00Z,dallas;austin,,site_b\n'
        )
        records, rejects = corpus.ingest(path, "csv")
        assert rejects == []
        assert records[0].locations == ["dallas", "austin"]
        assert records[0].declared_phone is None

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,text\n1,x\n")
        with pytest.raises(IngestError):
            corpus.ingest(path, "csv")

    def test_invalid_utf8_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(
            (self.HEADER + "\n").encode()
            + "b1,Hi,caf\u00e9,2024-01-01T00:00:00Z,,,site_b\n".encode("latin-1")
        )
        with pytest.raises(IngestError, match="c.csv: not valid utf-8"):
            corpus.ingest(path, "csv")

    def test_invalid_utf8_csv_is_one_cli_error(self, tmp_path, caplog):
        path = tmp_path / "c.csv"
        path.write_bytes((self.HEADER + "\n").encode() + b"b1,Hi,caf\xe9,2024-01-01T00:00:00Z,,,s\n")
        argv = ["ingest", "--workdir", str(tmp_path / "w"), "--corpus", str(path), "--format", "csv"]
        assert main(argv) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "not valid utf-8" in errors[0].getMessage()

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            self.HEADER + "\n"
            'b1,Hi,Ok text,2024-01-01T00:00:00Z,,,site_b\n'
            "b2,too,few\n"
        )
        records, rejects = corpus.ingest(path, "csv")
        assert len(records) == 1 and len(rejects) == 1


class TestRecordRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        rec = make_record("a1", text="hey \U0001F339")
        path = tmp_path / "r.jsonl"
        corpus.write_jsonl(path, [corpus.to_row(rec)])
        rows = corpus.read_jsonl(path)
        assert corpus.from_row(corpus.AdRecord, rows[0]) == rec


ROW_CASES = {
    "record": make_record("a1", text="hey", locations=["miami"], declared_phone="555"),
    "normalized": corpus.normalize(make_record("a1", text="Hello")),
    "reject": corpus.Reject(3, "invalid json"),
    "cluster": DuplicateCluster("a", ["a", "b"], "near"),
    "identifier": Identifier("phone", "raw", "5551230147", 2, 12),
    "identifier_no_span": Identifier("email", "x@y.com", "x@y.com"),
    "edge": GraphEdge("a", "b", ["phone:5551230147"]),
    "pair": LabeledPair("a", "b", 1, 0.25, "train"),
    "labeled_ad": LabeledAd("a1", 1, HtrpFeatures(10.0, 3, 5, 1), ["phones"]),
    "wilcoxon": WilcoxonResult(4.0, 0.125, 6, False, "exact"),
    "ad_identifier": AdIdentifier(kind="email", raw="x@y.com", canonical="x@y.com", ad_id="a1"),
    "split": Split({2: "train", 10: "test"}),
    "graph": RelatednessGraph(
        nodes=["a", "b", "c"],
        edges=[GraphEdge("a", "b", ["phone:5551230147"])],
        components={0: ["a", "b"], 1: ["c"]},
        node_identifiers={"a": ["phone:5551230147"], "b": ["phone:5551230147"], "c": []},
        node_locations={"a": ["miami"], "b": [], "c": []},
    ),
}


class TestRowCodec:
    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_round_trip(self, name):
        obj = ROW_CASES[name]
        row = json.loads(json.dumps(corpus.to_row(obj)))
        assert corpus.from_row(type(obj), row) == obj

    def test_row_shapes(self):
        assert corpus.to_row(ROW_CASES["record"]) == {
            "ad_id": "a1",
            "title": "",
            "description": "hey",
            "posted_at": "2024-01-01T00:00:00+00:00",
            "locations": ["miami"],
            "declared_phone": "555",
            "source": "site_a",
        }
        assert corpus.to_row(ROW_CASES["labeled_ad"])["features"] == {
            "max_span_miles": 10.0,
            "unique_phone_count": 3,
            "unique_identifier_count": 5,
            "unresolved_locations": 1,
        }
        assert corpus.to_row(ROW_CASES["identifier_no_span"]) == {
            "kind": "email", "raw": "x@y.com", "canonical": "x@y.com", "start": None, "end": None
        }
        assert set(corpus.to_row(ROW_CASES["pair"])) == {"a", "b", "label", "similarity", "split"}
        assert corpus.from_row(Identifier, {"kind": "url", "raw": "u", "canonical": "u"}).start is None

    def test_row_of_an_older_format_is_a_pipeline_error(self):
        row = corpus.to_row(ROW_CASES["normalized"])
        row["char_length"] = 5
        with pytest.raises(PipelineError, match="NormalizedAd row has keys"):
            corpus.from_row(corpus.NormalizedAd, row)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("cluster", "member_ids", "a"),
            ("cluster", "member_ids", ["a", 1]),
            ("normalized", "emoji_count", True),
            ("normalized", "emoji_count", 1.0),
            ("labeled_ad", "features", 5),
            ("identifier", "start", "2"),
            ("record", "declared_phone", 5),
            ("record", "posted_at", 5),
        ],
    )
    def test_a_value_of_the_wrong_type_is_a_pipeline_error(self, name, field, value):
        row = json.loads(json.dumps(corpus.to_row(ROW_CASES[name])))
        row[field] = value
        with pytest.raises(PipelineError, match=f"row has {field} of a type other than"):
            corpus.from_row(type(ROW_CASES[name]), row)

    def test_an_int_stands_for_a_float_and_a_bool_for_neither(self):
        row = corpus.to_row(ROW_CASES["labeled_ad"])
        row["features"]["max_span_miles"] = 10
        assert corpus.from_row(LabeledAd, row) == ROW_CASES["labeled_ad"]
        row["features"]["max_span_miles"] = True
        with pytest.raises(PipelineError, match="HtrpFeatures row has max_span_miles"):
            corpus.from_row(LabeledAd, row)

    def test_int_keys_are_written_as_text_and_read_back_in_numeric_order(self):
        row = corpus.to_row(ROW_CASES["split"])
        assert row == {"components": {"2": "train", "10": "test"}}
        row["components"] = {"10": "test", "2": "train"}
        assert list(corpus.from_row(Split, row).components) == [2, 10]

    @pytest.mark.parametrize("key", ["x", "1.0", "01", " 2", "-0", "\u0662"])
    def test_a_key_that_is_not_an_ints_text_is_a_pipeline_error(self, key):
        with pytest.raises(PipelineError, match="Split row has components of a type other than"):
            corpus.from_row(Split, {"components": {key: "train"}})

    @pytest.mark.parametrize("side", ["nope", "Train", 1, None, ["train"]])
    def test_a_value_outside_its_literal_is_a_pipeline_error(self, side):
        with pytest.raises(PipelineError, match="Split row has components"):
            corpus.from_row(Split, {"components": {"0": side}})

    def test_a_derived_field_is_neither_written_nor_read(self):
        graph = ROW_CASES["graph"]
        assert graph.component_of == {"a": 0, "b": 0, "c": 1}
        row = corpus.to_row(graph)
        assert "component_of" not in row
        row["component_of"] = graph.component_of
        with pytest.raises(PipelineError, match="RelatednessGraph row has keys"):
            corpus.from_row(RelatednessGraph, row)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("node_locations", {"a": "Miami"}),
            ("node_locations", {"a": [1]}),
            ("node_identifiers", {"a": [["x"]]}),
            ("edges", [{"a": "a", "b": "b", "shared": "phone:5551230147"}]),
            ("components", {"0": "a"}),
            ("materialization", "clique"),
        ],
    )
    def test_a_wrong_type_at_any_depth_is_a_pipeline_error(self, field, value):
        row = json.loads(json.dumps(corpus.to_row(ROW_CASES["graph"])))
        row[field] = value
        with pytest.raises(PipelineError, match="row has (shared|[a-z_]+) of a type other than"):
            corpus.from_row(RelatednessGraph, row)

    def test_a_timestamp_that_does_not_parse_is_a_pipeline_error(self):
        row = corpus.to_row(ROW_CASES["record"])
        row["posted_at"] = "yesterday"
        with pytest.raises(PipelineError, match="AdRecord row has a timestamp that is not one"):
            corpus.from_row(corpus.AdRecord, row)

    def test_write_jsonl_matches_json_dumps_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "_WRITE_CHUNK_ROWS", 3)
        rows = [{"b": i, "a": "é\U0001F339\n", "c": [-0.0, None]} for i in range(7)]
        corpus.write_jsonl(tmp_path / "r.jsonl", iter(rows))
        want = "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in rows)
        assert (tmp_path / "r.jsonl").read_text(encoding="utf-8") == want
        corpus.write_jsonl(tmp_path / "empty.jsonl", [])
        assert (tmp_path / "empty.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "3"])
    def test_read_jsonl_refuses_a_line_that_is_not_an_object(self, tmp_path, line):
        (tmp_path / "r.jsonl").write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 2 is not a json object"):
            corpus.read_jsonl(tmp_path / "r.jsonl")


# What a stage hands to later stages must equal what they would parse from
# its file: to_row, the writer's encoder, json.loads and from_row must give
# back an equal object. repr compares floats exactly (-0.0, nan).
_TEXT = st.text(max_size=12) | st.sampled_from(["é", "\U0001F339", "ß\u0301", "\x00\t\n"])
_SPAN = st.none() | st.integers(min_value=0, max_value=10**6)
_FLOAT = st.floats() | st.just(-0.0)
_OFFSET = st.integers(min_value=-1439, max_value=1439).map(
    lambda m: timezone(timedelta(minutes=m))
)


@st.composite
def _ingested_timestamps(draw):
    # any offset and microseconds, as ingest stores them (parse_timestamp)
    naive = draw(st.datetimes(min_value=datetime(1900, 1, 2), max_value=datetime(2200, 1, 1)))
    return corpus.parse_timestamp(naive.replace(tzinfo=draw(_OFFSET)).isoformat())


_HANDED = {
    "record": st.builds(
        corpus.AdRecord,
        ad_id=_TEXT,
        title=_TEXT,
        description=_TEXT,
        posted_at=_ingested_timestamps(),
        locations=st.lists(_TEXT, max_size=3),
        declared_phone=st.none() | _TEXT,
        source=_TEXT,
    ),
    "normalized": st.builds(corpus.NormalizedAd, _TEXT, _TEXT, st.integers(0, 10**6)),
    "cluster": st.builds(
        DuplicateCluster, _TEXT, st.lists(_TEXT, max_size=4), st.sampled_from(["exact", "near"])
    ),
    "identifier": st.builds(Identifier, _TEXT, _TEXT, _TEXT, _SPAN, _SPAN),
    "labeled_ad": st.builds(
        LabeledAd,
        _TEXT,
        st.sampled_from([0, 1]),
        st.builds(HtrpFeatures, _FLOAT, st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
        st.lists(_TEXT, max_size=2),
    ),
}


# JSON values nested two deep: strings with non-ASCII letters, controls,
# quotes and lone surrogates, and the floats whose spelling is easy to get
# wrong
_JSON_SCALAR = st.one_of(
    st.text(),
    st.sampled_from(["é", "\x00\x1f\x7f", '"\\/', "\ud800", "\U0001F600", "\u2028"]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-7, 1e300]),
    st.booleans(),
    st.none(),
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


class TestEncodeRow:
    @given(st.dictionaries(st.text(max_size=8), _JSON_VALUE, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, row):
        assert corpus._encode_row(row) == json.dumps(row, ensure_ascii=False, sort_keys=True)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"x", {"a": [object()]}])
    def test_a_value_that_is_not_json_raises_type_error(self, value):
        with pytest.raises(TypeError):
            corpus._encode_row({"k": value})

    def test_without_the_c_encoder_falls_back_to_encode(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encode = corpus._row_encoder()
        row = {"b": [1.5, float("nan")], "a": "é"}
        assert encode(row) == json.dumps(row, ensure_ascii=False, sort_keys=True)


class TestHandedRowsRoundTrip:
    @pytest.mark.parametrize("name", sorted(_HANDED))
    def test_parse_of_the_written_row_equals_the_object(self, name):
        @given(_HANDED[name])
        @settings(max_examples=150, deadline=None)
        def check(obj):
            line = corpus._encode_row(corpus.to_row(obj))
            back = corpus.from_row(type(obj), json.loads(line))
            assert repr(back) == repr(obj)

        check()

    def test_ingested_timestamps_are_utc_whole_seconds(self):
        # why the round trip above is exact: the offset and the
        # microseconds are gone before the record is handed on
        got = corpus.parse_timestamp("2024-03-01T23:30:00.123456-05:30")
        assert got == datetime(2024, 3, 2, 5, 0, tzinfo=timezone.utc)
        assert corpus.parse_timestamp(got.isoformat()) == got
