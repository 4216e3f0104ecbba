import json
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgraph import extract
from adgraph.corpus import Reject, normalize_text

from conftest import ad_texts
from oracles import atoms_ref, extract_identifiers_ref, is_emoji_ref, scan_text_ref


def phones(text: str) -> list[str]:
    return sorted(
        i.canonical for i in extract.extract_identifiers(None, *ad_texts(text)) if i.kind == "phone"
    )


class TestDeobfuscatePhone:
    def test_plain_run(self):
        assert extract.deobfuscate_phone("call 5551230147 now") == [
            ("5551230147", (5, 15))
        ]

    def test_separated_groups(self):
        got = extract.deobfuscate_phone("555-123-0147")
        assert got == [("5551230147", (0, 12))]

    def test_parens_and_spaces(self):
        got = extract.deobfuscate_phone("(555) 123 0147")
        assert [d for d, _ in got] == ["5551230147"]

    def test_digit_words(self):
        text = "five five five one two three zero one four seven"
        assert [d for d, _ in extract.deobfuscate_phone(text)] == ["5551230147"]

    def test_oh_as_zero(self):
        text = "five five five one two three oh one four seven"
        assert [d for d, _ in extract.deobfuscate_phone(text)] == ["5551230147"]

    def test_mixed_words_and_runs(self):
        assert [d for d, _ in extract.deobfuscate_phone("555 one two three 0147")] == [
            "5551230147"
        ]

    def test_homophone_needs_strong_neighbor(self):
        # only weak sound-alike words; nothing to anchor them
        assert extract.deobfuscate_phone("to o for ate o to o for ate o") == []

    def test_homophone_kept_next_to_strong(self):
        text = "five five five one too three oh one four seven"
        assert [d for d, _ in extract.deobfuscate_phone(text)] == ["5551230147"]

    def test_chain_broken_by_word(self):
        assert extract.deobfuscate_phone("55512 sweet 30147") == []

    def test_gap_over_three_separators_breaks(self):
        assert extract.deobfuscate_phone("55512 --- - 30147") == []

    def test_short_chain_dropped(self):
        assert extract.deobfuscate_phone("call 555 1230") == []

    def test_emoji_is_a_separator(self):
        got = extract.deobfuscate_phone("555\U0001F352123\U0001F3520147")
        assert [d for d, _ in got] == ["5551230147"]

    def test_eleven_to_fifteen_kept_whole(self):
        got = extract.deobfuscate_phone("123456789012345")
        assert [d for d, _ in got] == ["123456789012345"]

    def test_over_fifteen_split_greedily(self):
        digits = "5551230147" + "5551230148" + "555"
        got = extract.deobfuscate_phone(digits)
        assert [d for d, _ in got] == ["5551230147", "5551230148"]
        (d1, s1), (d2, s2) = got
        assert s1 == (0, 10) and s2 == (10, 20)

    def test_span_covers_words(self):
        text = "xx five five five one two three zero one four seven yy"
        [(digits, (start, end))] = extract.deobfuscate_phone(text)
        assert text[start:end].startswith("five") and text[start:end].endswith("seven")


def _mixed_case(word: str):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


_WORDS = sorted({*extract._DIGIT_WORDS, *extract._HOMOPHONES})
# U+212A, U+017F, U+0130 and U+0131 fold onto ASCII letters under a
# Unicode-mode IGNORECASE; they are not letters to the atom scanner
_TRAPS = ("\u212a", "\u017f", "\u0130", "\u0131", "\u017fix", "f\u0131ve", "e\u0131ght", "\u212aone")
_ATOM_TEXT = st.lists(
    st.one_of(
        st.text("0123456789", min_size=1, max_size=4),
        st.sampled_from(_WORDS).flatmap(_mixed_case),
        st.text("abcdefghinorstuvwxzEFINORSTVWXZ", min_size=1, max_size=3),
        st.sampled_from((" ", "-", "–", "—", ".", "(", ")", "\t", "\u3000", "_", "/")),
        st.sampled_from(("\U0001F600", "\u260e", "\u2728", "\u2122")),
        st.sampled_from(_TRAPS),
    ),
    max_size=20,
).map("".join)


class TestAtomScanner:
    @given(_ATOM_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_matches_tokenize_then_filter_reference(self, text):
        got = [(a.start, a.end, a.digits, a.strong, a.is_run) for a in extract._atoms(text)]
        assert got == atoms_ref(text)

    @pytest.mark.parametrize("text", ["\u212aone", "\u017fix", "s\u0131x", "f\u0130ve", "\u017fix 555"])
    def test_case_fold_traps_are_not_letters(self, text):
        got = [(a.start, a.end, a.digits, a.strong, a.is_run) for a in extract._atoms(text)]
        assert got == atoms_ref(text)

    def test_gap_class_matches_separator_definition_on_every_code_point(self):
        is_gap = extract._gap_re().fullmatch
        wrong = []
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            if bool(is_gap(ch)) != (ch.isspace() or ch in "-–—.()" or is_emoji_ref(ch)):
                wrong.append(cp)
        assert wrong == []

    @pytest.mark.parametrize(
        "gap,joined",
        [("", True), (" - ", True), ("(\U0001F600)", True), (" -- ", False), ("x", False)],
    )
    def test_gap_length_limit(self, gap, joined):
        assert bool(extract._gap_re().fullmatch(gap)) == joined


class TestCanonicalPhone:
    @pytest.mark.parametrize(
        "digits,want",
        [
            ("5551230147", "5551230147"),
            ("15551230147", "5551230147"),
            ("25551230147", "25551230147"),  # 11 digits, no leading 1
            ("123456789012345", "123456789012345"),
            ("1234567890123456", None),  # 16
            ("555123014", None),  # 9
            ("55512301a7", None),
        ],
    )
    def test_lengths(self, digits, want):
        assert extract.canonical_phone(digits) == want


class TestScanEmailsUrlsHandles:
    def test_email_canonical_lowered(self):
        ids = extract._scan_emails("write Foo.Bar+x@Example.COM today")
        assert len(ids) == 1
        assert ids[0].canonical == "foo.bar+x@example.com"
        assert ids[0].raw == "Foo.Bar+x@Example.COM"

    def test_url_trailing_punctuation_stripped(self):
        [ident] = extract._scan_urls("see https://Example.net/Page1. later")
        assert ident.raw == "https://Example.net/Page1"
        assert ident.canonical == "https://example.net/Page1"

    def test_url_path_case_preserved(self):
        assert extract.canonical_url("HTTPS://HOST.com/AbC") == "https://host.com/AbC"

    def test_handle_with_colon(self):
        [ident] = extract._scan_handles("snap: lola12 for more")
        assert ident.kind == "social_handle"
        assert ident.canonical == "snapchat:lola12"

    def test_handle_with_at(self):
        [ident] = extract._scan_handles("find me on ig @peach.fuzz ok")
        assert ident.canonical == "instagram:peach.fuzz"

    def test_handle_token_too_short_skipped(self):
        assert extract._scan_handles("my ig x") == []

    def test_handle_platform_word_as_token_skipped(self):
        assert extract._scan_handles("snap snapchat") == []

    def test_handle_trailing_dot_trimmed(self):
        [ident] = extract._scan_handles("telegram sweetpea.")
        assert ident.canonical == "telegram:sweetpea"


# what can start, end or break each scanner's match: digit and platform
# words in any case, the IGNORECASE traps, "@", "://", separators, and
# digit runs on both sides of a phone's 10 and 15 digits
_SCAN_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_WORDS + sorted(extract._PLATFORMS)).flatmap(_mixed_case),
        st.sampled_from(("\u212a", "\u017f", "\u0130", "\u0131")),
        st.sampled_from(("@", "://", "http", "HTTPS", ".com", "x", "me", "_")),
        st.sampled_from((" ", "-", ".", ":", "(", ")", "/", "\t", "\U0001F600")),
        st.text("0123456789", min_size=1, max_size=20),
    ),
    max_size=16,
).map("".join)


class TestScannersMatchReference:
    @given(_SCAN_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_scan_text_equals_reference(self, text):
        assert extract._scan_text(text) == scan_text_ref(text)

    @pytest.mark.parametrize(
        "text",
        [
            "call 555 123 014 now",  # 9 digits: dropped before the homophone pass
            "five five five 123 oh one four",
            "call 555 123 0147 now",  # exactly 10
            "for 555 to 123 0147",
            "5551230147 5551230148 555 1",  # over 15, split greedily
            "\u017fnap me",
            "\u0131nsta",
            "\u0131nsta: bobby @ x.com http://a.b/C",
            "snap \u017fam",
            "snap \u0130van",
            "ig \u0131van",
            "tg \u212aim",
            "snap \u0131nsta",
        ],
    )
    def test_pinned(self, text):
        assert extract._scan_text(text) == scan_text_ref(text)

    def test_platform_fold_covers_every_code_point_ignorecase_reads_as_a_letter(self):
        letters = set("".join(extract._PLATFORMS))
        any_letter = re.compile("[%s]" % "".join(sorted(letters)), re.IGNORECASE)
        wrong = []
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            if any_letter.fullmatch(ch):
                folded = ch.translate(extract._PLATFORM_FOLD).lower()
                if folded not in letters or not re.fullmatch(folded, ch, re.IGNORECASE):
                    wrong.append(cp)
        assert wrong == []

    def test_pinned_outcomes(self):
        # the traps still start a platform word under a Unicode IGNORECASE,
        # and name its platform
        assert [i.canonical for i in extract._scan_text("\u017fnap me")] == ["snapchat:me"]
        assert extract._scan_text("\u0131nsta") == []
        for word in ("\u0131nsta", "\u0130NSTA", "In\u017fta"):
            assert [i.canonical for i in extract._scan_text(f"{word} bob")] == ["instagram:bob"]
        assert extract.deobfuscate_phone("call 555 123 014 now") == []
        assert extract.deobfuscate_phone("call 555 123 0147 now") == [("5551230147", (5, 17))]

    @pytest.mark.parametrize(
        "trap, plain, platform_word",
        [("\u017f", "s", "\u017fnap"), ("\u0130", "i", "\u0130g"), ("\u0131", "i", "\u0131g"), ("\u212a", "k", None)],
    )
    def test_a_handle_token_folds_the_letters_ignorecase_reads_as_ascii(self, trap, plain, platform_word):
        # the handle class [A-Za-z0-9_] admits the four under IGNORECASE;
        # the handle is the one its ASCII spelling names, so the two ads link
        canon = {i.canonical for i in extract.extract_identifiers(None, *ad_texts(f"snap {trap}am x"))}
        assert canon == {f"snapchat:{plain}am"}
        assert canon == {i.canonical for i in extract.extract_identifiers(None, *ad_texts(f"snap {plain}am x"))}
        # a token that folds to a platform word is skipped like that word
        if platform_word is not None:
            assert extract._scan_handles(f"tg {platform_word}") == []


class TestMergeIdentifiers:
    def test_span_beats_no_span(self):
        a = extract.Identifier("phone", "raw1", "5551230147", None, None)
        b = extract.Identifier("phone", "raw2", "5551230147", 3, 13)
        merged = extract.merge_identifiers([a], [b])
        assert len(merged) == 1 and merged[0].start == 3

    def test_first_spanned_kept(self):
        a = extract.Identifier("phone", "rawA", "5551230147", 0, 10)
        b = extract.Identifier("phone", "rawB", "5551230147", 5, 15)
        assert extract.merge_identifiers([a], [b])[0].raw == "rawA"

    def test_distinct_canonicals_kept_sorted(self):
        a = extract.Identifier("url", "u", "https://a", 0, 1)
        b = extract.Identifier("email", "e", "x@y.com", 0, 1)
        merged = extract.merge_identifiers([a, b])
        assert [i.kind for i in merged] == ["email", "url"]


class TestExtractIdentifiers:
    def test_spans_index_original_text(self):
        original, norm = ad_texts("Call 555-123-0147 now", title="Hot")
        ids = extract.extract_identifiers(None, original, norm)
        [phone] = [i for i in ids if i.kind == "phone"]
        assert original[phone.start : phone.end] == "555-123-0147"

    def test_normalization_reveals_fused_digits(self):
        # control char splits the run in the original, not after cleanup
        texts = ad_texts("call 555\x001230147 ok")
        [phone] = [
            i for i in extract.extract_identifiers(None, *texts) if i.kind == "phone"
        ]
        assert phone.canonical == "5551230147"
        assert phone.start is None and phone.end is None

    def test_mixed_case_url_path_yields_one_url(self):
        # casefolding changes the case-sensitive path; the norm pass must
        # not add the folded url as a second, spanless identifier
        original, norm = ad_texts("see https://Example.com/MyPage now")
        [url] = extract.extract_identifiers(None, original, norm)
        assert (url.kind, url.canonical) == ("url", "https://example.com/MyPage")
        assert original[url.start : url.end] == "https://Example.com/MyPage"

    def test_whitespace_collapse_reveals_phone(self):
        # the gaps are wider than three separators until normalization
        # collapses them, so only the norm pass finds this phone
        [phone] = extract.extract_identifiers(None, *ad_texts("call 212      555     0100"))
        assert (phone.kind, phone.canonical) == ("phone", "2125550100")
        assert phone.start is None

    def test_declared_phone_obfuscated(self):
        ids = extract.extract_identifiers("555 one two three 0148", *ad_texts("hi there"))
        assert [i.canonical for i in ids] == ["5551230148"]
        assert ids[0].start is None

    def test_declared_phone_strip_fallback(self):
        # commas break chains; bare digit stripping still recovers it
        ids = extract.extract_identifiers("555,123,0149", *ad_texts("hi there"))
        assert [i.canonical for i in ids] == ["5551230149"]

    def test_declared_unrecoverable_ignored(self):
        assert extract.extract_identifiers("none", *ad_texts("hi there")) == []

    def test_declared_matches_text_find_keeps_span(self):
        ids = extract.extract_identifiers("5551230147", *ad_texts("call 5551230147 ok"))
        [phone] = ids
        assert phone.start is not None

    def test_all_kinds_together(self):
        text = (
            "Call 555-123-0147 or mail me at kay@example.net, "
            "snap: kaybee, pics https://example.net/kay"
        )
        kinds = sorted(i.kind for i in extract.extract_identifiers(None, *ad_texts(text)))
        assert kinds == ["email", "phone", "social_handle", "url"]

    def test_fixture_positive_sample(self, data_dir):
        cases = json.loads((data_dir / "phone_obfuscation_cases.json").read_text())
        for case in cases[::10]:
            assert phones(case["text"]) == sorted(case["expected"])

    def test_fixture_negative_sample(self, data_dir):
        cases = json.loads((data_dir / "phone_negative_cases.json").read_text())
        for case in cases[::10]:
            assert phones(case["text"]) == []


def _ascii_lower(text: str) -> str:
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in text)


def _ident_keys(text: str) -> set[tuple[str, str]]:
    return {(i.kind, i.canonical.casefold()) for i in extract._scan_text(text)}


# case-fold traps: str.lower, casefold or a Unicode IGNORECASE map the
# first four onto ASCII letters, casefold expands U+00DF, and U+03A3
# lowers by context
_CASE_TRAPS = ("\u212a", "\u017f", "\u0130", "\u0131", "\u00df", "\u03a3")
_CASE_PIECES = (
    st.text("abckosxyzABCKOSXYZ", min_size=1, max_size=4),
    st.text("0123456789", min_size=1, max_size=4),
    st.sampled_from(_WORDS + sorted(extract._PLATFORMS)).flatmap(_mixed_case),
    st.sampled_from((" ", "-", ".", ":", "@", "(", ")", "_", "/", "%", "+")),
    st.sampled_from(("\U0001F600", "\u260e", "\u2728")),
    st.sampled_from(("https://", "HTTP://", "Ex.COM/", "/Path", "Me@", "@Mail.Com", ".Net", "?Q=1")),
    st.sampled_from(_CASE_TRAPS),
)
_CASE_TEXT = st.lists(st.one_of(*_CASE_PIECES), max_size=24).map("".join)
# what normalization changes beyond ASCII case: control characters,
# runs and kinds of whitespace
_RAW_TEXT = st.lists(
    st.one_of(*_CASE_PIECES, st.sampled_from(("\x00", "\x07", "   ", "\t", "\n", "\u3000"))),
    max_size=24,
).map("".join)
_DECLARED = st.one_of(st.none(), st.just(""), st.text("0123456789 -", max_size=14))


class TestNormPassSkip:
    @given(_CASE_TEXT)
    @settings(max_examples=1000, deadline=None)
    def test_ascii_lowering_reveals_no_identifier(self, text):
        # the premise of the skip: every scanner reads A-Z and a-z alike
        assert _ident_keys(_ascii_lower(text)) <= _ident_keys(text)

    @given(_DECLARED, _CASE_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_equals_two_pass_reference_on_lowered_text(self, declared, text):
        norm = _ascii_lower(text)
        assert extract.extract_identifiers(declared, text, norm) == extract_identifiers_ref(declared, text, norm)

    @given(_DECLARED, _RAW_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_equals_two_pass_reference_on_normalized_text(self, declared, text):
        norm = normalize_text(text)
        assert extract.extract_identifiers(declared, text, norm) == extract_identifiers_ref(declared, text, norm)

    @pytest.mark.parametrize(
        "original,norm,scans",
        [
            ("Call 555 123 0147 Now", "call 555 123 0147 now", 1),
            ("same text", "same text", 1),
            ("", "", 1),
            # U+212A lowers to an ASCII k, which the email class reads
            ("ab@\u212ax.com", "ab@kx.com", 2),
            ("\u0130o", "i\u0307o", 2),
            ("a  b", "a b", 2),
            ("a\x00b", "ab", 2),
            ("\u00c9t\u00e9", "\u00e9t\u00e9", 2),
        ],
    )
    def test_norm_text_scanned_only_past_ascii_case(self, original, norm, scans):
        with mock.patch.object(extract, "_scan_text", wraps=extract._scan_text) as scan:
            got = extract.extract_identifiers(None, original, norm)
        assert scan.call_count == scans
        assert got == extract_identifiers_ref(None, original, norm)

    def test_kelvin_sign_email_found_by_the_norm_pass(self):
        [email] = extract.extract_identifiers(None, "ab@\u212ax.com", "ab@kx.com")
        assert (email.kind, email.canonical, email.start) == ("email", "ab@kx.com", None)


class TestImportAnnotations:
    def _write(self, tmp_path, lines):
        path = tmp_path / "ann.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write((line if isinstance(line, str) else json.dumps(line)) + "\n")
        return path

    def test_happy_phone_and_email(self, tmp_path):
        text = "ring 555-123-0147 or foo@example.net soon"
        p0 = text.index("555")
        e0 = text.index("foo@")
        path = self._write(
            tmp_path,
            [
                {
                    "ad_id": "a1",
                    "spans": [
                        {"start": p0, "end": p0 + 12, "label": "phone"},
                        {"start": e0, "end": e0 + 15, "label": "email"},
                    ],
                }
            ],
        )
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        assert sorted(i.kind for i in found["a1"]) == ["email", "phone"]
        [phone] = [i for i in found["a1"] if i.kind == "phone"]
        assert phone.canonical == "5551230147"

    def test_handle_keyword_outside_span(self, tmp_path):
        text = "add my snap lolapetal today"
        t0 = text.index("lolapetal")
        path = self._write(
            tmp_path,
            [{"ad_id": "a1", "spans": [{"start": t0, "end": t0 + 9, "label": "social_handle"}]}],
        )
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        assert found["a1"][0].canonical == "snapchat:lolapetal"

    def test_handle_keyword_with_a_folded_letter(self, tmp_path):
        text = "add my \u0131nsta lolapetal today"
        t0 = text.index("lolapetal")
        path = self._write(
            tmp_path,
            [{"ad_id": "a1", "spans": [{"start": t0, "end": t0 + 9, "label": "social_handle"}]}],
        )
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        assert found["a1"][0].canonical == "instagram:lolapetal"

    def test_handle_token_with_a_folded_letter(self, tmp_path):
        text = "add my snap lola\u017fam today"
        t0 = text.index("snap")
        path = self._write(
            tmp_path,
            [{"ad_id": "a1", "spans": [{"start": t0, "end": t0 + 12, "label": "social_handle"}]}],
        )
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        assert found["a1"][0].canonical == "snapchat:lolasam"

    @pytest.mark.parametrize("letter, plain", [("\u017f", "s"), ("\u0130", "i"), ("\u0131", "i"), ("\u212a", "k")])
    def test_bare_handle_token_with_a_folded_letter_is_the_scanners(self, tmp_path, letter, plain):
        # no platform word inside the span: the token alone must pass the check
        text = f"add my snap {letter}amlola today"
        t0 = text.index(letter)
        path = self._write(
            tmp_path,
            [{"ad_id": "a1", "spans": [{"start": t0, "end": t0 + 7, "label": "social_handle"}]}],
        )
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        scanned = [i.canonical for i in extract.extract_identifiers(None, *ad_texts(text))]
        assert scanned == [f"snapchat:{plain}amlola"]
        assert [i.canonical for i in found["a1"]] == scanned

    def test_leading_bom_is_skipped(self, tmp_path):
        text = "mail foo@example.net"
        path = tmp_path / "ann.jsonl"
        row = {"ad_id": "a1", "spans": [{"start": 5, "end": 20, "label": "email"}]}
        path.write_text("\ufeff" + json.dumps(row) + "\n", encoding="utf-8")
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        assert [i.canonical for i in found["a1"]] == ["foo@example.net"]

    def test_reject_reasons(self, tmp_path):
        text = "plain words only here"
        path = self._write(
            tmp_path,
            [
                "{bad json",
                '["list"]',
                {"ad_id": "ghost", "spans": []},
                {"ad_id": "a1"},
                {"ad_id": "a1", "spans": [{"start": 0, "end": 4, "label": "face"}]},
                {"ad_id": "a1", "spans": [{"start": 5, "end": 2, "label": "phone"}]},
                {"ad_id": "a1", "spans": [{"start": 0, "end": 4, "label": "phone"}]},
            ],
        )
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert found == {}
        reasons = " | ".join(r.reason for r in rejects)
        assert "invalid json" in reasons
        assert "not an object" in reasons
        assert "unknown ad_id 'ghost'" in reasons
        assert "missing spans" in reasons
        assert "unknown label 'face'" in reasons
        assert "span out of range" in reasons
        assert "no recoverable phone" in reasons

    def test_invalid_utf8_line_is_a_reject_and_the_rest_is_kept(self, tmp_path):
        text = "mail foo@example.net or bar@example.org"

        def line(word):
            s = text.index(word)
            span = {"start": s, "end": s + len(word), "label": "email"}
            return json.dumps({"ad_id": "a1", "spans": [span], "note": "caf\u00e9"}, ensure_ascii=False)

        path = tmp_path / "ann.jsonl"
        lines = [line("foo@example.net").encode("utf-8"), line("foo@example.net").encode("latin-1")]
        path.write_bytes(b"\n".join([*lines, line("bar@example.org").encode("utf-8")]) + b"\n")
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == [Reject(2, "invalid utf-8")]
        assert [i.canonical for i in found["a1"]] == ["bar@example.org", "foo@example.net"]

    def test_url_span_over_a_closing_quote_adds_no_second_url(self, tmp_path):
        text = "visit https://example.com/page\u201d today"
        s = text.index("https")
        end = text.index("\u201d") + 1  # the span covers the closing quote
        path = self._write(tmp_path, [{"ad_id": "a1", "spans": [{"start": s, "end": end, "label": "url"}]}])
        found, rejects = extract.import_annotations(path, {"a1": text})
        assert rejects == []
        assert [i.canonical for i in found["a1"]] == ["https://example.com/page"]
        merged = extract.merge_identifiers(extract.extract_identifiers(None, *ad_texts(text)), found["a1"])
        assert [i.canonical for i in merged if i.kind == "url"] == ["https://example.com/page"]

    def test_annotation_merges_with_span_priority(self, tmp_path):
        text = "digits 555 123 0147 here"
        s = text.index("555")
        path = self._write(
            tmp_path,
            [{"ad_id": "a1", "spans": [{"start": s, "end": s + 12, "label": "phone"}]}],
        )
        found, _ = extract.import_annotations(path, {"a1": text})
        rule_based = extract.extract_identifiers(None, *ad_texts(text))
        merged = extract.merge_identifiers(rule_based, found["a1"])
        assert len([i for i in merged if i.kind == "phone"]) == 1
