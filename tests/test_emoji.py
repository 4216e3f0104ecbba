import sys

import pytest

from adgraph import emoji

from oracles import is_emoji_ref


def test_count_emoji_matches_range_table_on_every_code_point():
    wrong = [cp for cp in range(sys.maxunicode + 1) if emoji.count_emoji(chr(cp)) != is_emoji_ref(chr(cp))]
    assert wrong == []


@pytest.mark.parametrize(
    "text,want",
    [
        ("", 0),
        ("no emoji here", 0),
        ("call me \U0001F600\U0001F600 now", 2),
        ("\U0001F469‍\U0001F4BB", 2),  # a ZWJ sequence counts per codepoint
        ("☀⛿✀➿", 4),  # both ends of two ranges
    ],
)
def test_count_emoji_counts_codepoints(text, want):
    assert emoji.count_emoji(text) == want
