"""Emoji detection backed by a fixed codepoint range table.

The table ships as package data so that counts do not drift with the
host's unicodedata version.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=1)
def emoji_ranges() -> tuple[tuple[int, int], ...]:
    """Sorted, non-overlapping (first, last) codepoint ranges, inclusive."""
    raw = resources.files("adgraph.data").joinpath("emoji_ranges.json").read_text("utf-8")
    ranges = sorted((int(r["first"], 16), int(r["last"], 16)) for r in json.loads(raw))
    for (af, al), (bf, _) in zip(ranges, ranges[1:]):
        if bf <= al:
            raise ValueError(f"overlapping emoji ranges near U+{bf:04X}")
        if af > al:
            raise ValueError(f"inverted emoji range U+{af:04X}..U+{al:04X}")
    return tuple(ranges)


@lru_cache(maxsize=1)
def emoji_class() -> str:
    """The emoji ranges as the inside of a regex character class."""
    return "".join(
        rf"\U{first:08X}" if first == last else rf"\U{first:08X}-\U{last:08X}"
        for first, last in emoji_ranges()
    )


@lru_cache(maxsize=1)
def _emoji_re() -> re.Pattern[str]:
    return re.compile(f"[{emoji_class()}]")


def count_emoji(text: str) -> int:
    """Number of emoji codepoints in text (sequences count per codepoint)."""
    return len(_emoji_re().findall(text))
