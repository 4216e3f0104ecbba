"""Hard identifier extraction: phones (plain or obfuscated), emails,
social handles, urls.

Phone recovery uses an atom/chain model: ASCII digit runs and spelled
digit words are atoms; atoms chain when separated by at most three
characters of pure separators (whitespace, dash, dot, parens, emoji).
Homophone words (to, for, ate, o) count only next to a strong atom. A
chain of ten or more digits is a phone. Dense numeric text such as
dotted timestamps can satisfy these rules; they are applied verbatim,
with no context heuristics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .corpus import Reject, iter_jsonl_objects
from .emoji import emoji_class

KINDS = ("phone", "email", "social_handle", "url")

_DIGIT_WORDS = {
    "zero": "0", "oh": "0", "one": "1", "two": "2", "three": "3",
    "four": "4", "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
}
_HOMOPHONES = {"to": "2", "too": "2", "for": "4", "ate": "8", "o": "0"}

# A digit run, or a digit/homophone word that is a whole ASCII letter run.
# re.ASCII keeps IGNORECASE from folding non-ASCII letters onto ASCII ones
# (U+212A KELVIN SIGN to "k", U+017F LONG S to "s", U+0130/U+0131 to "i"),
# in the words and in the lookarounds alike. The leading lookahead holds
# every character a match can begin with, so the search skips any other
# position without trying each alternative there.
_ATOM_RE = re.compile(
    r"(?=[0-9aefnostz])(?:[0-9]+|(?<![A-Za-z])(?:%s)(?![A-Za-z]))"
    % "|".join(sorted({*_DIGIT_WORDS, *_HOMOPHONES}, key=lambda w: (-len(w), w))),
    re.ASCII | re.IGNORECASE,
)
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}")
_URL_RE = re.compile(r"https?://[^\s<>\"']+", re.IGNORECASE)
# punctuation that ends a sentence or quote around a URL, not the URL
_URL_TRAIL = ".,!?;:)’”"
_PLATFORMS = {
    "snap": "snapchat", "snapchat": "snapchat",
    "insta": "instagram", "instagram": "instagram", "ig": "instagram",
    "telegram": "telegram", "tg": "telegram",
    "whatsapp": "whatsapp",
}
_PLATFORM_RE = r"\b(%s)\b" % "|".join(sorted(_PLATFORMS, key=lambda w: (-len(w), w)))
_HANDLE_TOKEN = r"[A-Za-z0-9_][A-Za-z0-9_.\-]{1,30}"
# the lookahead holds the platforms' first letters; under a Unicode-mode
# IGNORECASE it also admits U+017F, U+0130 and U+0131, as the words do,
# and the token admits those and U+212A
_HANDLE_RE = re.compile(
    r"(?=[sitw])" + _PLATFORM_RE + r"(?=[\s:.\-–—@]{0,4}(" + _HANDLE_TOKEN + "))",
    re.IGNORECASE,
)
# an annotated token stands alone, and admits what _HANDLE_RE's token does
_HANDLE_TOKEN_RE = re.compile(_HANDLE_TOKEN, re.IGNORECASE)
# a Unicode IGNORECASE matches four code points as ASCII letters. str.lower
# maps U+212A to "k", but keeps U+017F ("s") and U+0131 ("i") and turns
# U+0130 ("i") into two characters, so platform words and handle tokens
# fold those three first
_PLATFORM_FOLD = str.maketrans({"\u017f": "s", "\u0130": "i", "\u0131": "i"})


def _fold(word: str) -> str:
    """A platform word or handle token as the ASCII lower case it matched as."""
    return word.translate(_PLATFORM_FOLD).lower()


def _platform(word: str) -> str:
    """The platform that a word _PLATFORM_RE matched names."""
    return _PLATFORMS[_fold(word)]


@dataclass(frozen=True, slots=True)
class Identifier:
    """One extracted identifier; start/end index the original text when known."""

    kind: str
    raw: str
    canonical: str
    start: int | None = None
    end: int | None = None


@dataclass(slots=True)
class AdIdentifier:
    """A row of identifiers.jsonl: an Identifier's fields plus its ad's id.
    A chain builds one per ad and identifier, so it has slots and is not
    frozen (a frozen __init__ costs about four times as much)."""

    ad_id: str
    kind: str
    raw: str
    canonical: str
    start: int | None = None
    end: int | None = None


class _Atom(NamedTuple):
    start: int
    end: int
    digits: str
    strong: bool
    is_run: bool  # a literal digit run, one digit per char


@lru_cache(maxsize=1)
def _gap_re() -> re.Pattern[str]:
    """Up to three separators: whitespace, dash, dot, parens, emoji."""
    return re.compile(rf"[\s\-–—.(){emoji_class()}]{{0,3}}")


def _atoms(text: str) -> list[_Atom]:
    out = []
    for m in _ATOM_RE.finditer(text):
        tok = m.group()
        if tok[0].isdigit():
            out.append(_Atom(m.start(), m.end(), tok, True, True))
            continue
        word = tok.lower()
        if word in _DIGIT_WORDS:
            out.append(_Atom(m.start(), m.end(), _DIGIT_WORDS[word], True, False))
        else:
            out.append(_Atom(m.start(), m.end(), _HOMOPHONES[word], False, False))
    return out


def _chain(atoms: list[_Atom], text: str) -> list[list[_Atom]]:
    is_gap = _gap_re().fullmatch
    chains: list[list[_Atom]] = []
    cur: list[_Atom] = []
    for atom in atoms:
        if cur:
            if is_gap(text, cur[-1].end, atom.start):
                cur.append(atom)
                continue
            chains.append(cur)
        cur = [atom]
    if cur:
        chains.append(cur)
    return chains


def _digit_char_spans(chain: list[_Atom]) -> list[tuple[int, int]]:
    spans = []
    for atom in chain:
        if atom.is_run:
            spans.extend((atom.start + i, atom.start + i + 1) for i in range(len(atom.digits)))
        else:
            spans.append((atom.start, atom.end))
    return spans


def deobfuscate_phone(text: str) -> list[tuple[str, tuple[int, int]]]:
    """All recovered digit chains of length >= 10, as (digits, (start, end)).

    Chains longer than 15 digits are split greedily into 10-digit
    numbers left to right; a remainder under 10 digits is dropped.
    """
    matches: list[tuple[str, tuple[int, int]]] = []
    for rough in _chain(_atoms(text), text):
        # kept atoms are a subset of the rough chain's, so a rough chain
        # of fewer than ten digits gives no phone
        if sum(len(a.digits) for a in rough) < 10:
            continue
        kept = [
            atom
            for i, atom in enumerate(rough)
            if atom.strong
            or (i > 0 and rough[i - 1].strong)
            or (i + 1 < len(rough) and rough[i + 1].strong)
        ]
        for chain in _chain(kept, text):
            digits = "".join(a.digits for a in chain)
            if len(digits) < 10:
                continue
            if len(digits) <= 15:
                matches.append((digits, (chain[0].start, chain[-1].end)))
                continue
            spans = _digit_char_spans(chain)
            pos = 0
            while len(digits) - pos >= 10:
                matches.append((digits[pos : pos + 10], (spans[pos][0], spans[pos + 9][1])))
                pos += 10
    return matches


def canonical_phone(digits: str) -> str | None:
    """Canonical digit string, or None if the length is out of range."""
    if not digits.isdigit():
        return None
    if len(digits) == 10:
        return digits
    if len(digits) == 11 and digits[0] == "1":
        return digits[1:]
    if 11 <= len(digits) <= 15:
        return digits
    return None


def canonical_url(raw: str) -> str:
    m = re.match(r"(?i)(https?)://([^/?#]*)(.*)", raw, re.DOTALL)
    if not m:
        return raw.lower()
    scheme, netloc, tail = m.groups()
    return f"{scheme.lower()}://{netloc.lower()}{tail}"


def _scan_phones(text: str) -> list[Identifier]:
    out = []
    for digits, (start, end) in deobfuscate_phone(text):
        canonical = canonical_phone(digits)
        if canonical is not None:
            out.append(Identifier("phone", text[start:end], canonical, start, end))
    return out


def _scan_emails(text: str) -> list[Identifier]:
    if "@" not in text:  # _EMAIL_RE requires one
        return []
    return [
        Identifier("email", m.group(), m.group().lower(), m.start(), m.end())
        for m in _EMAIL_RE.finditer(text)
    ]


def _scan_handles(text: str) -> list[Identifier]:
    out = []
    for m in _HANDLE_RE.finditer(text):
        token = m.group(2).rstrip(".-")
        if len(token) < 2 or _fold(token) in _PLATFORMS:
            continue
        platform = _platform(m.group(1))
        end = m.start(2) + len(token)
        out.append(
            Identifier("social_handle", text[m.start() : end], f"{platform}:{_fold(token)}", m.start(), end)
        )
    return out


def _scan_urls(text: str) -> list[Identifier]:
    if "://" not in text:  # _URL_RE requires it
        return []
    out = []
    for m in _URL_RE.finditer(text):
        raw = m.group().rstrip(_URL_TRAIL)
        if "://" not in raw:
            continue
        out.append(Identifier("url", raw, canonical_url(raw), m.start(), m.start() + len(raw)))
    return out


def _scan_text(text: str) -> list[Identifier]:
    return _scan_phones(text) + _scan_emails(text) + _scan_handles(text) + _scan_urls(text)


def merge_identifiers(*groups: Iterable[Identifier]) -> list[Identifier]:
    """Dedupe by (kind, canonical); an entry with a span beats one without."""
    chosen: dict[tuple[str, str], Identifier] = {}
    for group in groups:
        for ident in group:
            key = (ident.kind, ident.canonical)
            held = chosen.get(key)
            if held is None or (held.start is None and ident.start is not None):
                chosen[key] = ident
    return sorted(chosen.values(), key=lambda x: (x.kind, x.canonical))


def _phones(text: str) -> list[str]:
    """Canonical phones recovered from text, else its digits as one phone."""
    found = [c for c in (canonical_phone(d) for d, _ in deobfuscate_phone(text)) if c is not None]
    if not found:
        canonical = canonical_phone(re.sub(r"[^0-9]", "", text))
        if canonical is not None:
            found = [canonical]
    return found


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def extract_identifiers(
    declared_phone: str | None, original_text: str, norm_text: str
) -> list[Identifier]:
    """Rule-based identifiers for one ad.

    Scans original_text (spans reported), then norm_text, its normalized
    form, for anything only normalization reveals, i.e. that no
    original-pass identifier of its kind matches up to case (span
    recovered by exact substring match when possible), then the declared
    phone field (never carries a span).

    norm_text is not scanned when it is original_text with only ASCII
    letters lowered, as it is for most ads: every scanner reads A-Z and
    a-z alike (the atom words are ASCII and IGNORECASE, the email and
    gap classes hold both cases or no letters, handles and urls match
    IGNORECASE), and lowering keeps every other character, so that scan
    would find the same identifiers up to case, which it drops.
    """
    original_pass = _scan_text(original_text)
    # bytes.lower lowers A-Z only; str.lower and casefold also fold
    # non-ASCII letters, U+0130 and U+212A among them onto ASCII ones
    if len(norm_text) == len(original_text) and _utf8(original_text).lower() == _utf8(norm_text):
        norm_scan = []
    else:
        norm_scan = _scan_text(norm_text)

    # casefolding can change what a scanner reads (a url path is
    # case-sensitive), so a norm-pass identifier that an original-pass one
    # of its kind matches up to case is that identifier, not a second one
    found = {(ident.kind, ident.canonical.casefold()) for ident in original_pass}
    norm_pass = []
    for ident in norm_scan:
        if (ident.kind, ident.canonical.casefold()) in found:
            continue
        idx = original_text.find(ident.raw)
        span = (idx, idx + len(ident.raw)) if idx >= 0 else (None, None)
        norm_pass.append(Identifier(ident.kind, ident.raw, ident.canonical, *span))

    declared_pass = []
    if declared_phone:
        declared_pass = [Identifier("phone", declared_phone, c) for c in _phones(declared_phone)]

    return merge_identifiers(original_pass, norm_pass, declared_pass)


def _canonicalize_span(
    original_text: str, start: int, end: int, label: str
) -> Identifier | None:
    span_text = original_text[start:end]
    if label == "phone":
        phones = _phones(span_text)
        return Identifier("phone", span_text, phones[0], start, end) if phones else None
    if label == "email":
        m = _EMAIL_RE.search(span_text)
        return Identifier("email", span_text, m.group().lower(), start, end) if m else None
    if label == "url":
        m = _URL_RE.search(span_text)
        return Identifier("url", span_text, canonical_url(m.group().rstrip(_URL_TRAIL)), start, end) if m else None
    if label == "social_handle":
        inner = _scan_handles(span_text)
        if inner:
            first = inner[0]
            return Identifier("social_handle", span_text, first.canonical, start, end)
        token = span_text.strip().lstrip("@")
        if not _HANDLE_TOKEN_RE.fullmatch(token):
            return None
        # platform keyword is often just before the span, not inside it
        window = original_text[max(0, start - 24) : start]
        platform = None
        for m in re.finditer(_PLATFORM_RE, window, re.IGNORECASE):
            platform = _platform(m.group(1))
        if platform is None:
            return None
        return Identifier("social_handle", span_text, f"{platform}:{_fold(token)}", start, end)
    return None


def import_annotations(
    path: str | Path, original_texts: Mapping[str, str]
) -> tuple[dict[str, list[Identifier]], list[Reject]]:
    """Read span annotations (JSONL) and canonicalize them against the ads' original texts.

    Each line holds {"ad_id": ..., "spans": [{"start", "end", "label"}]}.
    Unknown ads, malformed spans, and spans that cannot be canonicalized
    become rejects; everything else lands in the per-ad identifier map.
    """
    out: dict[str, list[Identifier]] = {}
    rejects: list[Reject] = []
    for line_no, obj in iter_jsonl_objects(path, "annotation"):
        if isinstance(obj, Reject):
            rejects.append(obj)
            continue
        ad_id = obj.get("ad_id")
        if not isinstance(ad_id, str) or ad_id not in original_texts:
            rejects.append(Reject(line_no, f"unknown ad_id {ad_id!r}"))
            continue
        spans = obj.get("spans")
        if not isinstance(spans, list):
            rejects.append(Reject(line_no, "missing spans list"))
            continue
        original = original_texts[ad_id]
        found: list[Identifier] = []
        for span in spans:
            if not isinstance(span, dict):
                rejects.append(Reject(line_no, "span is not an object"))
                continue
            start, end, label = span.get("start"), span.get("end"), span.get("label")
            if label not in KINDS:
                rejects.append(Reject(line_no, f"unknown label {label!r}"))
                continue
            if (
                not isinstance(start, int)
                or not isinstance(end, int)
                or isinstance(start, bool)
                or isinstance(end, bool)
                or not (0 <= start < end <= len(original))
            ):
                rejects.append(Reject(line_no, f"span out of range for {ad_id}"))
                continue
            ident = _canonicalize_span(original, start, end, label)
            if ident is None:
                rejects.append(
                    Reject(line_no, f"span {start}:{end} has no recoverable {label}")
                )
                continue
            found.append(ident)
        if found:
            out.setdefault(ad_id, [])
            out[ad_id] = merge_identifiers(out[ad_id], found)
    return out, rejects
