"""Corpus ingestion, text normalization, and the row codec.

Records arrive as JSONL or CSV, are validated row by row, and normalized
into the text form every downstream stage works on. Invalid rows are
collected as rejects with a line number and reason, never silently
dropped. to_row and from_row write and read every artifact dataclass; a
value that does not fit its field's type hint, at any depth, raises
PipelineError.
"""

from __future__ import annotations

import csv
import json
import os
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from functools import lru_cache, partial
from itertools import chain, islice
from pathlib import Path
from types import UnionType
from typing import IO, Callable, Iterable, Iterator, Literal, get_args, get_origin, get_type_hints

from .emoji import count_emoji
from .errors import EmptyCorpusError, IngestError, PipelineError

CSV_COLUMNS = ("ad_id", "title", "description", "posted_at", "locations", "declared_phone", "source")

# casefold+NFC can expose new foldable/composable text; bounded, not while-True,
# so a pathological input cannot loop forever
_NORMALIZE_ROUNDS = 4

# control characters (category Cc) other than whitespace, which
# normalize_text deletes. Cc is fixed by Unicode's stability policy at
# U+0000..U+001F and U+007F..U+009F, so scanning the code points below
# U+00A0 finds all of it; a scan of every code point would cost about
# 0.4 s at import.
_CONTROL_RE = re.compile(
    "[%s]"
    % "".join(
        re.escape(chr(cp))
        for cp in range(0xA0)
        if unicodedata.category(chr(cp)) == "Cc" and not chr(cp).isspace()
    )
)


@dataclass
class AdRecord:
    """One raw ad as ingested."""

    ad_id: str
    title: str
    description: str
    posted_at: datetime
    locations: list[str] = field(default_factory=list)
    declared_phone: str | None = None
    source: str = ""


@dataclass
class NormalizedAd:
    """Normalized view of one ad's original text (see build_original_text)."""

    ad_id: str
    norm_text: str
    emoji_count: int


@dataclass
class Reject:
    """One dropped input row."""

    line: int
    reason: str


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp to aware UTC, truncated to seconds."""
    if not isinstance(value, str) or not value.strip():
        raise ValueError("timestamp must be a non-empty string")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def build_original_text(title: str, description: str) -> str:
    """Title and description joined with a single space; either may be empty."""
    if title and description:
        return f"{title} {description}"
    return title or description


def normalize_text(text: str) -> str:
    """Casefold, NFC-normalize, strip control chars, collapse whitespace.

    Applying this twice yields the same string: control characters are
    removed before the casefold/NFC fixpoint so their removal cannot
    expose a composition on a later pass.
    """
    s = _CONTROL_RE.sub("", text)
    prev = None
    for _ in range(_NORMALIZE_ROUNDS):
        if s == prev:
            break
        prev = s
        s = unicodedata.normalize("NFC", s.casefold())
    return " ".join(s.split())


def normalize(record: AdRecord) -> NormalizedAd:
    """Build the normalized view of one record."""
    norm = normalize_text(build_original_text(record.title, record.description))
    return NormalizedAd(ad_id=record.ad_id, norm_text=norm, emoji_count=count_emoji(norm))


def _validate_fields(obj: dict, line: int, seen_ids: set[str]) -> AdRecord | Reject:
    ad_id = obj.get("ad_id")
    if not isinstance(ad_id, str) or not ad_id:
        return Reject(line, "missing or empty ad_id")
    if ad_id in seen_ids:
        return Reject(line, f"duplicate ad_id {ad_id!r}")

    title = obj.get("title", "")
    description = obj.get("description", "")
    if not isinstance(title, str) or not isinstance(description, str):
        return Reject(line, "title and description must be strings")
    if not title and not description:
        return Reject(line, "empty title and description")

    raw_ts = obj.get("posted_at")
    if raw_ts is None:
        return Reject(line, "missing posted_at")
    try:
        posted_at = parse_timestamp(raw_ts)
    except (ValueError, TypeError):
        return Reject(line, f"unparseable posted_at {raw_ts!r}")

    locations = obj.get("locations", [])
    if not isinstance(locations, list) or any(not isinstance(x, str) for x in locations):
        return Reject(line, "locations must be a list of strings")

    declared_phone = obj.get("declared_phone")
    if declared_phone is not None and not isinstance(declared_phone, str):
        return Reject(line, "declared_phone must be a string or null")
    if declared_phone == "":
        declared_phone = None

    source = obj.get("source", "")
    if not isinstance(source, str):
        return Reject(line, "source must be a string")

    seen_ids.add(ad_id)
    return AdRecord(
        ad_id=ad_id,
        title=title,
        description=description,
        posted_at=posted_at,
        locations=[loc for loc in locations if loc],
        declared_phone=declared_phone,
        source=source,
    )


# no UTF-8 artifact can hold a lone surrogate. Read with
# errors="surrogateescape", each byte that is not valid UTF-8 becomes one,
# and json.loads turns an escaped one ("\udc80") into one, though it joins
# an escaped pair into a single character
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def iter_jsonl_objects(path: str | Path, noun: str) -> Iterator[tuple[int, dict | Reject]]:
    """Each non-blank line's number and JSON object, or a Reject saying why not.

    A line that is not valid UTF-8, not JSON, not an object, or that
    escapes a lone surrogate is a reject; the lines around it are read as
    usual. One leading byte order mark is skipped, as editors that save
    "UTF-8 with BOM" write one.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii() and _SURROGATE.search(line):
                yield line_no, Reject(line_no, "invalid utf-8")
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                yield line_no, Reject(line_no, "invalid json")
                continue
            if not isinstance(obj, dict):
                yield line_no, Reject(line_no, f"{noun} is not an object")
                continue
            if _SURROGATE_ESCAPE.search(line) and _SURROGATE.search(json.dumps(obj, ensure_ascii=False)):
                yield line_no, Reject(line_no, "invalid unicode (lone surrogate escape)")
                continue
            yield line_no, obj


def _iter_csv(path: Path) -> Iterator[tuple[int, dict | Reject]]:
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise IngestError(f"{path}: empty csv file")
            if set(reader.fieldnames) != set(CSV_COLUMNS):
                raise IngestError(
                    f"{path}: csv header mismatch, expected columns {sorted(CSV_COLUMNS)}, "
                    f"got {sorted(reader.fieldnames)}"
                )
            for row in reader:
                line_no = reader.line_num
                if None in row or any(v is None for v in row.values()):
                    yield line_no, Reject(line_no, "csv row width mismatch")
                    continue
                obj: dict = dict(row)
                obj["locations"] = [p.strip() for p in row["locations"].split(";") if p.strip()]
                yield line_no, obj
        except UnicodeDecodeError as e:
            # a csv record may span lines, so the whole file is refused
            raise IngestError(f"{path}: not valid utf-8 ({e.reason})") from e


def ingest(path: str | Path, fmt: str = "jsonl") -> tuple[list[AdRecord], list[Reject]]:
    """Read a corpus file, returning valid records and per-line rejects.

    Raises IngestError on structural problems (unreadable file, bad CSV
    header) and EmptyCorpusError when no record survives validation.
    """
    path = Path(path)
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unsupported corpus format {fmt!r}")
    if not path.exists():
        raise IngestError(f"corpus file not found: {path}")

    rows = iter_jsonl_objects(path, "record") if fmt == "jsonl" else _iter_csv(path)
    records: list[AdRecord] = []
    rejects: list[Reject] = []
    seen_ids: set[str] = set()
    for line_no, obj in rows:
        if isinstance(obj, Reject):
            rejects.append(obj)
            continue
        result = _validate_fields(obj, line_no, seen_ids)
        if isinstance(result, Reject):
            rejects.append(result)
        else:
            records.append(result)
    if not records:
        raise EmptyCorpusError(f"{path}: no valid records ({len(rejects)} rejected)")
    return records, rejects


def _json_types(hint) -> frozenset[type]:
    """The types a JSON value of a field typed hint may have: an int
    stands for a float, a bool for no number."""
    if hint is float:
        return frozenset((int, float))
    if hint is datetime:
        return frozenset((str,))
    if is_dataclass(hint):
        return frozenset((dict,))
    if isinstance(hint, UnionType):
        return frozenset().union(*map(_json_types, get_args(hint)))
    if get_origin(hint) is Literal:
        return frozenset(map(type, get_args(hint)))
    return frozenset((get_origin(hint) or hint,))


# a dict[int, X] key: only an int's own text, so that it is written back as read
_INT_TEXT = re.compile("0|-?[1-9][0-9]*")


class _Mismatch(Exception):
    """A value, or an item inside it, that its type hint does not take."""


def _require(fits: bool) -> None:
    if not fits:
        raise _Mismatch


def _int_key(key: str) -> int:
    _require(_INT_TEXT.fullmatch(key) is not None)
    return int(key)


@lru_cache(maxsize=None)
def _checker(hint) -> Callable[[list], None] | None:
    """The function that checks a list of JSON values of hint's _json_types
    for what their types do not show: a Literal's members and each item as
    deep as hint goes (a dataclass is left to from_row). It raises
    _Mismatch; None where there is nothing to check."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return lambda values, allowed=frozenset(args): _require(set(values) <= allowed)
    if origin not in (list, dict):
        return None
    types, check = _json_types(args[-1]), _checker(args[-1])

    def check_items(values: list) -> None:
        # the items of every value at once, a level at a time
        if origin is dict:
            values = [list(value.values()) for value in values]
        items = values[0] if len(values) == 1 else list(chain.from_iterable(values))
        if not set(map(type, items)) <= types:
            raise _Mismatch
        if check is not None:
            check(items)

    return check_items


@lru_cache(maxsize=None)
def _converter(hint, decoding: bool) -> Callable | None:
    """The function from a value of a field typed hint to its JSON-ready
    form, or when decoding from a checked JSON value back to the field's
    value; None where either is the value itself. As deep as hint goes,
    a datetime is ISO-8601 text, a dataclass a row, and an int key its
    text; decoded dict[int, X] keys come back in numeric order."""
    if hint is datetime:
        return parse_timestamp if decoding else datetime.isoformat
    if is_dataclass(hint):
        return partial(from_row, hint) if decoding else to_row
    origin, args = get_origin(hint), get_args(hint)
    if origin not in (list, dict):
        return None
    convert = _converter(args[-1], decoding)
    if origin is dict and args[0] is int:
        key = _int_key if decoding else str
        return lambda value: dict(sorted((key(k), x if convert is None else convert(x)) for k, x in value.items()))
    if convert is None:
        return None
    if origin is list:
        return lambda value: list(map(convert, value))
    return lambda value: {k: convert(x) for k, x in value.items()}


@lru_cache(maxsize=None)
def _schema(cls: type):
    """Each field a cls row stores (not one declared init=False) with its
    JSON types, checker, decoder and type name; each that needs an encoder,
    with it; their names, or None if an object's __dict__ holds just them;
    and whether any needs a decoder."""
    hints = get_type_hints(cls)
    stored = [f.name for f in fields(cls) if f.init]
    checks = tuple(
        (name, _json_types(h), _checker(h), _converter(h, True), str(h) if get_origin(h) else h.__name__)
        for name in stored
        for h in (hints[name],)
    )
    encoders = tuple((name, encode) for name in stored if (encode := _converter(hints[name], False)))
    plain = not hasattr(cls, "__slots__") and all(f.init for f in fields(cls))
    return checks, encoders, None if plain else tuple(stored), any(check[3] for check in checks)


def to_row(obj) -> dict:
    """One artifact dataclass as a JSON-ready dict keyed by its stored fields.

    As deep as the type hints go, datetimes become ISO-8601 text, nested
    dataclasses nested dicts and int keys their text; every other value
    is written as it is.
    """
    _, encoders, named, _ = _schema(type(obj))
    row = dict(vars(obj)) if named is None else {name: getattr(obj, name) for name in named}
    for name, encode in encoders:
        row[name] = encode(row[name])
    return row


def from_row(cls: type, row: dict):
    """Inverse of to_row: rebuild a cls from its row.

    A row whose keys are not cls's stored fields (an artifact written in
    an older format, or edited), or a value that does not fit its field's
    type hint at any depth, raises PipelineError.
    """
    checks, _, _, decodes = _schema(cls)
    decoded = dict(row) if decodes else row
    for name, types, check, decode, type_name in checks:
        if name not in row:
            continue
        value = row[name]
        try:
            if type(value) not in types:
                raise _Mismatch
            if check is not None:
                check([value])
            if decode is not None:
                decoded[name] = decode(value)
        except _Mismatch:
            raise PipelineError(f"{cls.__name__} row has {name} of a type other than {type_name}") from None
        except ValueError as exc:
            raise PipelineError(f"{cls.__name__} row has a timestamp that is not one ({exc})") from exc
    try:
        return cls(**decoded)
    except TypeError as exc:
        raise PipelineError(f"{cls.__name__} row has keys {sorted(row)}, an older or edited format") from exc


@contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temp file beside `path` for writing; on success move it over `path`.

    Readers see the previous file or the whole new one, never a torn
    write: a writer that raises leaves the previous file in place and no
    temp file behind. There is no fsync, so this guards against an
    interrupted process, not against power loss. Text mode writes UTF-8
    with "\n" line ends.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _row_encoder() -> Callable[[dict], str]:
    """json.dumps(row, ensure_ascii=False, sort_keys=True) as one function.

    JSONEncoder.encode builds a new C encoder for every call, so the C
    encoder is built once here, as encode would build it but with no
    circular-reference markers (a row is a tree of dicts and lists).
    Where the C accelerator is missing, encode itself is used.
    """
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    # the arguments JSONEncoder.iterencode passes, markers aside
    encode = json.encoder.c_make_encoder(
        None,
        encoder.default,
        json.encoder.encode_basestring,
        encoder.indent,
        encoder.key_separator,
        encoder.item_separator,
        encoder.sort_keys,
        encoder.skipkeys,
        encoder.allow_nan,
    )
    return lambda row: "".join(encode(row, 0))


_encode_row = _row_encoder()

# rows per write, so a large artifact is never held as one string
_WRITE_CHUNK_ROWS = 1024


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write dicts as one JSON object per line, sorted keys, no ASCII escapes."""
    rows = iter(rows)
    with atomic_open(path) as fh:
        while chunk := list(islice(rows, _WRITE_CHUNK_ROWS)):
            fh.write("\n".join(map(_encode_row, chunk)))
            fh.write("\n")


def write_json(path: str | Path, obj) -> None:
    """Write obj as one indented JSON document, sorted keys, no ASCII escapes."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=1)
        fh.write("\n")


def read_jsonl(path: str | Path) -> list[dict]:
    """Each non-blank line's JSON object; PipelineError at the first line that is not one."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise PipelineError(f"line {lineno} is not valid json") from exc
                if not isinstance(obj, dict):
                    raise PipelineError(f"line {lineno} is not a json object")
                out.append(obj)
    return out


def read_json(path: str | Path) -> dict:
    """The JSON object a file holds; PipelineError if it holds no JSON or another value."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PipelineError(f"not valid json: {exc}") from exc
    if not isinstance(obj, dict):
        raise PipelineError("not a json object")
    return obj
