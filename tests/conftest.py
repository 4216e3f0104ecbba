from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from adgraph import corpus, extract, graph


def make_record(
    ad_id: str,
    text: str = "hello",
    title: str = "",
    posted: str = "2024-01-01T00:00:00+00:00",
    locations: list[str] | None = None,
    declared_phone: str | None = None,
    source: str = "site_a",
) -> corpus.AdRecord:
    return corpus.AdRecord(
        ad_id=ad_id,
        title=title,
        description=text,
        posted_at=corpus.parse_timestamp(posted),
        locations=locations or [],
        declared_phone=declared_phone,
        source=source,
    )


def make_norm(ad_id: str, text: str, **kw) -> corpus.NormalizedAd:
    return corpus.normalize(make_record(ad_id, text, **kw))


def record_identifiers(record: corpus.AdRecord, norm: corpus.NormalizedAd) -> list:
    """extract_identifiers on one ingested record, as the extract stage calls it."""
    original = corpus.build_original_text(record.title, record.description)
    return extract.extract_identifiers(record.declared_phone, original, norm.norm_text)


def graph_of(clusters, ids_by_ad=None, locations=None, quarantine_cap=None) -> graph.RelatednessGraph:
    """build_graph on identifiers and locations given per ad, passed as the
    identifier rows and the records that the graph stage reads."""
    rows = [
        extract.AdIdentifier(ad_id, i.kind, i.raw, i.canonical, i.start, i.end)
        for ad_id, idents in (ids_by_ad or {}).items()
        for i in idents
    ]
    records = [make_record(ad_id, locations=locs) for ad_id, locs in (locations or {}).items()]
    return graph.build_graph(clusters, rows, records, quarantine_cap)


def ad_texts(text: str, title: str = "") -> tuple[str, str]:
    """An ad's original text and its normalized form, as extraction reads them."""
    original = corpus.build_original_text(title, text)
    return original, corpus.normalize_text(original)


def ts(minute: int) -> datetime:
    return datetime(2024, 1, 1, 0, minute, tzinfo=timezone.utc)


def write_corpus(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def corpus_row(ad_id: str, description: str = "hello there", **kw) -> dict:
    row = {
        "ad_id": ad_id,
        "title": kw.pop("title", ""),
        "description": description,
        "posted_at": kw.pop("posted_at", "2024-01-01T00:00:00+00:00"),
        "locations": kw.pop("locations", []),
        "declared_phone": kw.pop("declared_phone", None),
        "source": kw.pop("source", "site_a"),
    }
    row.update(kw)
    return row


@pytest.fixture
def data_dir() -> Path:
    return Path(__file__).parent / "data"
