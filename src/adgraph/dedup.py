"""Near-duplicate detection: minhash candidates, edit-distance verification.

Texts are first collapsed by exact normalized equality, then candidate
pairs among the distinct texts come from minhash signatures bucketed in
LSH bands, and only candidates that pass a length filter and a shingle
count bound are verified with true edit distance, in two passes.
The numpy kernels behind them live in `kernels`, imported on first call,
so the modules that import this one at load time do not load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

from .corpus import NormalizedAd
from .errors import ConfigError, InconsistentInput
from .unionfind import UnionFind


@dataclass(frozen=True)
class SimilarityConfig:
    """Knobs for shingling, minhash, banding, and duplicate verification."""

    shingle_k: int = 5
    num_signatures: int = 128
    bands: int = 32
    dup_threshold: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shingle_k < 1:
            raise ConfigError("shingle_k must be >= 1")
        if self.num_signatures < 1:
            raise ConfigError("num_signatures must be >= 1")
        if self.bands < 1 or self.num_signatures % self.bands != 0:
            raise ConfigError("bands must be >= 1 and divide num_signatures")
        if not 0.0 < self.dup_threshold <= 1.0:
            raise ConfigError("dup_threshold must be in (0, 1]")

    @property
    def rows_per_band(self) -> int:
        return self.num_signatures // self.bands


def similarities(pairs: Sequence[tuple[str, str]]) -> list[float]:
    """1 - edit distance / max(len) for every pair, in input order; two
    empty strings count as identical. The distances come from
    kernels.levenshtein_many.
    """
    from .kernels import levenshtein_many

    return [
        1.0 - d / max(len(a), len(b)) if a or b else 1.0
        for (a, b), d in zip(pairs, levenshtein_many(pairs))
    ]


@dataclass
class DuplicateCluster:
    """A set of mutually duplicate ads and its chosen representative."""

    canonical_id: str
    member_ids: list[str]
    method: str  # "exact" when all members share one normalized text, else "near"


def deduplicate(
    ads: Sequence[NormalizedAd],
    cfg: SimilarityConfig | None = None,
    posted_at: Mapping[str, datetime] | None = None,
) -> list[DuplicateCluster]:
    """Cluster ads whose normalized texts are exact or near duplicates.

    Near-duplicate merges require verified similarity >= dup_threshold
    and chain transitively. The canonical member is the earliest
    posted_at when given (ties, or no timestamps: lowest ad_id).
    """
    from .kernels import open_pairs

    cfg = cfg or SimilarityConfig()
    seen: set[str] = set()
    groups: dict[str, list[str]] = {}
    for ad in ads:
        if ad.ad_id in seen:
            raise InconsistentInput("normalized", f"duplicate ad_id {ad.ad_id!r} in dedup input")
        seen.add(ad.ad_id)
        groups.setdefault(ad.norm_text, []).append(ad.ad_id)
    del seen  # freed before the filters' arrays are made

    def sort_key(ad_id: str):
        if posted_at is not None and ad_id in posted_at:
            return (0, posted_at[ad_id], ad_id)
        return (1, None, ad_id) if posted_at else (0, 0, ad_id)

    # the distinct texts, in the ad_id order of their representatives
    texts = [text for _, text in sorted((min(ids, key=sort_key), text) for text, ids in groups.items())]

    # Clusters are the transitive closure of verified candidate edges, so
    # any order that proves every edge between two final clusters false
    # gives the same partition. Pass 1 verifies a spanning forest of the
    # open pairs, taken in the order open_pairs gives (likeliest first).
    # Pass 2 verifies every other open pair whose texts pass 1 left in
    # two clusters; a pair whose texts already share one needs no check.
    threshold = cfg.dup_threshold
    uf = UnionFind(range(len(texts)))

    def verify(edges: list[tuple[int, int]]) -> None:
        for (x, y), sim in zip(edges, similarities([(texts[x], texts[y]) for x, y in edges])):
            if sim >= threshold:
                uf.union(x, y)

    forest = UnionFind()
    edges: list[tuple[int, int]] = []
    rest: list[tuple[int, int]] = []
    for x, y in zip(*open_pairs(texts, cfg)):
        forest.add(x)
        forest.add(y)
        (edges if forest.union(x, y) else rest).append((x, y))
    verify(edges)
    verify([(x, y) for x, y in rest if uf.find(x) != uf.find(y)])

    clusters: list[DuplicateCluster] = []
    for members in uf.groups().values():
        all_ids: list[str] = []
        for i in members:
            all_ids.extend(groups[texts[i]])
        all_ids.sort()
        canonical = min(all_ids, key=sort_key)
        method = "near" if len(members) > 1 else "exact"
        clusters.append(DuplicateCluster(canonical_id=canonical, member_ids=all_ids, method=method))
    clusters.sort(key=lambda c: c.canonical_id)
    return clusters
