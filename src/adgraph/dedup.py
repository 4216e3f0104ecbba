"""Near-duplicate detection: minhash candidates, edit-distance verification.

Texts are first collapsed by exact normalized equality, then candidate
pairs among the distinct texts come from minhash signatures bucketed in
LSH bands, and only candidates that pass a length filter and a shingle
count bound are verified with true edit distance, in spanning-forest
rounds.
The numpy kernels behind them live in `kernels`, imported on first call,
so the modules that import this one at load time do not load numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

from .corpus import NormalizedAd
from .errors import ConfigError
from .unionfind import UnionFind

# below this many edges a round verifies pair by pair: one kernel call
# costs about as much as two dozen scalar distances, whatever its size
_BATCH_MIN = 24


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


def _shared_ends(a: str, b: str) -> tuple[int, int]:
    """The lengths of the common prefix and suffix of a and b.

    Shared ends never change the edit distance. Each length is found by
    bisection over slice comparisons, which run in C. The suffix stops
    where the prefix ends, so the two never overlap.
    """
    la, lb = len(a), len(b)
    p, hi = 0, min(la, lb)
    while p < hi:  # a[:p] == b[:p], and the common prefix is at most hi
        mid = (p + hi + 1) // 2
        if a[p:mid] == b[p:mid]:
            p = mid
        else:
            hi = mid - 1
    s, hi = 0, min(la, lb) - p
    while s < hi:
        mid = (s + hi + 1) // 2
        if a[la - mid : la - s] == b[lb - mid : lb - s]:
            s = mid
        else:
            hi = mid - 1
    return p, s


def levenshtein(a: str, b: str) -> int:
    """Exact edit distance (insert, delete, substitute all cost 1).

    Myers' bit-parallel formulation; Python integers serve as unbounded
    bit vectors so long strings need no blocking. The loop runs only
    over the middle left once the common prefix and suffix are trimmed.
    """
    if a == b:
        return 0
    p, s = _shared_ends(a, b)
    a, b = a[p : len(a) - s], b[p : len(b) - s]
    m = len(a)
    if m == 0:
        return len(b)
    if not b:
        return m
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    vp, vn, score = mask, 0, m
    get = peq.get
    for ch in b:
        eq = get(ch, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (~(d0 | vp) & mask)
        hn = vp & d0
        if hp & high:
            score += 1
        elif hn & high:
            score -= 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (~(d0 | hp) & mask)
        vn = hp & d0
    return score


def similarity(a: str, b: str) -> float:
    """1 - levenshtein/max(len); two empty strings count as identical."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def similarities(pairs: Sequence[tuple[str, str]]) -> list[float]:
    """similarity(a, b) for every pair, in input order.

    The distances come from kernels.levenshtein_many, which equals
    levenshtein on every pair, and each is turned into a float by the
    same expression as similarity, so every float is the one similarity
    returns.
    """
    from .kernels import levenshtein_many

    return [
        1.0 - d / max(len(a), len(b)) if a or b else 1.0
        for (a, b), d in zip(pairs, levenshtein_many(pairs))
    ]


def candidate_pairs(ads: Sequence[NormalizedAd], cfg: SimilarityConfig) -> set[tuple[str, str]]:
    """Unordered candidate pairs (id_a < id_b) worth verifying.

    Texts of at least shingle_k chars go through minhash + banding
    (kernels.band_keys, the enumeration deduplicate uses); any band
    collision makes a pair a candidate. Shorter texts are compared by
    exact text equality only.
    """
    from .kernels import band_keys

    texts = [ad.norm_text for ad in ads]
    n = len(ads)
    keys = set(itertools.chain.from_iterable(band.tolist() for band in band_keys(texts, cfg)))
    groups = [divmod(key, n) for key in keys]
    short: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        if len(text) < cfg.shingle_k:
            short.setdefault(text, []).append(i)
    groups += [members for members in short.values() if len(members) > 1]
    pairs: set[tuple[str, str]] = set()
    for members in groups:
        pairs.update(itertools.combinations(sorted({ads[i].ad_id for i in members}), 2))
    return pairs


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
    from .kernels import levenshtein_many, open_pairs

    cfg = cfg or SimilarityConfig()
    seen: set[str] = set()
    groups: dict[str, list[str]] = {}
    for ad in ads:
        if ad.ad_id in seen:
            raise ValueError(f"duplicate ad_id {ad.ad_id!r} in dedup input")
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
    # gives the same partition. Each round verifies a spanning forest of
    # the open pairs over the current clusters, taking pairs in the order
    # open_pairs gives (likeliest first): every pair it verifies is
    # decided, and a pair whose ends a union joins needs no check.
    threshold = cfg.dup_threshold
    a, b = open_pairs(texts, cfg)
    uf = UnionFind(range(len(texts)))
    find = uf.find
    while a:
        forest = UnionFind()
        edges: list[tuple[int, int]] = []
        rest_a: list[int] = []
        rest_b: list[int] = []
        for x, y in zip(a, b):
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            forest.add(rx)
            forest.add(ry)
            if forest.union(rx, ry):
                edges.append((x, y))
            else:
                rest_a.append(x)
                rest_b.append(y)
        strings = [(texts[x], texts[y]) for x, y in edges]
        if len(strings) >= _BATCH_MIN:
            dists = levenshtein_many(strings)
        else:
            dists = [levenshtein(s, t) for s, t in strings]
        for (s, t), (x, y), d in zip(strings, edges, dists):
            if 1.0 - d / max(len(s), len(t)) >= threshold:
                uf.union(x, y)
        a, b = rest_a, rest_b

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
