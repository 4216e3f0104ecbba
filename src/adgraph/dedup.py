"""Near-duplicate detection: minhash candidates, edit-distance verification.

Texts are first collapsed by exact normalized equality, then candidate
pairs among the distinct texts come from minhash signatures bucketed in
LSH bands, and only candidates are verified with true edit distance.
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


def _trim(a: str, b: str) -> tuple[str, str]:
    """a and b without their common prefix and suffix.

    Shared ends never change the edit distance. The suffix stops where
    the prefix ends, so the two never overlap.
    """
    n = min(len(a), len(b))
    p = 0
    while p < n and a[p] == b[p]:
        p += 1
    n -= p
    s = 0
    while s < n and a[-1 - s] == b[-1 - s]:
        s += 1
    return a[p : len(a) - s], b[p : len(b) - s]


def levenshtein(a: str, b: str) -> int:
    """Exact edit distance (insert, delete, substitute all cost 1).

    Myers' bit-parallel formulation; Python integers serve as unbounded
    bit vectors so long strings need no blocking. The loop runs only
    over the middle left once the common prefix and suffix are trimmed.
    """
    if a == b:
        return 0
    a, b = _trim(a, b)
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

    Texts of at least shingle_k chars go through minhash + banding; any
    band collision makes a pair a candidate. Shorter texts are compared
    by exact text equality only.
    """
    from .kernels import buckets, shingle_hashes_many

    texts = [ad.norm_text for ad in ads]
    shingles = shingle_hashes_many(texts, cfg.shingle_k)
    pairs: set[tuple[str, str]] = set()
    for members in buckets(texts, shingles, cfg):
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
    from .kernels import buckets, shared_count, shingle_hashes_many

    cfg = cfg or SimilarityConfig()
    seen: set[str] = set()
    for ad in ads:
        if ad.ad_id in seen:
            raise ValueError(f"duplicate ad_id {ad.ad_id!r} in dedup input")
        seen.add(ad.ad_id)

    groups: dict[str, list[str]] = {}
    by_id: dict[str, NormalizedAd] = {}
    for ad in ads:
        groups.setdefault(ad.norm_text, []).append(ad.ad_id)
        by_id[ad.ad_id] = ad

    def sort_key(ad_id: str):
        if posted_at is not None and ad_id in posted_at:
            return (0, posted_at[ad_id], ad_id)
        return (1, None, ad_id) if posted_at else (0, 0, ad_id)

    reps: list[NormalizedAd] = []
    for text in groups:
        groups[text].sort()
        rep_id = min(groups[text], key=sort_key)
        reps.append(by_id[rep_id])
    reps.sort(key=lambda ad: ad.ad_id)

    threshold = cfg.dup_threshold
    k = cfg.shingle_k
    texts = [ad.norm_text for ad in reps]
    shingles = shingle_hashes_many(texts, k)

    def verified(a: int, b: int, longest: int) -> bool:
        # One edit changes at most shingle_k members of a text's shingle
        # set, so similarity >= threshold (edit distance <= d_allow)
        # forces exact shingle-set Jaccard >= j_min. Measuring a Jaccard
        # below that floor proves the pair fails verification, skipping
        # the far costlier edit-distance computation; the bound is
        # vacuous (lo <= 0) for loose thresholds and then never skips.
        # Both texts have shingles: reps too short for any are distinct
        # texts, so they never share a group.
        sa, sb = shingles[a], shingles[b]
        d_allow = (1.0 - threshold) * longest
        m = float(max(sa.size, sb.size))
        lo = m - k * d_allow
        if lo > 0.0:
            inter = shared_count(sa, sb)
            union = sa.size + sb.size - inter
            j_min = lo / (m + k * d_allow)
            if inter / union < j_min - 1e-9:
                return False
        return 1.0 - levenshtein(texts[a], texts[b]) / longest >= threshold

    # Clusters are the transitive closure of verified candidate edges, so
    # the order pairs are visited in cannot change them: a pair already
    # connected needs no check, and a pair that failed once (in another
    # band) fails again.
    n = len(reps)
    uf = UnionFind(range(n))
    find = uf.find
    failed: set[int] = set()
    for members in buckets(texts, shingles, cfg):
        if len({find(i) for i in members}) == 1:
            continue
        for x, a in enumerate(members):
            for b in members[x + 1 :]:
                if find(a) == find(b):
                    continue
                # the length filter costs no more than a lookup in
                # `failed`, so only the costlier verdicts are remembered
                la, lb = len(texts[a]), len(texts[b])
                longest = max(la, lb)
                if 1.0 - abs(la - lb) / longest < threshold:
                    continue
                key = a * n + b
                if key in failed:
                    continue
                if verified(a, b, longest):
                    uf.union(a, b)
                else:
                    failed.add(key)

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
