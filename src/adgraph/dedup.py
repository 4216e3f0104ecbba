"""Near-duplicate detection: minhash candidates, edit-distance verification.

Texts are first collapsed by exact normalized equality, then candidate
pairs among the distinct texts come from minhash signatures bucketed in
LSH bands, and only candidates are verified with true edit distance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .corpus import NormalizedAd
from .errors import ConfigError
from .unionfind import UnionFind

_U64 = np.uint64
_HASH_BASE = _U64(1099511628211)
_MIX1 = _U64(0xFF51AFD7ED558CCD)
_MIX2 = _U64(0xC4CEB9FE1A85EC53)
_SHIFT33 = _U64(33)


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

    The distances come from levenshtein_many, which equals levenshtein
    on every pair, and each is turned into a float by the same
    expression as similarity, so every float is the one similarity
    returns.
    """
    return [
        1.0 - d / max(len(a), len(b)) if a or b else 1.0
        for (a, b), d in zip(pairs, levenshtein_many(pairs))
    ]


# pairs that levenshtein_many advances together: every text column costs
# the same few dozen numpy calls whatever the block's size
_BLOCK = 256
# pairs whose match-table rows are built at once, which bounds the
# transient arrays of a block's set-up
_TABLE_PAIRS = 16
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def levenshtein_many(pairs: Sequence[tuple[str, str]]) -> list[int]:
    """levenshtein(a, b) for every pair, in input order.

    Myers' recurrence run for many pairs at once, each bit vector split
    into 64-bit words (Hyyro 2003). A pair's common prefix and suffix
    are trimmed as in levenshtein, and the shorter middle is the
    pattern. Pairs, longest text first, go in blocks of _BLOCK, and a
    block's pairs advance one text column at a time as rows of
    (pairs x words) uint64 arrays, the addition and both left shifts
    carrying between words. Bits above a pattern's length only ever
    feed higher bits, so they never reach the result. The last DP row
    is len(text) plus the pattern column's vertical deltas, so each
    distance is len(text) + popcount(VP) - popcount(VN) over the
    pattern's bits. All of it is exact integer arithmetic, so every
    distance equals levenshtein's.
    """
    out = [0] * len(pairs)
    todo: list[tuple[int, str, str]] = []
    for i, (a, b) in enumerate(pairs):
        if a == b:
            continue
        a, b = _trim(a, b)
        if len(a) > len(b):
            a, b = b, a
        if a:
            todo.append((i, a, b))
        else:
            out[i] = len(b)
    # longest text first, so the pairs of a block still running are a prefix
    todo.sort(key=lambda t: -len(t[2]))
    for lo in range(0, len(todo), _BLOCK):
        block = todo[lo : lo + _BLOCK]
        dists = _myers_block([t[1] for t in block], [t[2] for t in block])
        for (i, _, _), d in zip(block, dists.tolist()):
            out[i] = d
    return out


def _codepoints(texts: Sequence[str]) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)


def _match_rows(
    patterns: Sequence[str], texts: Sequence[str], peq: np.ndarray, base: int
) -> np.ndarray:
    """Fill the pattern-match rows of these pairs; each text character's row.

    peq[base:] gets one row per distinct (pair, character) of the
    patterns, keyed pair << 21 | code point, with the bit of every
    position where the character occurs. A text character's row is
    that row's index, or 0 when its pattern lacks the character.
    """
    m = np.array([len(p) for p in patterns], dtype=np.int64)
    n = np.array([len(t) for t in texts], dtype=np.int64)
    pair = np.arange(len(patterns), dtype=np.int64) << 21
    keys, row = np.unique(np.repeat(pair, m) | _codepoints(patterns), return_inverse=True)
    pos = np.arange(len(row), dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
    np.bitwise_or.at(peq, (row + base, pos >> 6), np.uint64(1) << (pos & 63).astype(np.uint64))
    del row, pos
    tkeys = np.repeat(pair, n) | _codepoints(texts)
    hit = np.minimum(np.searchsorted(keys, tkeys), len(keys) - 1)
    return np.where(keys[hit] == tkeys, hit + base, 0)


def _myers_block(patterns: Sequence[str], texts: Sequence[str]) -> np.ndarray:
    """Edit distance of each non-empty pattern and its text, texts longest first."""
    k = len(patterns)
    m = np.array([len(p) for p in patterns], dtype=np.int64)
    n = np.array([len(t) for t in texts], dtype=np.int64)
    words = (int(m.max()) + 63) >> 6
    one = np.uint64(1)

    # one match-table row per distinct (pair, character) of the patterns,
    # after row 0, which matches nothing; the texts' characters as rows,
    # pair after pair
    distinct = np.cumsum([1] + [len(set(p)) for p in patterns])
    peq = np.zeros((int(distinct[-1]), words), dtype=np.uint64)
    start = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(n, out=start[1:])
    rows = np.empty(int(start[-1]), dtype=np.min_scalar_type(len(peq)))
    for lo in range(0, k, _TABLE_PAIRS):
        hi = min(lo + _TABLE_PAIRS, k)
        rows[start[lo] : start[hi]] = _match_rows(patterns[lo:hi], texts[lo:hi], peq, int(distinct[lo]))
    start = start[:-1]
    # pairs still running at each text column: a prefix, texts being sorted
    active = k - np.searchsorted(n[::-1], np.arange(n[0]), side="right")

    vp = np.full(k * words, _ONES)
    vn = np.zeros(k * words, dtype=np.uint64)
    lead = np.zeros(k * words, dtype=np.uint64)
    lead[::words] = one  # the top DP row grows by one per column
    # a carry out of a pair's last pattern word could only reach bits
    # above the pattern, so it is dropped there
    inner = (np.arange(words) < ((m + 63) >> 6)[:, None] - 1).ravel()
    s63 = np.uint64(63)
    for j, kj in enumerate(active.tolist()):
        size = kj * words
        eq = peq.take(rows.take(start[:kj] + j), axis=0).ravel()
        v, w = vp[:size], vn[:size]
        s = eq & v
        s += v
        if words > 1:
            carry = s < v
            carry &= inner[:size]
            _carry(s, carry, inner[:size])
        d0 = s ^ v
        d0 |= eq
        d0 |= w
        hp = d0 | v
        np.invert(hp, out=hp)
        hp |= w
        hn = v & d0
        hps = hp << one
        hps |= lead[:size]
        hns = hn << one
        if words > 1:
            hps[1:] |= hp[:-1] >> s63
            up = hn[:-1] >> s63
            up *= inner[: size - 1]
            hns[1:] |= up
        np.bitwise_or(d0, hps, out=v)
        np.invert(v, out=v)
        v |= hns
        np.bitwise_and(hps, d0, out=w)

    bits = np.clip(m[:, None] - 64 * np.arange(words), 0, 64)
    mask = np.where(bits == 64, _ONES, (one << np.minimum(bits, 63).astype(np.uint64)) - one)
    vp = vp.reshape(k, words) & mask
    vn = vn.reshape(k, words) & mask
    return n + _popcount(vp) - _popcount(vn)


def _carry(s: np.ndarray, carry: np.ndarray, inner: np.ndarray) -> None:
    """Add to each word of s the carry into it from the word below.

    carry[i] is the carry out of word i, False where it is dropped. A
    carry ripples on through a word of all ones, so the chain is solved
    as one integer addition over one bit per word: with generate bits G
    (carry) and propagate bits P (words of all ones that pass a carry
    on), the carries into the words are ((G | P) + G) ^ P.
    """
    full = s == _ONES
    full &= inner
    g = int.from_bytes(np.packbits(carry, bitorder="little").tobytes(), "little")
    p = int.from_bytes(np.packbits(full, bitorder="little").tobytes(), "little")
    into = ((g | p) + g) ^ p
    nbytes = (len(s) + 8) // 8
    s += np.unpackbits(
        np.frombuffer(into.to_bytes(nbytes, "little"), dtype=np.uint8), count=len(s), bitorder="little"
    )


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-d uint64 array (np.bitwise_count needs numpy 2)."""
    return _POPCOUNT8[x.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct 64-bit hashes of the k-char shingles of text."""
    if len(text) < k:
        return np.empty(0, dtype=_U64)
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(_U64)
    n = len(cps) - k + 1
    acc = np.zeros(n, dtype=_U64)
    for j in range(k):
        acc = acc * _HASH_BASE + cps[j : j + n]
    # bijective avalanche so band buckets do not cluster on low bits
    acc ^= acc >> _SHIFT33
    acc *= _MIX1
    acc ^= acc >> _SHIFT33
    acc *= _MIX2
    acc ^= acc >> _SHIFT33
    return np.unique(acc)


def _hash_params(cfg: SimilarityConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    mult = rng.integers(0, 2**63, size=cfg.num_signatures, dtype=np.uint64)
    mult = mult * _U64(2) + _U64(1)  # odd multiplier keeps the map bijective mod 2^64
    add = rng.integers(0, 2**63, size=cfg.num_signatures, dtype=np.uint64)
    return mult, add


def _signature_matrix(shingles: Sequence[np.ndarray], cfg: SimilarityConfig) -> np.ndarray:
    """One minhash signature row per non-empty shingle array.

    Each row is its own (shingles x num_signatures) product, so the
    temporary stays the size of one text's shingle set.
    """
    mult, add = _hash_params(cfg)
    sigs = np.empty((len(shingles), cfg.num_signatures), dtype=_U64)
    for row, arr in zip(sigs, shingles):
        np.min(arr[:, None] * mult + add, axis=0, out=row)
    return sigs


def _buckets(texts: Sequence[str], shingles: Sequence[np.ndarray], cfg: SimilarityConfig):
    """Yield each group (ascending indices, two or more) of candidate texts.

    Texts with shingles go through minhash + banding: a group is the
    texts whose signatures agree on every row of one band, found by
    sorting the band's rows as fixed-width byte keys, so only exact
    equality buckets. Texts without shingles (shorter than shingle_k)
    group by exact text equality only. A pair may share many groups.
    """
    long_ids: list[int] = []
    short: dict[str, list[int]] = {}
    for i, arr in enumerate(shingles):
        if arr.size:
            long_ids.append(i)
        else:
            short.setdefault(texts[i], []).append(i)
    if len(long_ids) > 1:
        sigs = _signature_matrix([shingles[i] for i in long_ids], cfg)
        ids = np.array(long_ids, dtype=np.intp)
        rows = cfg.rows_per_band
        for band in range(cfg.bands):
            keys = np.ascontiguousarray(sigs[:, band * rows : (band + 1) * rows])
            keys = keys.view(np.dtype((np.void, keys.dtype.itemsize * rows))).ravel()
            # stable, so members of a bucket stay in ascending index order
            order = np.argsort(keys, kind="stable")
            ordered = keys[order]
            starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
            for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
                if hi - lo > 1:
                    yield ids[order[lo:hi]].tolist()
    for members in short.values():
        if len(members) > 1:
            yield members


def candidate_pairs(ads: Sequence[NormalizedAd], cfg: SimilarityConfig) -> set[tuple[str, str]]:
    """Unordered candidate pairs (id_a < id_b) worth verifying.

    Texts of at least shingle_k chars go through minhash + banding; any
    band collision makes a pair a candidate. Shorter texts are compared
    by exact text equality only.
    """
    texts = [ad.norm_text for ad in ads]
    shingles = [_shingle_hashes(t, cfg.shingle_k) for t in texts]
    pairs: set[tuple[str, str]] = set()
    for members in _buckets(texts, shingles, cfg):
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
    shingles = [_shingle_hashes(t, k) for t in texts]

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
            inter = np.intersect1d(sa, sb, assume_unique=True).size
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
    for members in _buckets(texts, shingles, cfg):
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
