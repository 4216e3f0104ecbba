"""The numpy kernels of dedup and pair scoring: shingle hashing, minhash
banding and batched edit distance.

This is the package's only numpy import. `dedup` imports it on first
call, so only the dedup and label-oad stages load numpy; every other
command, and any stage skipped as up to date, starts without it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dedup import SimilarityConfig, _trim

_U64 = np.uint64
_HASH_BASE = _U64(1099511628211)
_MIX1 = _U64(0xFF51AFD7ED558CCD)
_MIX2 = _U64(0xC4CEB9FE1A85EC53)
_SHIFT33 = _U64(33)

# pairs that levenshtein_many advances together: every text column costs
# the same few dozen numpy calls whatever the block's size
_BLOCK = 256
# pairs whose match-table rows are built at once, which bounds the
# transient arrays of a block's set-up
_TABLE_PAIRS = 16
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def levenshtein_many(pairs: Sequence[tuple[str, str]]) -> list[int]:
    """dedup.levenshtein(a, b) for every pair, in input order.

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


# code points hashed per shingle_hashes_many pass, which bounds its
# transient arrays; a longer text is hashed in a pass of its own
_SHINGLE_BUDGET = 16384


def shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct 64-bit hashes of the k-char shingles of text."""
    return shingle_hashes_many([text], k)[0]


def shingle_hashes_many(texts: Sequence[str], k: int) -> list[np.ndarray]:
    """shingle_hashes(text, k) for every text, in input order.

    The texts' code points are concatenated, about _SHINGLE_BUDGET at a
    time, and rolled and mixed in one pass. A window that crosses from
    one text into the next is hashed too but never kept: each text's
    windows are a slice of the pass, sorted in place, and a hash is kept
    where it starts the slice or differs from its left neighbour. Every
    step is elementwise uint64 arithmetic, so each text gets the sorted
    distinct hashes that a pass over it alone gives.
    """
    out: list[np.ndarray] = []
    lo = 0
    while lo < len(texts):
        hi, size = lo + 1, len(texts[lo])
        while hi < len(texts) and size + len(texts[hi]) <= _SHINGLE_BUDGET:
            size += len(texts[hi])
            hi += 1
        out.extend(_shingle_pass(texts[lo:hi], k))
        lo = hi
    return out


def _shingle_pass(texts: Sequence[str], k: int) -> list[np.ndarray]:
    ends = np.cumsum([len(t) for t in texts]).tolist()
    # each text's windows, empty for a text shorter than k
    spans = [(end - len(t), max(end - len(t), end - k + 1)) for t, end in zip(texts, ends)]
    cps = _codepoints(texts).astype(_U64)
    n = len(cps) - k + 1
    if n <= 0:
        return [np.empty(0, dtype=_U64) for _ in texts]
    acc = cps[:n].copy()
    for j in range(1, k):
        acc *= _HASH_BASE
        acc += cps[j : j + n]
    # bijective avalanche so band buckets do not cluster on low bits
    acc ^= acc >> _SHIFT33
    acc *= _MIX1
    acc ^= acc >> _SHIFT33
    acc *= _MIX2
    acc ^= acc >> _SHIFT33
    for lo, hi in spans:
        acc[lo:hi].sort()
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(acc[1:], acc[:-1], out=keep[1:])
    for lo, hi in spans:
        if lo < hi:
            keep[lo] = True
    return [acc[lo:hi][keep[lo:hi]] for lo, hi in spans]


def shared_count(a: np.ndarray, b: np.ndarray) -> int:
    """How many hashes two shingle_hashes results share."""
    return np.intersect1d(a, b, assume_unique=True).size


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


def buckets(texts: Sequence[str], shingles: Sequence[np.ndarray], cfg: SimilarityConfig):
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
