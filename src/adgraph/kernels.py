"""The numpy kernels of dedup and pair scoring: shingle hashing, minhash
banding, the candidate filters and batched edit distance.

This is the package's only numpy import. `dedup` imports it on first
call, so only the dedup and label-oad stages load numpy; every other
command, and any stage skipped as up to date, starts without it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dedup import SimilarityConfig

_U64 = np.uint64
_HASH_BASE = _U64(1099511628211)
_MIX1 = _U64(0xFF51AFD7ED558CCD)
_MIX2 = _U64(0xC4CEB9FE1A85EC53)
_SHIFT33 = _U64(33)
_BAND_MIX = _U64(0x9E3779B97F4A7C15)

# pairs that levenshtein_many advances together: every text column costs
# the same few dozen numpy calls whatever the block's size
_BLOCK = 256
# characters, and (pair, character) keys, whose match-table rows are
# built at once, which bounds the transient arrays of a block's set-up
_TABLE_CHARS = 1 << 13
_TABLE_KEYS = 1 << 18
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)  # numpy >= 2


def levenshtein_many(pairs: Sequence[tuple[str, str]]) -> list[int]:
    """The exact edit distance (insert, delete, substitute all cost 1) of
    every pair, in input order.

    Myers' bit-parallel recurrence (1999) run for many pairs at once,
    each bit vector split into 64-bit words (Hyyro 2003). A pair's common
    prefix and suffix never change its distance, so they are trimmed
    (_shared_ends), and the shorter middle is the pattern. Pairs,
    longest text first, go in blocks of _BLOCK, and a block's pairs
    advance one text column at a time as rows of (pairs x words) uint64
    arrays, the addition and both left shifts carrying between words.
    Bits above a pattern's length only ever feed higher bits, so they
    never reach the result. The last DP row is len(text) plus the
    pattern column's vertical deltas, so each distance is len(text) +
    popcount(VP) - popcount(VN) over the pattern's bits. All of it is
    exact integer arithmetic.
    """
    out = [0] * len(pairs)
    # (text length, pattern length, pair, shared prefix, shared suffix):
    # the middles themselves are sliced only while a block's match table
    # is built, a few thousand characters at a time
    todo: list[tuple[int, int, int, int, int]] = []
    for i, (a, b) in enumerate(pairs):
        if a == b:
            continue
        p, s = _shared_ends(a, b)
        m, n = len(a) - p - s, len(b) - p - s
        if m and n:
            todo.append((max(m, n), min(m, n), i, p, s))
        else:
            out[i] = m + n
    # longest text first, so the pairs of a block still running are a prefix
    todo.sort(key=lambda t: -t[0])
    for lo in range(0, len(todo), _BLOCK):
        block = todo[lo : lo + _BLOCK]
        for t, d in zip(block, _myers_block(pairs, block).tolist()):
            out[t[2]] = d
    return out


def _shared_ends(a: str, b: str) -> tuple[int, int]:
    """The lengths of the common prefix and suffix of a and b.

    Each length is found by bisection over slice comparisons, which run
    in C. The suffix stops where the prefix ends, so the two never
    overlap.
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


def _codepoints(texts: Sequence[str]) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)


def _spans(sizes: Sequence[int], budget: int):
    """Yield (lo, hi) over consecutive items, each span holding items of
    total size at most budget, or one item that alone exceeds it."""
    lo = 0
    while lo < len(sizes):
        hi, total = lo + 1, sizes[lo]
        while hi < len(sizes) and total + sizes[hi] <= budget:
            total += sizes[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _middles(pairs: Sequence[tuple[str, str]], entries) -> tuple[list[str], list[str]]:
    """The patterns and texts of these levenshtein_many entries."""
    patterns, texts = [], []
    for _, _, i, p, s in entries:
        a, b = pairs[i]
        a, b = a[p : len(a) - s], b[p : len(b) - s]
        if len(a) > len(b):
            a, b = b, a
        patterns.append(a)
        texts.append(b)
    return patterns, texts


def _match_table(pairs, block, m: np.ndarray, n: np.ndarray, words: int):
    """A block's match table; each text character's row in its segment,
    pair after pair; and each pair's segment.

    The pairs are cut into spans of about _TABLE_CHARS characters, which
    bounds the transient arrays, and each span owns a segment of the
    table. A segment's row 0 matches nothing. After it comes one row per
    (pair, character) of the span's patterns, with the bit of every
    position where the character occurs, and a text character's row is
    its pattern's row for that character, or 0. A span whose (pair,
    character) keys would exceed _TABLE_KEYS is cut in two.
    """
    pstart = np.concatenate(([0], np.cumsum(m))).tolist()
    tstart = np.concatenate(([0], np.cumsum(n))).tolist()
    todo = list(_spans((m + n).tolist(), _TABLE_CHARS))[::-1]
    longest = max(pstart[hi] - pstart[lo] for lo, hi in todo)
    # a segment's rows are at most its span's pattern characters, plus one
    prows = np.empty(pstart[-1], dtype=np.min_scalar_type(longest + 1))
    trows = np.empty(tstart[-1], dtype=prows.dtype)
    # scratch space indexed by code point, holding pattern positions; int16
    # keeps it under the 4 MB from which numpy asks for huge pages, so a
    # write makes a 4 KB page resident, not a 2 MB one
    lut = np.empty(0x110000, dtype=np.int16 if longest < 1 << 15 else np.int32)
    segment = np.empty(len(block), dtype=np.int64)
    spans, made = [], 0
    while todo:
        lo, hi = todo.pop()
        patterns, texts = _middles(pairs, block[lo:hi])
        pc, tc = _codepoints(patterns), _codepoints(texts)
        del patterns, texts
        # dense ids by lookup: once written, lut gives each occurrence of
        # a code point the same one of its pattern positions, or -1 where
        # no pattern holds it, which reads id 0
        lut[tc] = -1
        lut[pc] = np.arange(len(pc), dtype=lut.dtype)
        at = lut[pc]
        ids = np.zeros(len(pc) + 1, dtype=np.int32)
        ids[at] = 1
        np.cumsum(ids[:-1], out=ids[:-1])
        width = int(ids[-2]) + 1
        if (hi - lo) * width > _TABLE_KEYS and hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]
            continue
        # key pair * width + id; each key a pattern holds gets the next row
        offset = np.arange(0, (hi - lo) * width, width, dtype=np.int64)
        pkeys = np.repeat(offset, m[lo:hi]) + ids[at]
        tkeys = np.repeat(offset, n[lo:hi]) + ids[lut[tc]]
        del pc, tc, at, ids, offset
        held = np.zeros((hi - lo) * width, dtype=bool)
        held[pkeys] = True
        row = np.cumsum(held, dtype=np.int32)
        spans.append((lo, hi, made))
        segment[lo:hi] = made
        made += int(row[-1]) + 1
        row *= held
        prows[pstart[lo] : pstart[hi]] = row[pkeys]
        trows[tstart[lo] : tstart[hi]] = row[tkeys]
    peq = np.zeros((made, words), dtype=np.uint64)
    flat = peq.reshape(-1)
    for lo, hi, base in spans:
        pos = np.arange(pstart[lo], pstart[hi], dtype=np.int64) - np.repeat(pstart[lo:hi], m[lo:hi])
        at = (prows[pstart[lo] : pstart[hi]].astype(np.int64) + base) * words + (pos >> 6)
        # a pattern's positions are distinct bits, so adding them is or-ing
        np.add.at(flat, at, np.uint64(1) << (pos & 63).astype(np.uint64))
    return peq, trows, segment


def _myers_block(pairs, block) -> np.ndarray:
    """Edit distance of each levenshtein_many entry of the block, texts
    longest first."""
    k = len(block)
    n = np.array([t[0] for t in block], dtype=np.int64)
    m = np.array([t[1] for t in block], dtype=np.int64)
    words = (int(m.max()) + 63) >> 6
    one = np.uint64(1)
    peq, rows, segment = _match_table(pairs, block, m, n, words)
    start = np.zeros(k, dtype=np.int64)
    np.cumsum(n[:-1], out=start[1:])
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
        eq = peq.take(segment[:kj] + rows.take(start[:kj] + j), axis=0).ravel()
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
    """Set bits per row of a 2-d uint64 array; a byte table before numpy 2."""
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(x).sum(axis=1, dtype=np.int64)
    return _POPCOUNT8[x.view(np.uint8)].sum(axis=1, dtype=np.int64)


# code points hashed per shingle_hashes_many pass, which bounds its
# transient arrays; a longer text is hashed in a pass of its own
_SHINGLE_BUDGET = 16384


def shingle_hashes_many(texts: Sequence[str], k: int) -> list[np.ndarray]:
    """The distinct 64-bit hashes of each text's k-char shingles, sorted,
    for every text, in input order.

    The texts' code points are concatenated, about _SHINGLE_BUDGET at a
    time, and rolled and mixed in one pass. A window that crosses from
    one text into the next is hashed too but never kept: each text's
    windows are a slice of the pass, sorted in place, and a hash is kept
    where it starts the slice or differs from its left neighbour. Every
    step is elementwise uint64 arithmetic, so each text gets the sorted
    distinct hashes that a pass over it alone gives.
    """
    out: list[np.ndarray] = []
    for lo, hi in _spans([len(t) for t in texts], _SHINGLE_BUDGET):
        out.extend(_shingle_pass(texts[lo:hi], k))
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


# bins of a text's sketch, one bit each; texts sketched at once, and
# pairs compared at once, which bound the transient arrays
_SKETCH_BINS = 4096
_SKETCH_ROWS = 64
_SKETCH_PAIRS = 1024
# texts whose shingles are hashed and signed at once; shingles whose
# signature products are made at once (256-row tiles, 256 KB each, raised
# the chain's peak RSS); and candidate keys length-filtered at once
_SIGN_TEXTS = 256
_SIGN_CHUNK = 128
_FILTER_KEYS = 1 << 16


def _count_sketch(texts: Sequence[str], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per text: its bin counts capped at one bit, its excess, and its size.

    A shingle hash falls in bin hash % _SKETCH_BINS. A bin's bit says
    whether the text has a hash there; the excess is the hashes those
    bits cannot show (size minus the set bits), so the bits plus the
    excess account for all the text's distinct shingles.
    """
    words = (_SKETCH_BINS + 63) // 64
    bits = np.zeros((len(texts), words), dtype=_U64)
    excess = np.zeros(len(texts), dtype=np.int64)
    sizes = np.zeros(len(texts), dtype=np.int64)
    for lo in range(0, len(texts), _SKETCH_ROWS):
        part = shingle_hashes_many(texts[lo : lo + _SKETCH_ROWS], k)
        hi = lo + len(part)
        sizes[lo:hi] = [arr.size for arr in part]
        present = np.zeros((len(part), 64 * words), dtype=bool)
        row = np.repeat(np.arange(len(part)), sizes[lo:hi])
        present[row, (np.concatenate(part) % _U64(_SKETCH_BINS)).astype(np.intp)] = True
        excess[lo:hi] = sizes[lo:hi] - present.sum(axis=1)
        bits[lo:hi] = np.packbits(present, axis=1).view(_U64)
    return bits, excess, sizes


def sketch_shared_bound(texts: Sequence[str], keys: np.ndarray, k: int):
    """Yield, _SKETCH_PAIRS keys at a time, for each pair (a, b) keyed
    a * n + b (n texts) a bound on the shingle hashes a and b share, and
    the sizes of a and b.

    A hash two texts share falls in the same bin of both, so summed over
    the bins, min(count_a, count_b) is at least what they share (the
    q-gram count filter, Ukkonen 1992, on hashed q-grams). The counts
    are held capped at one bit, which hides more only where a bin holds
    more than one hash in both texts, and min(excess_a, excess_b) bounds
    what those bins hide, so the bound stays exact. Only the texts of
    these pairs are sketched.
    """
    n = len(texts)
    used = np.zeros(n, dtype=bool)
    used[keys // n] = True
    used[keys % n] = True
    row = np.cumsum(used) - 1
    bits, excess, sizes = _count_sketch([texts[i] for i in np.flatnonzero(used).tolist()], k)
    for lo in range(0, len(keys), _SKETCH_PAIRS):
        a, b = np.divmod(keys[lo : lo + _SKETCH_PAIRS], n)
        ra, rb = row[a], row[b]
        yield _popcount(bits[ra] & bits[rb]) + np.minimum(excess[ra], excess[rb]), sizes[ra], sizes[rb]


def open_pairs(texts: Sequence[str], cfg: SimilarityConfig) -> tuple[list[int], list[int]]:
    """The candidate pairs (a[i], b[i]), a[i] < b[i], that neither filter
    rejects, highest bound on their shingle-set Jaccard first.

    Candidates are band_keys' pairs. The length filter drops a pair whose
    lengths alone keep it below dup_threshold (edit distance is at least
    the length difference), band by band, before the bands' keys are
    merged. Then the count sketch drops a pair when even its bound on
    shared shingles leaves the shingle-set Jaccard below the floor that
    dup_threshold implies: one edit changes at most shingle_k members of
    a text's shingle set, so edit distance <= d_allow forces Jaccard >=
    j_min (vacuous, floor <= 0, for loose thresholds). The Jaccard grows
    with the shared count, so a bound below the floor proves the exact
    count is too. Both filters reject only pairs that edit distance
    rejects. Ordered by their Jaccard bound, the pairs most likely to
    verify come first.
    """
    n = len(texts)
    k = cfg.shingle_k
    threshold = cfg.dup_threshold
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    kept = [np.empty(0, dtype=np.int64)]
    for band in band_keys(texts, cfg):
        for lo in range(0, len(band), _FILTER_KEYS):
            keys = band[lo : lo + _FILTER_KEYS]
            la, lb = lengths[keys // n], lengths[keys % n]
            kept.append(keys[~(1.0 - np.abs(la - lb) / np.maximum(la, lb) < threshold)])
    keys = np.concatenate(kept)
    del kept
    # sorted and distinct; np.unique without an inverse would import numpy.ma
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    del first
    # the bound only orders the pairs, so single precision does
    jaccard = np.empty(len(keys), dtype=np.float32)
    keep = np.empty(len(keys), dtype=bool)
    lo = 0
    for shared, size_a, size_b in sketch_shared_bound(texts, keys, k):
        hi = lo + len(shared)
        a, b = np.divmod(keys[lo:hi], n)
        d_allow = (1.0 - threshold) * np.maximum(lengths[a], lengths[b])
        m = np.maximum(size_a, size_b).astype(np.float64)
        floor = m - k * d_allow
        j_min = floor / (m + k * d_allow)
        bound = shared / (size_a + size_b - shared)
        keep[lo:hi] = ~((floor > 0.0) & (bound < j_min - 1e-9))
        jaccard[lo:hi] = bound
        lo = hi
    keys = keys[keep][np.argsort(-jaccard[keep], kind="stable")]
    a, b = np.divmod(keys, n)
    return a.tolist(), b.tolist()


def _hash_params(cfg: SimilarityConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    mult = rng.integers(0, 2**63, size=cfg.num_signatures, dtype=np.uint64)
    mult = mult * _U64(2) + _U64(1)  # odd multiplier keeps the map bijective mod 2^64
    add = rng.integers(0, 2**63, size=cfg.num_signatures, dtype=np.uint64)
    return mult, add


def _signature_matrix(shingles: Sequence[np.ndarray], cfg: SimilarityConfig) -> np.ndarray:
    """One minhash signature row per non-empty shingle array.

    A row is the column minimum of its (shingles x num_signatures)
    product, made _SIGN_CHUNK shingles at a time. Each chunk's shingles
    are copied across a buffer first, so the multiply and the add run on
    contiguous operands (the multiplier and addend held as tiles of the
    same shape), where numpy is several times faster than with a
    broadcast operand; the buffer and tiles stay at _SIGN_CHUNK rows.
    """
    mult, add = _hash_params(cfg)
    chunk = _SIGN_CHUNK
    sigs = np.empty((len(shingles), cfg.num_signatures), dtype=_U64)
    buf = np.empty((chunk, cfg.num_signatures), dtype=_U64)
    mult_tile = np.tile(mult, (chunk, 1))
    add_tile = np.tile(add, (chunk, 1))
    for row, arr in zip(sigs, shingles):
        for lo in range(0, arr.size, chunk):
            part = arr[lo : lo + chunk]
            prod = buf[: part.size]
            prod[...] = part[:, None]
            prod *= mult_tile[: part.size]
            prod += add_tile[: part.size]
            if lo:  # fold the minimum of the chunks before into this one
                np.minimum(prod[0], row, out=prod[0])
            np.minimum.reduce(prod, axis=0, out=row)
    return sigs


def _buckets(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a (texts x rows) band grouped into buckets of equal
    rows: an order of the row indices that puts each bucket's rows
    together, in ascending index order, and the bucket starts in that
    order, followed by the number of rows.

    Each row is folded into one uint64 key (multiply and xor, column by
    column), and the keys get one stable argsort. Equal rows give equal
    keys. Where two different rows share a key, the order falls back to
    a stable lexicographic sort of whole rows, so a bucket is always
    exactly the rows equal on every value. The first value alone would
    not do as the key: texts that agree on one minhash value often
    differ on the band's others, so that fallback would run in every
    band.
    """
    key = band[:, 0].copy()
    for col in range(1, band.shape[1]):
        key *= _BAND_MIX
        key ^= band[:, col]
    order = np.argsort(key, kind="stable")
    key = key[order]
    same = key[1:] == key[:-1]
    del key
    at = np.flatnonzero(same)
    if (band[order[at]] != band[order[at + 1]]).any():
        order = np.lexsort(band.T[::-1])
        ordered = band[order]
        same = (ordered[1:] == ordered[:-1]).all(axis=1)
    return order, np.flatnonzero(np.r_[True, ~same, True])


def band_keys(texts: Sequence[str], cfg: SimilarityConfig):
    """Yield, band by band, the candidate keys a * n + b (a < b) of n texts.

    Texts of at least shingle_k chars go through minhash + banding: a
    bucket is the texts whose signatures agree on every row of one band
    (_buckets), so only exact equality buckets. The pairs of all buckets
    of one size come from one (buckets x size) table of members and its
    upper triangle. A pair appears once per band it shares a bucket in;
    shorter texts get no keys. Shingles are hashed _SIGN_TEXTS texts at a
    time and only their signatures kept, and the signatures are freed
    once the last band is yielded.
    """
    n = len(texts)
    ids = [i for i, text in enumerate(texts) if len(text) >= cfg.shingle_k]
    if len(ids) < 2:
        return
    sigs = np.empty((len(ids), cfg.num_signatures), dtype=_U64)
    for lo in range(0, len(ids), _SIGN_TEXTS):
        part = [texts[i] for i in ids[lo : lo + _SIGN_TEXTS]]
        sigs[lo : lo + len(part)] = _signature_matrix(shingle_hashes_many(part, cfg.shingle_k), cfg)
    ids = np.array(ids, dtype=np.int64)
    rows = cfg.rows_per_band
    for band in range(cfg.bands):
        order, starts = _buckets(sigs[:, band * rows : (band + 1) * rows])
        sizes = np.diff(starts)
        members = ids[order]
        out = [np.empty(0, dtype=np.int64)]
        for size in sorted(set(sizes[sizes > 1].tolist())):
            table = members[starts[:-1][sizes == size][:, None] + np.arange(size)]
            i, j = np.triu_indices(size, 1)
            out.append((table[:, i] * n + table[:, j]).ravel())
        yield np.concatenate(out)
