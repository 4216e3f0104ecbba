import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgraph import dedup, kernels
from adgraph.corpus import NormalizedAd, normalize
from adgraph.errors import ConfigError
from adgraph.synth import SynthSpec, generate_corpus

from conftest import make_norm, ts
from oracles import (
    cluster_ref,
    edge_closure_ref,
    levenshtein_ref,
    minhash_ref,
    shingle_hashes_ref,
    similarity_ref,
)


class TestLevenshtein:
    CASES = [
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("gumbo", "gambol", 2),
        ("a" * 70, "a" * 70 + "b", 1),  # crosses the 64-bit word boundary
        # a shared prefix and suffix that would overlap in the shorter string
        ("aaa", "aa", 1),
        ("abcab", "ab", 3),
        ("ab", "abcab", 3),
        ("aba", "a", 2),
        ("abc", "abcdef", 3),  # one string a prefix of the other
    ]

    @pytest.mark.parametrize("a,b,want", CASES)
    def test_known_distances(self, a, b, want):
        assert dedup.levenshtein(a, b) == want

    def test_symmetric(self):
        assert dedup.levenshtein("abcdef", "azced") == dedup.levenshtein("azced", "abcdef")

    @given(st.text(alphabet="ab ", max_size=40), st.text(alphabet="ab ", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_small_alphabet(self, a, b):
        assert dedup.levenshtein(a, b) == levenshtein_ref(a, b)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_any_text(self, a, b):
        assert dedup.levenshtein(a, b) == levenshtein_ref(a, b)

    @given(
        st.text(alphabet="abc ", min_size=20, max_size=80),
        st.text(alphabet="abc ", max_size=8),
        st.text(alphabet="abc ", max_size=8),
        st.text(alphabet="abc ", min_size=20, max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_long_shared_affixes_match_reference(self, p, x, y, s):
        a, b = p + x + s, p + y + s
        assert dedup.levenshtein(a, b) == levenshtein_ref(a, b)

    def test_long_strings_match_reference(self):
        rng = random.Random(7)
        for _ in range(20):
            a = "".join(rng.choice("abcdefg h") for _ in range(rng.randint(80, 220)))
            b = list(a)
            for _ in range(rng.randint(1, 15)):
                i = rng.randrange(len(b))
                b[i] = rng.choice("abcdefg h")
            b = "".join(b)
            assert dedup.levenshtein(a, b) == levenshtein_ref(a, b)


def _no_shared_ends(rng, alphabet, n):
    """A text of n chars (n >= 2) that starts and ends with 'x', which
    the alphabet lacks, so it shares no end with a text of that alphabet."""
    return "x" + "".join(rng.choice(alphabet) for _ in range(n - 2)) + "x"


_ANY_TEXT = st.one_of(
    st.text(alphabet="ab ", max_size=150),
    st.text(alphabet="abcdefgh", min_size=60, max_size=140),
    st.text(max_size=30),  # any code point, astral ones included
    st.text(alphabet="a\U0001F600\U00010348b", max_size=80),
)


@st.composite
def _pair(draw):
    a = draw(_ANY_TEXT)
    kind = draw(st.sampled_from(["independent", "equal", "edited", "empty"]))
    if kind == "independent":
        return a, draw(_ANY_TEXT)
    if kind == "equal":
        return a, a
    if kind == "empty":
        return draw(st.sampled_from([(a, ""), ("", a)]))
    i = draw(st.integers(0, len(a)))
    return a, a[:i] + draw(st.text(alphabet="abz\U0001F600", max_size=5)) + a[i + 1 :]


class TestLevenshteinMany:
    @given(st.lists(_pair(), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, pairs):
        assert kernels.levenshtein_many(pairs) == [levenshtein_ref(a, b) for a, b in pairs]

    @given(st.lists(_pair(), min_size=4, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_many_blocks_keep_input_order(self, pairs):
        with mock.patch.object(kernels, "_BLOCK", 3):
            got = kernels.levenshtein_many(pairs)
        assert got == [levenshtein_ref(a, b) for a, b in pairs]

    def test_more_pairs_than_one_block(self):
        rng = random.Random(5)
        pairs = []
        for _ in range(kernels._BLOCK + 90):
            a = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 40)))
            b = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 40)))
            pairs.append((a, b))
        assert kernels.levenshtein_many(pairs) == [levenshtein_ref(a, b) for a, b in pairs]

    @pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
    def test_patterns_at_word_boundaries(self, m):
        rng = random.Random(m)
        pairs = []
        for extra in (0, 1, 7, 70):
            pattern = _no_shared_ends(rng, "abc", m)
            text = "".join(rng.choice("abc") for _ in range(m + extra))
            pairs += [(pattern, text), (text, pattern)]
        pairs.append((_no_shared_ends(rng, "abc", m), "ab"))
        assert kernels.levenshtein_many(pairs) == [levenshtein_ref(a, b) for a, b in pairs]

    CARRIES = [
        # long runs of matches: the addition carries through whole words
        *[("b" + "a" * k + "b", "c" + "a" * (k + 1) + "c") for k in (62, 63, 64, 65, 127, 128, 191)],
        *[("a" * k + "b", "a" * (k + 1)) for k in (63, 64, 65, 128)],
        # nothing matches: no carries, every column a mismatch
        *[("x" * k, "y" * k) for k in (64, 65, 129)],
        ("x" * 130, "y" * 260),
        # a carry out of a word of matches meets a word of all ones,
        # which it must ripple through into the word above
        ("a" * 64 + "b" * 64 + "z", "c" + "a" * 100 + "y"),
        ("a" * 64 + "b" * 128 + "z", "c" + "a" * 100 + "b" * 40 + "y"),
        ("a" * 64 + "b" * 128 + "z", "c" + "a" * 70 + "d" + "a" * 70 + "y"),
    ]

    def test_pinned_carry_cases(self):
        pairs = self.CARRIES + [(b, a) for a, b in self.CARRIES]
        assert kernels.levenshtein_many(pairs) == [levenshtein_ref(a, b) for a, b in pairs]

    def test_popcount_byte_table_matches_bitwise_count(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2**64, size=(50, 7), dtype=np.uint64, endpoint=False)
        x[0] = 0
        x[1] = np.uint64(2**64 - 1)
        want = [sum(bin(v).count("1") for v in row) for row in x.tolist()]
        assert kernels._popcount(x).tolist() == want
        with mock.patch.object(kernels, "_BITWISE_COUNT", None):
            assert kernels._popcount(x).tolist() == want

    def test_empty_batch(self):
        assert kernels.levenshtein_many([]) == []
        assert dedup.similarities([]) == []

    @given(st.lists(_pair(), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_similarities_match_reference(self, pairs):
        got = dedup.similarities(pairs)
        assert got == [similarity_ref(a, b) for a, b in pairs]
        assert got == [dedup.similarity(a, b) for a, b in pairs]


class TestSimilarity:
    def test_both_empty(self):
        assert dedup.similarity("", "") == 1.0

    def test_identical(self):
        assert dedup.similarity("hello world", "hello world") == 1.0

    def test_range(self):
        assert 0.0 <= dedup.similarity("abc", "xyz") <= 1.0

    @given(st.text(max_size=50), st.text(max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, a, b):
        assert dedup.similarity(a, b) == pytest.approx(similarity_ref(a, b))


class TestSimilarityConfig:
    def test_defaults_valid(self):
        cfg = dedup.SimilarityConfig()
        assert cfg.rows_per_band == 4

    def test_bands_must_divide(self):
        with pytest.raises(ConfigError):
            dedup.SimilarityConfig(num_signatures=128, bands=33)

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            dedup.SimilarityConfig(dup_threshold=0.0)


def _random_text(rng, n):
    return "".join(rng.choice("abcdefghijklmnop  ") for _ in range(n))


def _mutate(rng, text, edits):
    chars = list(text)
    for _ in range(edits):
        i = rng.randrange(len(chars))
        chars[i] = rng.choice("abcdefghijklmnop")
    return "".join(chars)


class TestCandidatePairs:
    def test_identical_short_texts_pair_up(self):
        ads = [make_norm("a", "hi"), make_norm("b", "hi"), make_norm("c", "yo")]
        pairs = dedup.candidate_pairs(ads, dedup.SimilarityConfig())
        assert ("a", "b") in pairs

    def test_near_duplicates_found(self):
        rng = random.Random(11)
        base = _random_text(rng, 150)
        ads = [make_norm("a", base), make_norm("b", _mutate(rng, base, 3))]
        pairs = dedup.candidate_pairs(ads, dedup.SimilarityConfig())
        assert ("a", "b") in pairs

    def test_deterministic(self):
        rng = random.Random(12)
        ads = [make_norm(f"x{i}", _random_text(rng, 60)) for i in range(30)]
        cfg = dedup.SimilarityConfig()
        assert dedup.candidate_pairs(ads, cfg) == dedup.candidate_pairs(ads, cfg)


# a small pool, so equal texts often sit side by side in one pass
_SHINGLE_TEXTS = st.lists(
    st.one_of(
        st.just(""),
        st.text("ab", max_size=4),
        st.text("abc", min_size=5, max_size=5),
        st.text("a\U0001F600\U00010348\u00e9", min_size=1, max_size=12),
        st.text(min_size=20, max_size=120),
        st.sampled_from(("abcde", "aaaaaaa", "\U0001F600" * 6)),
    ),
    max_size=12,
)


class TestShingleHashesMany:
    @given(_SHINGLE_TEXTS, st.sampled_from((1, 2, 5)), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_text_reference(self, texts, k, budget):
        # a small budget makes passes end, and texts straddle them, anywhere
        with mock.patch.object(kernels, "_SHINGLE_BUDGET", budget):
            got = kernels.shingle_hashes_many(texts, k)
        assert len(got) == len(texts)
        for text, arr in zip(texts, got):
            assert arr.dtype == np.uint64 and arr.ndim == 1
            assert arr.tolist() == shingle_hashes_ref(text, k)

    @given(_SHINGLE_TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_default_budget_and_one_text_case(self, texts):
        got = kernels.shingle_hashes_many(texts, 5)
        for text, arr in zip(texts, got):
            one = kernels.shingle_hashes(text, 5)
            assert arr.dtype == one.dtype == np.uint64
            assert arr.tolist() == one.tolist() == shingle_hashes_ref(text, 5)

    def test_text_longer_than_the_budget(self):
        rng = random.Random(5)
        texts = ["abcdefg", _random_text(rng, 3 * kernels._SHINGLE_BUDGET), "abcdefg"]
        got = kernels.shingle_hashes_many(texts, 5)
        assert [a.tolist() for a in got] == [shingle_hashes_ref(t, 5) for t in texts]


class TestSignatureMatrix:
    def test_rows_match_per_text_minhash(self):
        rng = random.Random(31)
        cfg = dedup.SimilarityConfig()
        texts = [_random_text(rng, rng.randint(5, 120)) for _ in range(12)]
        texts += [texts[0], "abcde", "abcdefgh"]
        shingles = [kernels.shingle_hashes(t, cfg.shingle_k) for t in texts]
        sigs = kernels._signature_matrix(shingles, cfg)
        mult, add = (p.tolist() for p in kernels._hash_params(cfg))
        assert sigs.shape == (len(texts), cfg.num_signatures)
        for row, arr in zip(sigs, shingles):
            assert row.tolist() == minhash_ref(arr.tolist(), mult, add)


ALPHABET = "abcdef "


@st.composite
def repost_corpora(draw):
    """Texts with exact reposts, near reposts (a few substitutions in a
    family member: they share buckets in many bands, chain, and some fail
    verification), texts shorter than shingle_k and empty texts."""
    texts = []
    for base in draw(st.lists(st.text(ALPHABET, min_size=20, max_size=90), min_size=1, max_size=4)):
        family = [base]
        for _ in range(draw(st.integers(0, 5))):
            text = list(draw(st.sampled_from(family)))
            for _ in range(draw(st.integers(0, 6))):
                text[draw(st.integers(0, len(text) - 1))] = draw(st.sampled_from(ALPHABET))
            family.append("".join(text))
        texts += family
    texts += draw(st.lists(st.text("ab", max_size=4), max_size=4))
    return texts


class TestStreamedDedup:
    @given(repost_corpora())
    @settings(max_examples=150, deadline=None)
    def test_partition_is_closure_of_verified_candidates(self, texts):
        ads = [NormalizedAd(f"a{i:03d}", t, 0) for i, t in enumerate(texts)]
        cfg = dedup.SimilarityConfig()
        by_id = {ad.ad_id: ad.norm_text for ad in ads}
        edges = [
            (a, b)
            for a, b in dedup.candidate_pairs(ads, cfg)
            if similarity_ref(by_id[a], by_id[b]) >= cfg.dup_threshold
        ]
        got = {frozenset(c.member_ids) for c in dedup.deduplicate(ads, cfg)}
        assert got == edge_closure_ref(by_id, edges)

    @given(repost_corpora())
    @settings(max_examples=60, deadline=None)
    def test_candidates_are_exact_band_matches(self, texts):
        cfg = dedup.SimilarityConfig()
        mult, add = (p.tolist() for p in kernels._hash_params(cfg))
        ads = [NormalizedAd(f"a{i:03d}", t, 0) for i, t in enumerate(texts)]
        sigs = {}
        for ad in ads:
            shingles = kernels.shingle_hashes(ad.norm_text, cfg.shingle_k).tolist()
            sigs[ad.ad_id] = minhash_ref(shingles, mult, add) if shingles else ad.norm_text
        r = cfg.rows_per_band
        want = set()
        for a, b in itertools.combinations(sorted(sigs), 2):
            sa, sb = sigs[a], sigs[b]
            if isinstance(sa, str) or isinstance(sb, str):
                if sa == sb:  # texts too short to shingle pair only when equal
                    want.add((a, b))
            elif any(sa[i : i + r] == sb[i : i + r] for i in range(0, len(sa), r)):
                want.add((a, b))
        assert dedup.candidate_pairs(ads, cfg) == want


class TestDeduplicate:
    def _corpus(self, seed, n_base=8):
        """Random bases with exact and near copies; returns (ads, texts)."""
        rng = random.Random(seed)
        ads = []
        texts = {}
        counter = 0
        for _ in range(n_base):
            base = _random_text(rng, rng.randint(80, 140))
            for _ in range(rng.randint(1, 4)):
                kind = rng.random()
                if kind < 0.4:
                    text = base
                elif kind < 0.8:
                    text = _mutate(rng, base, rng.randint(1, 3))
                else:
                    text = base
                ad_id = f"a{counter:03d}"
                counter += 1
                ads.append(make_norm(ad_id, text))
                texts[ad_id] = ads[-1].norm_text
        return ads, texts

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_brute_force_partition(self, seed):
        ads, texts = self._corpus(seed)
        clusters = dedup.deduplicate(ads, dedup.SimilarityConfig())
        got = {frozenset(c.member_ids) for c in clusters}
        assert got == cluster_ref(texts, 0.9)

    def test_every_ad_in_exactly_one_cluster(self):
        ads, _ = self._corpus(6)
        clusters = dedup.deduplicate(ads)
        seen = [m for c in clusters for m in c.member_ids]
        assert sorted(seen) == sorted(a.ad_id for a in ads)

    def test_canonical_is_earliest_posted(self):
        ads = [make_norm("b", "same text here"), make_norm("a", "same text here"),
               make_norm("c", "same text here")]
        posted = {"b": ts(5), "a": ts(9), "c": ts(1)}
        clusters = dedup.deduplicate(ads, posted_at=posted)
        assert clusters[0].canonical_id == "c"

    def test_canonical_tie_breaks_to_lowest_id(self):
        ads = [make_norm("z", "same text here"), make_norm("m", "same text here")]
        posted = {"z": ts(3), "m": ts(3)}
        clusters = dedup.deduplicate(ads, posted_at=posted)
        assert clusters[0].canonical_id == "m"

    def test_canonical_without_timestamps_is_lowest_id(self):
        ads = [make_norm("z", "same text here"), make_norm("m", "same text here")]
        assert dedup.deduplicate(ads)[0].canonical_id == "m"

    def test_method_exact_vs_near(self):
        rng = random.Random(13)
        base = _random_text(rng, 120)
        ads = [
            make_norm("a", base),
            make_norm("b", base),
            make_norm("c", _mutate(rng, base, 2)),
            make_norm("d", "something else entirely unrelated to the rest"),
        ]
        clusters = dedup.deduplicate(ads)
        by_members = {frozenset(c.member_ids): c.method for c in clusters}
        assert by_members[frozenset({"a", "b", "c"})] == "near"
        assert by_members[frozenset({"d"})] == "exact"

    def test_exact_only_cluster_method(self):
        ads = [make_norm("a", "twin text"), make_norm("b", "twin text")]
        assert dedup.deduplicate(ads)[0].method == "exact"

    def test_duplicate_ad_id_rejected(self):
        ads = [make_norm("a", "x y z"), make_norm("a", "x y z")]
        with pytest.raises(ValueError):
            dedup.deduplicate(ads)

    def test_clusters_sorted_and_members_sorted(self):
        ads, _ = self._corpus(14)
        clusters = dedup.deduplicate(ads)
        assert [c.canonical_id for c in clusters] == sorted(c.canonical_id for c in clusters)
        for c in clusters:
            assert c.member_ids == sorted(c.member_ids)
            assert c.canonical_id in c.member_ids

    def test_transitive_chaining(self):
        # a~b and b~c clear the threshold, a~c does not: one cluster anyway
        rng = random.Random(21)
        base = _random_text(rng, 100)
        b = "z" * 5 + base[5:]
        c = "z" * 5 + "y" * 7 + base[12:]
        assert dedup.similarity(base, b) >= 0.9
        assert dedup.similarity(b, c) >= 0.9
        assert dedup.similarity(base, c) < 0.9
        ads = [make_norm("a", base), make_norm("b", b), make_norm("c", c)]
        clusters = dedup.deduplicate(ads)
        assert len(clusters) == 1 and clusters[0].member_ids == ["a", "b", "c"]


class TestSharedEnds:
    @given(st.text("ab", max_size=12), st.text("ab", max_size=6), st.text("ab", max_size=6), st.text("ab", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_character_walk(self, p, x, y, s):
        a, b = p + x + s, p + y + s
        n = min(len(a), len(b))
        prefix = next((i for i in range(n) if a[i] != b[i]), n)
        suffix = next((i for i in range(n - prefix) if a[-1 - i] != b[-1 - i]), n - prefix)
        assert dedup._shared_ends(a, b) == (prefix, suffix)


def _family_texts(seed, n_texts, bins_overflow):
    """Texts in families of near copies; long ones when bins must overflow."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < n_texts:
        size = rng.randint(1100, 1600) if bins_overflow else rng.randint(5, 200)
        base = "".join(rng.choice("abcdefghijklmnopqrst ") for _ in range(size))
        texts.append(base)
        for _ in range(rng.randint(0, 2)):
            texts.append(_mutate(rng, base, rng.randint(0, 40)))
    return texts[:n_texts]


class TestCountSketch:
    """The sketch bound never undercounts the shingles two texts share."""

    def _check(self, texts, k):
        pairs = list(itertools.combinations(range(len(texts)), 2))
        keys = np.array([x * len(texts) + y for x, y in pairs], dtype=np.int64)
        bound, size_a, size_b = map(np.concatenate, zip(*kernels.sketch_shared_bound(texts, keys, k)))
        sets = [set(shingle_hashes_ref(t, k)) for t in texts]
        for i, (x, y) in enumerate(pairs):
            assert bound[i] >= len(sets[x] & sets[y])
            assert (size_a[i], size_b[i]) == (len(sets[x]), len(sets[y]))

    @given(st.integers(0, 10**6), st.integers(2, 8), st.sampled_from((1, 3, 5)))
    @settings(max_examples=100, deadline=None)
    def test_bound_at_least_shared_count(self, seed, n_texts, k):
        self._check(_family_texts(seed, n_texts, bins_overflow=False), k)

    @given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_bound_holds_when_bins_overflow(self, seed, n_texts, bins, rows, pairs):
        # over 1000 shingles in at most 4 bins: every bin holds many
        # hashes; small passes make texts and pairs straddle them
        texts = _family_texts(seed, n_texts, bins_overflow=True)
        with (
            mock.patch.object(kernels, "_SKETCH_BINS", bins),
            mock.patch.object(kernels, "_SKETCH_ROWS", rows),
            mock.patch.object(kernels, "_SKETCH_PAIRS", pairs),
        ):
            self._check(texts, 5)


def _spy_verifications(monkeypatch):
    """Record every (a, b, distance) dedup verifies, batched or scalar."""
    seen = []
    many, one = kernels.levenshtein_many, dedup.levenshtein

    def spy_many(pairs):
        dists = many(pairs)
        seen.extend((a, b, d) for (a, b), d in zip(pairs, dists))
        return dists

    def spy_one(a, b):
        d = one(a, b)
        seen.append((a, b, d))
        return d

    monkeypatch.setattr(kernels, "levenshtein_many", spy_many)
    monkeypatch.setattr(dedup, "levenshtein", spy_one)
    return seen


class TestVerificationRounds:
    def test_failed_forest_edge_is_repaired_in_a_second_round(self, monkeypatch):
        # a~b and b~c verify, a~c does not, and all three are candidates
        # that pass both filters. c rewrites one block of a, so (a, c) has
        # the highest shingle overlap and is round 1's first forest edge;
        # it fails, one of (a, b), (b, c) joins b, and only round 2 can
        # join c through the other.
        rng = random.Random(3)
        a = _random_text(rng, 200)
        c = a[:40] + "z" * 24 + a[64:]
        b = list(a[:40] + "z" * 12 + a[52:])
        for i in (100, 115, 130, 145, 160, 175):
            b[i] = "y"
        b = "".join(b)
        texts = {"a": a, "b": b, "c": c}
        assert similarity_ref(a, b) >= 0.9 and similarity_ref(b, c) >= 0.9
        assert similarity_ref(a, c) < 0.9
        ads = [NormalizedAd(ad_id, t, 0) for ad_id, t in texts.items()]
        seen = _spy_verifications(monkeypatch)
        got = {frozenset(cl.member_ids) for cl in dedup.deduplicate(ads)}
        # a forest over three texts has at most two edges, so a third
        # verification is a second round
        assert seen[0][:2] == (a, c) and len(seen) == 3
        assert {frozenset(pair[:2]) for pair in seen} == {frozenset(p) for p in itertools.combinations((a, b, c), 2)}
        assert got == cluster_ref(texts, 0.9) == {frozenset(texts)}

    @pytest.mark.parametrize("seed", [7, 8])
    def test_accepted_verifications_are_texts_minus_clusters(self, monkeypatch, seed):
        records, _ = generate_corpus(SynthSpec(n_ads=1500, n_components=120, dup_rate=0.9, seed=seed))
        ads = [normalize(r) for r in records]
        cfg = dedup.SimilarityConfig()
        seen = _spy_verifications(monkeypatch)
        clusters = dedup.deduplicate(ads, cfg)
        accepted = [(a, b) for a, b, d in seen if 1.0 - d / max(len(a), len(b)) >= cfg.dup_threshold]
        # every accepted verification joins two clusters, so none is spent
        # on texts already joined, and no pair is verified twice
        distinct = len({ad.norm_text for ad in ads})
        assert len(accepted) == distinct - len(clusters) > 100
        assert len({frozenset((a, b)) for a, b, _ in seen}) == len(seen)

    def test_filters_keep_a_pair_at_the_length_floor(self):
        # ten inserted chars: the lengths alone allow similarity 100/110,
        # just over 0.9, and the pair verifies
        rng = random.Random(9)
        base = _random_text(rng, 100)
        texts = [base, base[:50] + "q" * 10 + base[50:]]
        assert similarity_ref(*texts) >= 0.9
        assert kernels.open_pairs(texts, dedup.SimilarityConfig()) == ([0], [1])

    @given(repost_corpora())
    @settings(max_examples=100, deadline=None)
    def test_filters_drop_only_pairs_that_fail(self, texts):
        distinct = sorted(set(texts))
        cfg = dedup.SimilarityConfig()
        n = len(distinct)
        candidates = {divmod(key, n) for band in kernels.band_keys(distinct, cfg) for key in band.tolist()}
        kept = set(zip(*kernels.open_pairs(distinct, cfg)))
        assert kept <= candidates
        for x, y in candidates - kept:
            assert similarity_ref(distinct[x], distinct[y]) < cfg.dup_threshold
