"""Independent reference implementations used only by tests.

Deliberately written with different algorithms than the package: plain
dynamic programming, python sets, breadth-first search, brute-force
enumeration. Slow but obviously correct on small inputs.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
import string
import xml.etree.ElementTree as ET
from collections import deque

from adgraph import extract
from adgraph.emoji import emoji_class, emoji_ranges


def levenshtein_ref(a: str, b: str) -> int:
    """Textbook two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def is_emoji_ref(ch: str) -> bool:
    """Binary search of the package's emoji range table."""
    cp = ord(ch)
    ranges = emoji_ranges()
    lo, hi = 0, len(ranges) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        first, last = ranges[mid]
        if cp < first:
            hi = mid - 1
        elif cp > last:
            lo = mid + 1
        else:
            return True
    return False


_DIGIT_WORDS_REF = {
    "zero": "0", "oh": "0", "one": "1", "two": "2", "three": "3",
    "four": "4", "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
}
_HOMOPHONES_REF = {"to": "2", "too": "2", "for": "4", "ate": "8", "o": "0"}


def atoms_ref(text: str) -> list[tuple[int, int, str, bool, bool]]:
    """Phone atoms as (start, end, digits, strong, is_run).

    Tokenizes every ASCII digit run and every ASCII letter run, then
    keeps the letter runs that spell a digit (strong) or a homophone.
    """
    out = []
    for m in re.finditer(r"[0-9]+|[A-Za-z]+", text):
        tok = m.group()
        if tok[0].isdigit():
            out.append((m.start(), m.end(), tok, True, True))
            continue
        word = tok.lower()
        if word in _DIGIT_WORDS_REF:
            out.append((m.start(), m.end(), _DIGIT_WORDS_REF[word], True, False))
        elif word in _HOMOPHONES_REF:
            out.append((m.start(), m.end(), _HOMOPHONES_REF[word], False, False))
    return out


def similarity_ref(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_ref(a, b) / max(len(a), len(b))


def sample_pairs_ref(groups, counts, admissible, texts, cfg, rng, enumerate_limit):
    """The pair sampler scoring one candidate at a time with the DP similarity.

    Same draws as label._sample_pairs: small pools are enumerated and
    shuffled, large ones rejection-sampled, and each candidate is kept
    as soon as it scores below the cap, until pairs_per_class are kept.
    """
    total = sum(counts)
    if total == 0:
        return []
    threshold = cfg.pair_sim_threshold
    want = cfg.pairs_per_class
    out = []
    if total <= enumerate_limit:
        candidates = [
            (a, b)
            for nodes in groups
            for a, b in itertools.combinations(nodes, 2)
            if admissible(a, b)
        ]
        rng.shuffle(candidates)
        for a, b in candidates:
            sim = similarity_ref(texts[a], texts[b])
            if sim < threshold:
                out.append((a, b, sim))
                if len(out) == want:
                    break
        return out
    cum = list(itertools.accumulate(counts))
    seen = set()
    attempts = 0
    budget = max(60 * want, 10_000)
    while len(out) < want and attempts < budget:
        attempts += 1
        nodes = groups[bisect.bisect_right(cum, rng.randrange(cum[-1]))]
        i, j = rng.sample(range(len(nodes)), 2)
        a, b = nodes[i], nodes[j]
        if not admissible(a, b):
            continue
        if a > b:
            a, b = b, a
        if (a, b) in seen:
            continue
        seen.add((a, b))
        sim = similarity_ref(texts[a], texts[b])
        if sim < threshold:
            out.append((a, b, sim))
    return out


def jaccard_shingles_ref(a: str, b: str, k: int = 5) -> float:
    """Exact Jaccard over character k-shingle sets."""
    sa = {a[i : i + k] for i in range(len(a) - k + 1)} if len(a) >= k else {a}
    sb = {b[i : i + k] for i in range(len(b) - k + 1)} if len(b) >= k else {b}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def shingle_hashes_ref(text: str, k: int) -> list[int]:
    """Sorted distinct shingle hashes in Python integers: each k-char
    window's code points rolled base 1099511628211 mod 2^64, then mixed
    by the same xorshift-multiply avalanche as the package."""
    mask = (1 << 64) - 1
    out = set()
    for i in range(len(text) - k + 1):
        h = 0
        for ch in text[i : i + k]:
            h = (h * 1099511628211 + ord(ch)) & mask
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & mask
        h ^= h >> 33
        h = (h * 0xC4CEB9FE1A85EC53) & mask
        h ^= h >> 33
        out.add(h)
    return sorted(out)


def minhash_ref(shingles: list[int], mult: list[int], add: list[int]) -> list[int]:
    """Minhash signature: per hash, the least (s * mult + add) mod 2^64
    over the shingle hashes s, in Python integers."""
    mask = (1 << 64) - 1
    return [min((s * m + a) & mask for s in shingles) for m, a in zip(mult, add)]


def edge_closure_ref(ids, edges) -> set[frozenset[str]]:
    """Partition of ids into the connected components of edges."""
    adj = {i: set() for i in ids}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    return _bfs_partition(sorted(adj), adj)


def cluster_ref(texts: dict[str, str], threshold: float) -> set[frozenset[str]]:
    """Brute-force all-pairs transitive clustering at a similarity threshold."""
    ids = sorted(texts)
    adj = {i: set() for i in ids}
    for x, y in itertools.combinations(ids, 2):
        if similarity_ref(texts[x], texts[y]) >= threshold:
            adj[x].add(y)
            adj[y].add(x)
    return _bfs_partition(ids, adj)


def components_ref(
    members_by_cluster: dict[str, list[str]],
    identifiers_by_ad: dict[str, list[tuple[str, str]]],
) -> set[frozenset[str]]:
    """Expected connected components over cluster canonicals.

    members_by_cluster maps canonical id to all member ad ids;
    identifiers_by_ad maps ad id to (kind, canonical_value) tuples.
    Canonicals sharing any identifier value connect; BFS closes the
    partition transitively.
    """
    keys_of: dict[str, set[tuple[str, str]]] = {}
    for canon, members in members_by_cluster.items():
        keys = set()
        for m in members:
            keys.update(identifiers_by_ad.get(m, []))
        keys_of[canon] = keys
    sharers: dict[tuple[str, str], list[str]] = {}
    for canon in sorted(keys_of):
        for key in keys_of[canon]:
            sharers.setdefault(key, []).append(canon)
    adj = {c: set() for c in keys_of}
    for group in sharers.values():
        for x, y in itertools.combinations(group, 2):
            adj[x].add(y)
            adj[y].add(x)
    return _bfs_partition(sorted(keys_of), adj)


def _bfs_partition(ids, adj) -> set[frozenset[str]]:
    seen: set[str] = set()
    parts = set()
    for start in ids:
        if start in seen:
            continue
        comp = set()
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            comp.add(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        parts.add(frozenset(comp))
    return parts


def haversine_ref(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle miles via the spherical Vincenty atan2 form."""
    radius = 3958.7613
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    y = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.atan2(y, x)


def _midranks_ref(values: list[float]) -> list[float]:
    """Average ranks with ties, 1-based."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def wilcoxon_exact_ref(diffs: list[float]) -> tuple[float, float]:
    """(statistic, two-sided exact p) by enumerating all 2^n sign vectors.

    diffs must be nonzero. The statistic is the smaller of the positive
    and negative rank sums; p is the fraction of equally likely sign
    assignments whose smaller rank sum is <= the observed one.
    """
    n = len(diffs)
    assert n >= 1 and all(d != 0 for d in diffs)
    ranks = _midranks_ref([abs(d) for d in diffs])
    total = sum(ranks)
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    observed = min(w_plus, total - w_plus)
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if min(w, total - w) <= observed + 1e-12:
            hits += 1
    return observed, hits / 2.0**n


# Reference scanners that share none of the package's shortcuts: atoms
# from atoms_ref's letter-run tokenizer, the other three regexes without
# leading lookaheads, every scan run on every text, and chains dropped
# only after the homophone pass. The platform a matched word names is
# found by matching each platform word again, and a handle token's letters
# are lowered to the ASCII letter each matches, so the letters IGNORECASE
# folds need no table. Canonical forms come from the package.
_EMAIL_RE_REF = re.compile(r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}")
_URL_RE_REF = re.compile(r"https?://[^\s<>\"']+", re.IGNORECASE)
_URL_TRAIL_REF = ".,!?;:)’”"
_PLATFORMS_REF = {
    "snap": "snapchat", "snapchat": "snapchat",
    "insta": "instagram", "instagram": "instagram", "ig": "instagram",
    "telegram": "telegram", "tg": "telegram",
    "whatsapp": "whatsapp",
}
_HANDLE_RE_REF = re.compile(
    r"\b(%s)\b" % "|".join(sorted(_PLATFORMS_REF, key=lambda w: (-len(w), w)))
    + r"(?=[\s:.\-–—@]{0,4}([A-Za-z0-9_][A-Za-z0-9_.\-]{1,30}))",
    re.IGNORECASE,
)
_GAP_RE_REF = re.compile(rf"[\s\-–—.(){emoji_class()}]{{0,3}}")


def _chain_ref(atoms: list[tuple], text: str) -> list[list[tuple]]:
    """atoms_ref atoms grouped into runs whose gaps _GAP_RE_REF spans."""
    chains: list[list[tuple]] = []
    cur: list[tuple] = []
    for atom in atoms:
        if cur:
            if _GAP_RE_REF.fullmatch(text, cur[-1][1], atom[0]):
                cur.append(atom)
                continue
            chains.append(cur)
        cur = [atom]
    if cur:
        chains.append(cur)
    return chains


def _digit_char_spans_ref(chain: list[tuple]) -> list[tuple[int, int]]:
    spans = []
    for start, end, digits, _strong, is_run in chain:
        if is_run:
            spans.extend((start + i, start + i + 1) for i in range(len(digits)))
        else:
            spans.append((start, end))
    return spans


def deobfuscate_phone_ref(text: str) -> list[tuple[str, tuple[int, int]]]:
    matches: list[tuple[str, tuple[int, int]]] = []
    for rough in _chain_ref(atoms_ref(text), text):
        kept = [
            atom
            for i, atom in enumerate(rough)
            if atom[3] or (i > 0 and rough[i - 1][3]) or (i + 1 < len(rough) and rough[i + 1][3])
        ]
        for chain in _chain_ref(kept, text):
            digits = "".join(atom[2] for atom in chain)
            if len(digits) < 10:
                continue
            spans = _digit_char_spans_ref(chain)
            if len(digits) <= 15:
                matches.append((digits, (spans[0][0], spans[-1][1])))
                continue
            pos = 0
            while len(digits) - pos >= 10:
                matches.append((digits[pos : pos + 10], (spans[pos][0], spans[pos + 9][1])))
                pos += 10
    return matches


@functools.lru_cache(maxsize=None)
def _ascii_lower_ref(ch: str) -> str:
    """The lowercase ASCII letter a Unicode IGNORECASE matches ch as, else ch."""
    return next((c for c in string.ascii_lowercase if re.fullmatch(c, ch, re.IGNORECASE)), ch)


def scan_text_ref(text: str) -> list:
    """Phones, emails, handles and urls in text, in extract._scan_text's order."""
    Identifier = extract.Identifier
    out = []
    for digits, (start, end) in deobfuscate_phone_ref(text):
        canonical = extract.canonical_phone(digits)
        if canonical is not None:
            out.append(Identifier("phone", text[start:end], canonical, start, end))
    for m in _EMAIL_RE_REF.finditer(text):
        out.append(Identifier("email", m.group(), m.group().lower(), m.start(), m.end()))
    for m in _HANDLE_RE_REF.finditer(text):
        token = "".join(map(_ascii_lower_ref, m.group(2).rstrip(".-")))
        if len(token) < 2 or token in _PLATFORMS_REF:
            continue
        word = m.group(1)
        platform = next(v for k, v in _PLATFORMS_REF.items() if re.fullmatch(k, word, re.IGNORECASE))
        end = m.start(2) + len(token)
        out.append(
            Identifier("social_handle", text[m.start() : end], f"{platform}:{token}", m.start(), end)
        )
    for m in _URL_RE_REF.finditer(text):
        raw = m.group().rstrip(_URL_TRAIL_REF)
        if "://" not in raw:
            continue
        out.append(Identifier("url", raw, extract.canonical_url(raw), m.start(), m.start() + len(raw)))
    return out


def extract_identifiers_ref(declared_phone, original_text: str, norm_text: str):
    """extract.extract_identifiers with the norm_text scan always run,
    through the reference scanners.

    Original pass, then a norm pass keeping what no original-pass
    identifier of its kind matches up to case, then the declared phone:
    its recovered phones, else its digits as one phone.
    """
    original_pass = scan_text_ref(original_text)
    found = {(i.kind, i.canonical.casefold()) for i in original_pass}
    norm_pass = []
    for ident in scan_text_ref(norm_text):
        if (ident.kind, ident.canonical.casefold()) in found:
            continue
        idx = original_text.find(ident.raw)
        span = (idx, idx + len(ident.raw)) if idx >= 0 else (None, None)
        norm_pass.append(extract.Identifier(ident.kind, ident.raw, ident.canonical, *span))
    declared_pass = []
    if declared_phone:
        phones = [extract.canonical_phone(d) for d, _ in deobfuscate_phone_ref(declared_phone)]
        phones = [c for c in phones if c is not None]
        if not phones:
            phones = [extract.canonical_phone(re.sub(r"[^0-9]", "", declared_phone))]
        declared_pass = [extract.Identifier("phone", declared_phone, c) for c in phones if c is not None]
    return extract.merge_identifiers(original_pass, norm_pass, declared_pass)


def export_graphml_ref(graph, path, component=None) -> None:
    """GraphML serialized by ElementTree; graph.export_graphml must write
    the same bytes."""
    nodes, edges = graph.nodes, graph.edges
    if component is not None:
        keep = set(graph.components[component])
        nodes = [n for n in nodes if n in keep]
        edges = [e for e in edges if e.a in keep and e.b in keep]
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, target, name, typ in (
        ("d0", "graph", "materialization", "string"),
        ("d1", "node", "component", "int"),
        ("d2", "edge", "shared_identifiers", "string"),
        ("d3", "node", "ad_id", "string"),
    ):
        ET.SubElement(root, "key", id=key_id, attrib={"for": target}, **{"attr.name": name, "attr.type": typ})
    g = ET.SubElement(root, "graph", id="relatedness", edgedefault="undirected")
    data = ET.SubElement(g, "data", key="d0")
    data.text = graph.materialization
    for node in nodes:
        el = ET.SubElement(g, "node", id=node)
        d = ET.SubElement(el, "data", key="d1")
        d.text = str(graph.component_of[node])
        d = ET.SubElement(el, "data", key="d3")
        d.text = node
    for idx, edge in enumerate(edges):
        el = ET.SubElement(g, "edge", id=f"e{idx}", source=edge.a, target=edge.b)
        d = ET.SubElement(el, "data", key="d2")
        d.text = ";".join(edge.shared)
    ET.indent(root)
    with open(path, "wb") as fh:
        ET.ElementTree(root).write(fh, encoding="utf-8", xml_declaration=True)
        fh.write(b"\n")
