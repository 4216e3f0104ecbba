"""Synthetic corpus generator with planted ground truth.

Every ad is neutral placeholder prose around planted identifiers,
locations, and duplicate structure, so the whole pipeline can be
verified against known answers without any real ad data. Rendering is
restricted to forms the extractor declares supported, and edits for
near duplicates never touch identifier or location spans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterable

from .corpus import AdRecord
from .errors import ConfigError
from .geo import Gazetteer, haversine_miles

_VOCAB = (
    "amber blossom breeze bright calm charming cheerful classy clever cozy "
    "crystal dawn dazzling dream elegant ember fancy festive fresh friendly "
    "garden gentle golden graceful grand happy harbor hazel hidden honest "
    "island jolly joyful kind lively lovely lucky magic meadow mellow merry "
    "midnight misty modern noble ocean pearl pleasant polished prime quaint "
    "quiet radiant refined river rose royal serene shiny silver simple smooth "
    "sparkle spring starry stellar summer sunny super sweet tender tidy velvet "
    "vibrant vivid warm willow winter wonder"
).split()

_NAMES = (
    "amber bella candy daisy eva fiona gigi holly ivy jade kiki lola mia "
    "nina opal pixie ruby sasha tara violet"
).split()

_GREETINGS = ("hey there", "hi loves", "good evening", "hello hello", "hey you")
_CLOSINGS = ("see you soon", "kisses", "until later", "be sweet", "stay golden")
_EMOJIS = ("\U0001F618", "\U0001F339", "\U0001F525", "\U0001F48B", "✨", "\U0001F352", "\U0001F495", "\U0001F380")

_PHONE_LEADINS = ("call me at", "text me at", "hit my line at", "reach me at")
_DIGIT_NAMES = {
    "0": ("zero", "oh"), "1": ("one",), "2": ("two",), "3": ("three",), "4": ("four",),
    "5": ("five",), "6": ("six",), "7": ("seven",), "8": ("eight",), "9": ("nine",),
}
_PLATFORM_WORDS = {
    "snapchat": ("snap", "snapchat"),
    "instagram": ("insta", "instagram", "ig"),
    "telegram": ("telegram", "tg"),
    "whatsapp": ("whatsapp",),
}
_EMAIL_DOMAINS = ("example.com", "mail.example", "inbox.example")
_URL_HOSTS = ("ads.example", "pages.example", "board.example")
_FAKE_PLACES = ("crystal hollow", "maple crossing", "starlight pines", "willow glen junction")

_OBFUSCATED_FORMS = ("dashed", "dotted", "paren", "spaced", "words", "mixed", "emoji")

# keep planted spans clear of the rule threshold in both directions
_FAR_MILES = 320.0
_NEAR_MILES = 260.0

_BASE_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SynthSpec:
    n_ads: int = 1000
    dup_rate: float = 0.9
    n_components: int = 80
    component_size_distribution: str = "heavy_tailed"
    obfuscation_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ConfigError("n_components must be >= 1")
        if self.n_ads < self.n_components:
            raise ConfigError("n_ads must be >= n_components")
        if not 0.0 <= self.dup_rate <= 1.0:
            raise ConfigError("dup_rate must be in [0, 1]")
        if not 0.0 <= self.obfuscation_rate <= 1.0:
            raise ConfigError("obfuscation_rate must be in [0, 1]")
        if self.component_size_distribution not in ("heavy_tailed", "uniform", "singletons"):
            raise ConfigError(
                "component_size_distribution must be heavy_tailed, uniform, or singletons"
            )


@dataclass
class GroundTruth:
    """What the generator planted, keyed for pipeline comparison."""

    planted_clusters: list[dict] = field(default_factory=list)
    planted_components: list[list[str]] = field(default_factory=list)
    planted_identifiers: dict[str, list[dict]] = field(default_factory=dict)
    planted_htrp: dict[str, dict] = field(default_factory=dict)


@dataclass
class _PlannedIdentifier:
    kind: str
    canonical: str
    platform: str | None = None  # social handles only
    token: str | None = None


def _canonical_sizes(spec: SynthSpec, rng: random.Random) -> list[int]:
    n_canonical = max(spec.n_components, spec.n_ads - int(round(spec.n_ads * spec.dup_rate)))
    extras = n_canonical - spec.n_components
    if spec.component_size_distribution == "singletons":
        if extras:
            raise ConfigError(
                "singletons distribution needs n_components canonical ads exactly; "
                f"got {n_canonical} canonicals for {spec.n_components} components"
            )
        return [1] * spec.n_components
    sizes = [1] * spec.n_components
    if extras:
        if spec.component_size_distribution == "uniform":
            for i in range(extras):
                sizes[i % spec.n_components] += 1
        else:
            weights = [1.0 / (i + 1) ** 1.3 for i in range(spec.n_components)]
            for idx in rng.choices(range(spec.n_components), weights=weights, k=extras):
                sizes[idx] += 1
    return sizes


def _render_phone(digits: str, rng: random.Random, obfuscated: bool) -> str:
    if not obfuscated:
        if rng.random() < 0.15:
            return f"+1 {digits[:3]}-{digits[3:6]}-{digits[6:]}"
        return digits
    form = rng.choice(_OBFUSCATED_FORMS)
    a, b, c = digits[:3], digits[3:6], digits[6:]
    if form == "dashed":
        return f"{a}-{b}-{c}"
    if form == "dotted":
        return f"{a}.{b}.{c}"
    if form == "paren":
        return f"({a}) {b}-{c}"
    if form == "spaced":
        return f"{a} {b} {c}"
    if form == "words":
        return " ".join(rng.choice(_DIGIT_NAMES[d]) for d in digits)
    if form == "mixed":
        return " ".join(d if rng.random() < 0.5 else rng.choice(_DIGIT_NAMES[d]) for d in digits)
    sep = rng.choice(_EMOJIS)
    return f"{a}{sep}{b}{sep}{c}"


def _render_identifier(ident: _PlannedIdentifier, rng: random.Random, obf_rate: float) -> str:
    if ident.kind == "phone":
        rendered = _render_phone(ident.canonical, rng, rng.random() < obf_rate)
        return f"{rng.choice(_PHONE_LEADINS)} {rendered}"
    if ident.kind == "social_handle":
        word = rng.choice(_PLATFORM_WORDS[ident.platform])
        style = rng.randrange(4)
        if style == 0:
            return f"add my {word} {ident.token}"
        if style == 1:
            return f"find me on {word} {ident.token}"
        if style == 2:
            return f"{word}: {ident.token}"
        return f"{word} @{ident.token}"
    if ident.kind == "email":
        return f"{rng.choice(('email me', 'mail'))} {ident.canonical}"
    return f"{rng.choice(('more at', 'see'))} {ident.canonical}"


def _body_words(rng: random.Random) -> list[str]:
    words = [rng.choice(_VOCAB) for _ in range(rng.randint(8, 14))]
    for _ in range(rng.randint(0, 3)):
        words.insert(rng.randrange(len(words) + 1), rng.choice(_EMOJIS))
    return words


def _mutate_body(description: str, body_len: int, rng: random.Random) -> str:
    """Edit only the leading body region; guarantees a changed string."""
    chars = list(description)
    span = max(1, body_len)
    n_edits = max(1, int(round(len(description) * rng.uniform(0.02, 0.06))))
    n_edits = min(n_edits, span // 2 or 1)
    pos = rng.randrange(span)
    old = chars[pos]
    letters = "abcdefghijklmnopqrstuvwxyz"
    chars[pos] = rng.choice([c for c in letters if c != old])
    for _ in range(n_edits - 1):
        op = rng.randrange(3)
        pos = rng.randrange(span)
        if op == 0:
            chars[pos] = rng.choice(letters)
        elif op == 1 and span > 2:
            del chars[pos]
            span -= 1
        else:
            chars.insert(pos, rng.choice(letters))
            span += 1
    mutated = "".join(chars)
    if mutated == description:
        mutated = ("z" if description[0] != "z" else "q") + description[1:]
    return mutated


class _Counters:
    def __init__(self) -> None:
        self.phone = 0
        self.email = 0
        self.handle = 0
        self.url = 0

    def next_phone(self) -> str:
        self.phone += 1
        return f"55{self.phone + 3000000:08d}"

    def next_email(self, rng: random.Random) -> str:
        self.email += 1
        return f"{rng.choice(_NAMES)}{self.email}@{rng.choice(_EMAIL_DOMAINS)}"

    def next_handle(self, rng: random.Random) -> tuple[str, str]:
        self.handle += 1
        platform = rng.choice(sorted(_PLATFORM_WORDS))
        return platform, f"{rng.choice(_NAMES)}{self.handle}"

    def next_url(self, rng: random.Random) -> str:
        self.url += 1
        return f"http://{rng.choice(_URL_HOSTS)}/p{self.url}"


def _plan_component(
    size: int,
    rng: random.Random,
    counters: _Counters,
    far_pairs: list[tuple[str, str]],
    near_pairs: list[tuple[str, str]],
    cities: list[str],
) -> tuple[list[list[_PlannedIdentifier]], list[list[str]]]:
    """Identifiers and locations for each of the component's canonicals."""
    member_ids: list[list[_PlannedIdentifier]] = [[] for _ in range(size)]

    def non_phone_link() -> _PlannedIdentifier:
        if rng.random() < 0.6:
            platform, token = counters.next_handle(rng)
            return _PlannedIdentifier("social_handle", f"{platform}:{token}", platform, token)
        return _PlannedIdentifier("email", counters.next_email(rng))

    phone_hot = rng.random() < 0.3
    phones: list[_PlannedIdentifier] = []
    if size >= 2:
        link_phone = phone_hot and rng.random() < 0.8
        if rng.random() < 0.5:
            hub = non_phone_link() if not link_phone else _PlannedIdentifier("phone", counters.next_phone())
            if hub.kind == "phone":
                phones.append(hub)
            for member in member_ids:
                member.append(hub)
        else:
            for i in range(size - 1):
                if link_phone and i == 0:
                    link = _PlannedIdentifier("phone", counters.next_phone())
                    phones.append(link)
                else:
                    link = non_phone_link()
                member_ids[i].append(link)
                member_ids[i + 1].append(link)

    want_phones = 3 + rng.randint(0, 2) if phone_hot else rng.randint(0, 2)
    slot = 0
    while len(phones) < want_phones:
        ident = _PlannedIdentifier("phone", counters.next_phone())
        phones.append(ident)
        member_ids[slot % size].append(ident)
        slot += 1

    if rng.random() < 0.15:
        member_ids[rng.randrange(size)].append(_PlannedIdentifier("url", counters.next_url(rng)))

    span_hot = rng.random() < 0.3
    if span_hot:
        chosen = list(rng.choice(far_pairs))
        if rng.random() < 0.3:
            chosen.append(rng.choice(cities))
    elif rng.random() < 0.4:
        chosen = list(rng.choice(near_pairs))
    else:
        chosen = [rng.choice(cities)]

    member_locs: list[list[str]] = []
    for i in range(size):
        locs = [chosen[i % len(chosen)]]
        if size == 1:
            locs = list(chosen)
        elif len(chosen) > 1 and rng.random() < 0.3:
            locs.append(chosen[(i + 1) % len(chosen)])
        if rng.random() < 0.08:
            locs.append(rng.choice(_FAKE_PLACES))
        member_locs.append(locs)
    # every chosen city must actually appear on some member
    for j, city in enumerate(chosen):
        if size > 1 and all(city not in locs for locs in member_locs):
            member_locs[j % size].append(city)
    return member_ids, member_locs


def _compose_ad(
    idents: list[_PlannedIdentifier],
    city_mention: str | None,
    rng: random.Random,
    obf_rate: float,
) -> tuple[str, str, int]:
    """Return (title, description, body_length_in_description)."""
    title_words = [rng.choice(_VOCAB) for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.3:
        title_words.append(rng.choice(_EMOJIS))
    title = " ".join(title_words)

    body = f"{rng.choice(_GREETINGS)} its {rng.choice(_NAMES)} " + " ".join(_body_words(rng))
    pieces = [body]
    if city_mention and rng.random() < 0.5:
        pieces.append(f"visiting {city_mention} this week")
    ordered = sorted(idents, key=lambda x: ("phone", "social_handle", "email", "url").index(x.kind))
    pieces.extend(_render_identifier(ident, rng, obf_rate) for ident in ordered)
    pieces.append(rng.choice(_CLOSINGS))
    if rng.random() < 0.4:
        pieces.append(rng.choice(_EMOJIS))
    description = " ".join(pieces)
    return title, description, len(body)


def generate_corpus(spec: SynthSpec) -> tuple[list[AdRecord], GroundTruth]:
    """Build the full record list and its ground truth, in memory."""
    rng = random.Random(spec.seed)
    gazetteer = Gazetteer.bundled()
    cities = gazetteer.names()
    far_pairs: list[tuple[str, str]] = []
    near_pairs: list[tuple[str, str]] = []
    for i, a in enumerate(cities):
        pa = gazetteer.resolve(a)
        for b in cities[i + 1 :]:
            pb = gazetteer.resolve(b)
            d = haversine_miles(pa[0], pa[1], pb[0], pb[1])
            if d > _FAR_MILES:
                far_pairs.append((a, b))
            elif 0 < d < _NEAR_MILES:
                near_pairs.append((a, b))

    sizes = _canonical_sizes(spec, rng)
    n_canonical = sum(sizes)
    n_dup = spec.n_ads - n_canonical

    truth = GroundTruth()
    records: list[AdRecord] = []
    bodies: dict[str, int] = {}  # ad_id -> body length inside description
    ad_index = 0

    def next_id() -> str:
        nonlocal ad_index
        ad_index += 1
        return f"a{ad_index:06d}"

    counters = _Counters()
    for comp_idx, size in enumerate(sizes):
        member_idents, member_locs = _plan_component(
            size, rng, counters, far_pairs, near_pairs, cities
        )
        member_ad_ids: list[str] = []
        for i in range(size):
            ad_id = next_id()
            member_ad_ids.append(ad_id)
            real = [c for c in member_locs[i] if c not in _FAKE_PLACES]
            title, description, body_len = _compose_ad(
                member_idents[i], real[0] if real else None, rng, spec.obfuscation_rate
            )
            declared = None
            phones = [x for x in member_idents[i] if x.kind == "phone"]
            if phones and rng.random() < 0.5:
                p = phones[0].canonical
                declared = p if rng.random() < 0.5 else f"{p[:3]}-{p[3:6]}-{p[6:]}"
            records.append(
                AdRecord(
                    ad_id=ad_id,
                    title=title,
                    description=description,
                    posted_at=_BASE_TIME + timedelta(minutes=len(records)),
                    locations=list(member_locs[i]),
                    declared_phone=declared,
                    source="synth",
                )
            )
            bodies[ad_id] = body_len
            truth.planted_identifiers[ad_id] = [
                {"kind": x.kind, "canonical": x.canonical} for x in member_idents[i]
            ]
        truth.planted_components.append(sorted(member_ad_ids))

        span = 0.0
        coords = []
        unresolved = set()
        for locs in member_locs:
            for loc in locs:
                point = gazetteer.resolve(loc)
                if point is None:
                    unresolved.add(loc.strip().casefold())
                elif point not in coords:
                    coords.append(point)
        for i, p in enumerate(coords):
            for q in coords[i + 1 :]:
                span = max(span, haversine_miles(p[0], p[1], q[0], q[1]))
        idents = {f"{x.kind}:{x.canonical}" for ids in member_idents for x in ids}
        phone_count = len({k for k in idents if k.startswith("phone:")})
        fired = []
        if span > 300.0:
            fired.append("distance")
        if phone_count >= 3:
            fired.append("phones")
        truth.planted_htrp[min(member_ad_ids)] = {
            "member_canonicals": sorted(member_ad_ids),
            "label": 1 if fired else 0,
            "rule_trace": fired,
            "max_span_miles": span,
            "unique_phone_count": phone_count,
            "unique_identifier_count": len(idents),
            "unresolved_locations": len(unresolved),
        }

    cluster_members: dict[str, list[str]] = {r.ad_id: [r.ad_id] for r in records}
    cluster_method: dict[str, str] = {r.ad_id: "exact" for r in records}
    canonicals = list(records)
    for _ in range(n_dup):
        parent = canonicals[rng.randrange(len(canonicals))]
        ad_id = next_id()
        if rng.random() < 0.5:
            title, description = parent.title, parent.description
        else:
            title = parent.title
            description = _mutate_body(parent.description, bodies[parent.ad_id], rng)
            cluster_method[parent.ad_id] = "near"
        records.append(
            AdRecord(
                ad_id=ad_id,
                title=title,
                description=description,
                posted_at=_BASE_TIME + timedelta(minutes=len(records)),
                locations=list(parent.locations),
                declared_phone=parent.declared_phone,
                source="synth",
            )
        )
        cluster_members[parent.ad_id].append(ad_id)
        truth.planted_identifiers[ad_id] = [
            dict(x) for x in truth.planted_identifiers[parent.ad_id]
        ]

    for canonical in sorted(cluster_members):
        truth.planted_clusters.append(
            {
                "canonical_id": canonical,
                "member_ids": sorted(cluster_members[canonical]),
                "method": cluster_method[canonical],
            }
        )

    rng.shuffle(records)
    return records, truth
