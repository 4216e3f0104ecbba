"""Stage orchestration: artifacts, manifests, staleness checks.

Every stage reads artifacts from the workdir and writes artifacts plus a
manifest holding sha256 hashes of its inputs and outputs, a hash of the
config keys the stage reads, and the package version. No timestamps:
reruns with the same inputs and config produce byte-identical files. A
stage is up to date, and skipped, when its manifest still matches its
inputs, its config keys and its outputs, so a setting reruns only the
stages that read it and those whose inputs then change. A stage refuses
to run when an input artifact no longer matches the manifest of the
stage that produced it, unless forced. Artifacts and manifests are
written atomically, each manifest after its stage's outputs. An
artifact's file name, writer and parser are one entry in FORMATS. Every
artifact and manifest is a dataclass written by corpus.to_row and parsed
by corpus.from_row, which checks each value against its field's type
hint to any depth; a reader in the same context gets the object that the
writer encoded. An input that cannot be used, unreadable or at odds with
the stage's other inputs (an ad_id repeated in dedup's input, a row of
graph's that contradicts the clusters), stops the stage with one error
naming the file and the stage that writes it.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, corpus, dedup, extract, synth
from .analysis import compare_label_variants
from .config import PipelineConfig, config_hash
from .corpus import from_row, to_row
from .errors import ConfigError, PipelineError
from .graph import InconsistentInput, RelatednessGraph, build_graph, component_stats, export_dot, export_graphml, stats_to_csv
from .label import LabeledAd, Split, generate_oad_pairs, label_htrp, relabel, split_components, split_report

log = logging.getLogger("adgraph")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _pmap(fn: Callable, arg_tuples: list[tuple], threads: int) -> list:
    """fn applied to each tuple of arguments, in order."""
    # worker startup is not free; small batches run inline
    if threads <= 1 or len(arg_tuples) < 512:
        return [fn(*args) for args in arg_tuples]
    # imported here: the pool module costs start-up that inline runs skip
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(64, len(arg_tuples) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, *zip(*arg_tuples), chunksize=chunk))


def _jsonl(path: Path, objs) -> None:
    corpus.write_jsonl(path, map(to_row, objs))


def _rows(cls: type) -> Callable[[Path], list]:
    return lambda path: [from_row(cls, row) for row in corpus.read_jsonl(path)]


def _json(path: Path, obj) -> None:
    corpus.write_json(path, to_row(obj))


def _document(cls: type) -> Callable[[Path], object]:
    return lambda path: from_row(cls, corpus.read_json(path))


@dataclass(frozen=True)
class Artifact:
    """An artifact's file name, its writer (path, object), and its parser
    if a stage reads it: what a stage writes must be what the parse returns."""

    file: str
    write: Callable[[Path, object], None]
    parse: Callable[[Path], object] | None = None


# writers and parsers look module functions up when called, so a wrapper
# installed on one sees every write and read
FORMATS: dict[str, Artifact] = {
    "records": Artifact("records.jsonl", _jsonl, _rows(corpus.AdRecord)),
    "normalized": Artifact("normalized.jsonl", _jsonl, _rows(corpus.NormalizedAd)),
    "rejects": Artifact("rejects.jsonl", _jsonl),
    "clusters": Artifact("clusters.jsonl", _jsonl, _rows(dedup.DuplicateCluster)),
    # only ads with identifiers, in ad_id order
    "identifiers": Artifact("identifiers.jsonl", _jsonl, _rows(extract.AdIdentifier)),
    "annotation_rejects": Artifact("annotation_rejects.jsonl", _jsonl),
    "graph": Artifact("graph.json", _json, _document(RelatednessGraph)),
    "stats": Artifact("component_stats.csv", lambda path, stats: stats_to_csv(stats, path)),
    "split": Artifact("split.json", _json, _document(Split)),
    "split_report": Artifact("split_report.json", corpus.write_json),
    "oad_pairs": Artifact("oad_pairs.jsonl", _jsonl),
    "htrp_labels": Artifact("htrp_labels.jsonl", _jsonl, _rows(LabeledAd)),
    "htrp_variant_labels": Artifact("htrp_labels_variant.jsonl", _jsonl),
    "compare_report": Artifact("compare_report.json", corpus.write_json),
    # an export is written from (graph, component)
    "graphml": Artifact("graph.graphml", lambda path, view: export_graphml(view[0], path, component=view[1])),
    "dot": Artifact("graph.dot", lambda path, view: export_dot(view[0], path, component=view[1])),
    "synth_corpus": Artifact("corpus.jsonl", _jsonl),
    "ground_truth": Artifact("ground_truth.json", _json),
}

ARTIFACTS: dict[str, str] = {name: art.file for name, art in FORMATS.items()}

# how each artifact a stage reads is parsed
PARSERS: dict[str, Callable[[Path], object]] = {
    name: art.parse for name, art in FORMATS.items() if art.parse is not None
}


class StageContext:
    """Workdir paths plus each input artifact, parsed at most once.

    A stage writes each output through `write`, which keeps the object it
    was given under the sha256 of the file written when a later stage
    reads that artifact; a parse is kept under the sha256 that
    `_check_inputs` computed for the file. Either is served only to a
    reader whose input hashes the same, so a context shared by the stages
    of `run_all` parses only artifacts written in another process and
    never serves an object for bytes other than those the manifests
    record: a reader gets the object that the writer encoded. Stages must
    not mutate what `read` returns or what they have written.
    """

    def __init__(self, cfg: PipelineConfig, force: bool = False):
        self.cfg = cfg
        self.workdir = cfg.workdir
        self.force = force
        # the running stage's input hashes, set by run_stage
        self.inputs: dict[str, str] = {}
        # the running stage's output hashes, set by write
        self.outputs: dict[str, str] = {}
        self.parsed: dict[tuple[str, str], object] = {}  # (artifact, sha256) -> parse
        # (path, inode, size, mtime) -> sha256 of each file hashed or written
        self.digests: dict[tuple[Path, int, int, int], str] = {}

    def digest(self, path: Path) -> str:
        """The file's sha256, hashed again only when its inode, size or
        modification time differs from when it was last hashed here."""
        st = path.stat()
        key = (path, st.st_ino, st.st_size, st.st_mtime_ns)
        if key not in self.digests:
            self.digests[key] = _sha256_file(path)
        return self.digests[key]

    def path(self, artifact: str) -> Path:
        return self.workdir / ARTIFACTS[artifact]

    def read(self, artifact: str):
        """The parsed artifact; it must be one of the running stage's inputs.

        A file its parser rejects, corrupt, not UTF-8 or in an older
        format, raises an error naming the stage that writes it and
        --force: while the file still matches that stage's manifest, only
        a forced run rewrites it.
        """
        key = (artifact, self.inputs[artifact])
        if key not in self.parsed:
            path = self.path(artifact)
            try:
                self.parsed[key] = PARSERS[artifact](path)
            except (PipelineError, UnicodeDecodeError) as exc:
                raise self.unreadable(artifact, exc) from exc
        return self.parsed[key]

    def write(self, artifact: str, obj) -> None:
        """Write obj as one of the running stage's outputs, with its
        artifact's writer; keep it for the readers if the artifact has any."""
        path = self.path(artifact)
        FORMATS[artifact].write(path, obj)
        self.outputs[artifact] = digest = self.digest(path)
        if artifact in PARSERS:
            self.parsed[(artifact, digest)] = obj

    def unreadable(self, artifact: str, reason) -> PipelineError:
        """The error for an input artifact that cannot be used as it is."""
        return PipelineError(
            f"artifact {self.path(artifact).name} cannot be read ({reason}); "
            f"rerun '{PRODUCER[artifact]}' with --force"
        )


def _resolve_corpus(cfg: PipelineConfig) -> Path:
    if cfg.corpus_path is not None:
        return cfg.corpus_path
    fallback = cfg.workdir / ARTIFACTS["synth_corpus"]
    if fallback.exists():
        log.info("corpus.path not set, using %s", fallback)
        return fallback
    raise PipelineError(
        "no corpus configured: set corpus.path (or --corpus), "
        "or run the 'synth' stage first"
    )


# ---------------------------------------------------------------- stages


def _run_synth(ctx: StageContext) -> None:
    records, truth = synth.generate_corpus(ctx.cfg.synth_spec())
    ctx.write("synth_corpus", records)
    ctx.write("ground_truth", truth)


def _run_ingest(ctx: StageContext) -> None:
    path = _resolve_corpus(ctx.cfg)
    records, rejects = corpus.ingest(path, ctx.cfg.corpus_format)
    # in-process at any thread count: pickling each record to a worker
    # costs more than normalizing it. Each distinct text is normalized
    # once; its reposts share the normalized string
    first_by_text: dict[str, corpus.NormalizedAd] = {}
    normalized = []
    for r in records:
        text = corpus.build_original_text(r.title, r.description)
        first = first_by_text.get(text)
        if first is None:
            first_by_text[text] = first = corpus.normalize(r)
            normalized.append(first)
        else:
            normalized.append(corpus.NormalizedAd(r.ad_id, first.norm_text, first.emoji_count))
    del first_by_text  # its keys, the original texts, are held by no later stage
    ctx.write("records", records)
    ctx.write("rejects", rejects)
    ctx.write("normalized", normalized)
    log.info("ingested %d records, rejected %d", len(records), len(rejects))


def _run_dedup(ctx: StageContext) -> None:
    posted = {r.ad_id: r.posted_at for r in ctx.read("records")}
    normalized, cfg = ctx.read("normalized"), ctx.cfg.similarity()
    try:
        clusters = dedup.deduplicate(normalized, cfg, posted)
    except ValueError as exc:  # an ad_id repeated
        raise ctx.unreadable("normalized", exc) from exc
    ctx.write("clusters", clusters)
    near = sum(1 for c in clusters if c.method == "near")
    log.info("%d clusters (%d near-duplicate)", len(clusters), near)


def _run_extract(ctx: StageContext) -> None:
    records = ctx.read("records")
    norm_text = {n.ad_id: n.norm_text for n in ctx.read("normalized")}
    # a key is extract_identifiers' arguments, so reposts share one call
    # and one (never mutated) identifier list
    keys = [
        (r.declared_phone, corpus.build_original_text(r.title, r.description), norm_text[r.ad_id])
        for r in records
    ]
    distinct = list(dict.fromkeys(keys))
    found = dict(zip(distinct, _pmap(extract.extract_identifiers, distinct, ctx.cfg.threads)))
    ids_by_ad = {r.ad_id: found[key] for r, key in zip(records, keys)}

    ann_rejects: list = []
    if ctx.cfg.annotations_path is not None:
        annotated, ann_rejects = extract.import_annotations(
            ctx.cfg.annotations_path, {r.ad_id: key[1] for r, key in zip(records, keys)}
        )
        for ad_id, idents in annotated.items():
            ids_by_ad[ad_id] = extract.merge_identifiers(
                ids_by_ad.get(ad_id, []), idents
            )

    del keys, distinct, found, norm_text  # so that the rows can take the texts' memory
    rows = [extract.AdIdentifier(ad_id, i.kind, i.raw, i.canonical, i.start, i.end)
            for ad_id in sorted(ids_by_ad) for i in ids_by_ad[ad_id]]
    ctx.write("identifiers", rows)
    ctx.write("annotation_rejects", ann_rejects)
    log.info("%d identifiers across %d ads", len(rows), sum(1 for ids in ids_by_ad.values() if ids))


def _run_graph(ctx: StageContext) -> None:
    clusters, identifiers, records = ctx.read("clusters"), ctx.read("identifiers"), ctx.read("records")
    try:
        graph = build_graph(clusters, identifiers, records, ctx.cfg.quarantine_cap)
    except InconsistentInput as exc:
        raise ctx.unreadable(exc.artifact, exc) from exc
    ctx.write("graph", graph)
    log.info("%d nodes, %d edges, %d components", len(graph.nodes), len(graph.edges), len(graph.components))


def _run_stats(ctx: StageContext) -> None:
    ctx.write("stats", component_stats(ctx.read("graph")))


def _run_split(ctx: StageContext) -> None:
    graph = ctx.read("graph")
    cfg = ctx.cfg.labeling()
    assignment = dict(sorted(split_components(graph, cfg).items()))
    report = split_report(graph, assignment, cfg)
    ctx.write("split", Split(assignment))
    ctx.write("split_report", report)
    log.info(
        "split: %d train ads, %d test ads, deviation %.4f",
        report["train_ads"],
        report["test_ads"],
        report["deviation"],
    )


def _run_label_oad(ctx: StageContext) -> None:
    graph = ctx.read("graph")
    split = ctx.read("split").components
    if split.keys() != graph.components.keys():
        raise ctx.unreadable("split", "its components are not the graph's")
    texts = {n.ad_id: n.norm_text for n in ctx.read("normalized") if n.ad_id in graph.component_of}
    pairs = generate_oad_pairs(graph, texts, ctx.cfg.labeling(), split)
    ctx.write("oad_pairs", pairs)
    log.info("%d labeled pairs", len(pairs))


def _run_label_htrp(ctx: StageContext) -> None:
    labels = label_htrp(ctx.read("graph"), ctx.cfg.gazetteer(), ctx.cfg.labeling())
    ctx.write("htrp_labels", labels)
    pos = sum(a.label for a in labels)
    log.info("%d ads labeled, %d positive", len(labels), pos)


def _strata_map(ctx: StageContext, graph: RelatednessGraph) -> dict[str, str]:
    key = ctx.cfg.strata_key
    out: dict[str, str] = {}
    if key == "location":
        for node in graph.nodes:
            locs = sorted(
                {s.strip().casefold() for s in graph.node_locations.get(node, []) if s.strip()}
            )
            out[node] = locs[0] if locs else "(none)"
    else:
        by_id = {r.ad_id: r for r in ctx.read("records")}
        for node in graph.nodes:
            rec = by_id.get(node)
            out[node] = rec.source if rec and rec.source else "(none)"
    return out


def _run_compare(ctx: StageContext) -> None:
    # the variant judges label-htrp's features by other rule thresholds
    baseline = ctx.read("htrp_labels")
    variant = relabel(baseline, ctx.cfg.labeling(variant=True))
    ctx.write("htrp_variant_labels", variant)
    report = compare_label_variants(baseline, variant, _strata_map(ctx, ctx.read("graph")))
    ctx.write("compare_report", report)


def _run_export(ctx: StageContext) -> None:
    graph = ctx.read("graph")
    comp = ctx.cfg.export_component
    if comp is not None and comp not in graph.components:
        raise ConfigError(
            f"export.component: no component {comp} in graph.json, "
            f"which has {len(graph.components)} components"
        )
    for fmt in _export_outputs(ctx.cfg):
        ctx.write(fmt, (graph, comp))


def _export_outputs(cfg: PipelineConfig) -> tuple[str, ...]:
    fmt = cfg.export_format
    if fmt == "both":
        return ("graphml", "dot")
    return ("graphml",) if fmt == "graphml" else ("dot",)


@dataclass(frozen=True)
class StageDef:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable[[StageContext], None]
    # dotted config keys (a leaf or a whole section) the stage reads; file
    # locations enter only as content hashes, through _external_inputs
    config: tuple[str, ...]

    def config_hash(self, cfg: PipelineConfig) -> str:
        return config_hash(cfg.raw, self.config)

    def expected_outputs(self, cfg: PipelineConfig) -> tuple[str, ...]:
        if self.name == "export":
            return _export_outputs(cfg)
        return self.outputs


# the label keys the HTRP rules read; compare relabels label-htrp's
# features under the variant thresholds in `analysis` on top of them
_RULE_KEYS = (
    "label.distance_threshold_miles",
    "label.phone_count_threshold",
    "label.rule_combination",
)

STAGES: dict[str, StageDef] = {
    s.name: s
    for s in (
        StageDef(
            "synth", (), ("synth_corpus", "ground_truth"), _run_synth, config=("seed", "synth")
        ),
        StageDef(
            "ingest",
            (),
            ("records", "normalized", "rejects"),
            _run_ingest,
            config=("corpus.format",),
        ),
        StageDef(
            "dedup", ("records", "normalized"), ("clusters",), _run_dedup, config=("seed", "dedup")
        ),
        StageDef(
            "extract",
            ("records", "normalized"),
            ("identifiers", "annotation_rejects"),
            _run_extract,
            config=(),
        ),
        StageDef(
            "graph",
            ("clusters", "identifiers", "records"),
            ("graph",),
            _run_graph,
            config=("graph",),
        ),
        StageDef("stats", ("graph",), ("stats",), _run_stats, config=()),
        StageDef(
            "split",
            ("graph",),
            ("split", "split_report"),
            _run_split,
            config=("seed", "label.split_ratio"),
        ),
        StageDef(
            "label-oad",
            ("graph", "split", "normalized"),
            ("oad_pairs",),
            _run_label_oad,
            config=(
                "seed",
                "label.pair_sim_threshold",
                "label.pairs_per_class",
                "label.include_giant_component",
            ),
        ),
        StageDef(
            "label-htrp",
            ("graph",),
            ("htrp_labels",),
            _run_label_htrp,
            config=(*_RULE_KEYS, "label.feature_scope"),
        ),
        StageDef(
            "compare",
            ("graph", "htrp_labels", "records"),
            ("htrp_variant_labels", "compare_report"),
            _run_compare,
            config=(*_RULE_KEYS, "analysis"),
        ),
        StageDef("export", ("graph",), ("graphml", "dot"), _run_export, config=("export",)),
    )
}

PRODUCER: dict[str, str] = {
    art: s.name for s in STAGES.values() for art in s.outputs
}

# every stage but synth, in STAGES order
ALL_CHAIN = tuple(name for name in STAGES if name != "synth")


def manifest_path(workdir: Path, stage: str) -> Path:
    return workdir / "manifests" / f"{stage}.json"


@dataclass
class Manifest:
    """What one run of a stage read and wrote, each file by its sha256."""

    stage: str
    version: str
    config_hash: str
    inputs: dict[str, str]
    outputs: dict[str, str]


def _read_manifest(path: Path) -> Manifest | None:
    """The manifest at path; None if it is missing or not a manifest."""
    try:
        return from_row(Manifest, corpus.read_json(path))
    except (OSError, PipelineError, UnicodeDecodeError):
        return None


def _external_inputs(name: str, cfg: PipelineConfig) -> dict[str, Path]:
    out: dict[str, Path] = {}
    if name == "ingest":
        out["corpus"] = _resolve_corpus(cfg)
    if name == "extract" and cfg.annotations_path is not None:
        out["annotations"] = cfg.annotations_path
    if name == "label-htrp" and cfg.raw["gazetteer"]:
        out["gazetteer"] = Path(cfg.raw["gazetteer"])
    return out


def _check_inputs(stage: StageDef, ctx: StageContext) -> dict[str, str]:
    """Validate inputs against producer manifests; return their hashes."""
    hashes: dict[str, str] = {}
    for name in stage.inputs:
        p = ctx.path(name)
        producer = PRODUCER[name]
        if not p.exists():
            raise PipelineError(
                f"missing artifact {p.name}; run the '{producer}' stage first"
            )
        hashes[name] = ctx.digest(p)
        if ctx.force:
            continue
        man = _read_manifest(manifest_path(ctx.workdir, producer))
        if man is None:
            raise PipelineError(
                f"artifact {p.name} has no manifest from stage '{producer}'; "
                f"rerun '{producer}' or pass --force"
            )
        if man.outputs.get(name) != hashes[name]:
            raise PipelineError(
                f"artifact {p.name} does not match the manifest written by "
                f"stage '{producer}' (stale or edited); rerun '{producer}' "
                "or pass --force"
            )
    for name, p in _external_inputs(stage.name, ctx.cfg).items():
        if not p.is_file():
            why = "is not a file" if p.exists() else "not found"
            raise PipelineError(f"input {name} {why}: {p}")
        hashes[name] = ctx.digest(p)
    return hashes


def _is_fresh(stage: StageDef, ctx: StageContext, input_hashes: dict[str, str]) -> bool:
    man = _read_manifest(manifest_path(ctx.workdir, stage.name))
    if man is None or man.version != __version__ or man.config_hash != stage.config_hash(ctx.cfg):
        return False
    if man.inputs != input_hashes or set(man.outputs) != set(stage.expected_outputs(ctx.cfg)):
        return False
    for name, digest in man.outputs.items():
        p = ctx.path(name)
        if not p.exists() or ctx.digest(p) != digest:
            return False
    return True


# A stage allocates millions of objects that live until the chain ends and
# form almost no cycles, so every full collection would rescan all of them
# to free next to nothing. While stages run, the young generation is
# collected every 100,000 net allocations and a full collection waits for
# 1,000 middle ones, which a chain never reaches.
_CHAIN_GC_THRESHOLD = (100_000, 50, 1000)


@contextmanager
def _collector_held():
    """Raise the collector's thresholds, and give the caller back theirs after.

    It neither disables nor freezes: the interpreter is shared with the
    caller, and is left as it was found.
    """
    saved = gc.get_threshold()
    gc.set_threshold(*_CHAIN_GC_THRESHOLD)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@_collector_held()
def run_stage(
    name: str, cfg: PipelineConfig, force: bool = False, ctx: StageContext | None = None
) -> dict:
    """Run one stage unless it is up to date, in run_all's context or its own."""
    if name not in STAGES:
        raise PipelineError(f"unknown stage: {name}")
    stage = STAGES[name]
    ctx = ctx or StageContext(cfg, force=force)
    ctx.workdir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    input_hashes = _check_inputs(stage, ctx)
    if not force and _is_fresh(stage, ctx, input_hashes):
        log.info("[%s] up to date, skipping", name)
        return {"stage": name, "seconds": time.perf_counter() - start, "ran": False}

    ctx.inputs = input_hashes
    ctx.outputs = {}
    stage.fn(ctx)

    expected = stage.expected_outputs(cfg)
    for art in stage.outputs:
        if art not in expected:
            # an earlier run's file that this config no longer asks for
            # would sit beside a manifest that does not list it
            ctx.path(art).unlink(missing_ok=True)
        elif art not in ctx.outputs:
            raise PipelineError(f"stage '{name}' did not write {ctx.path(art).name}")
    outputs = {art: ctx.outputs[art] for art in expected}
    # written last: a run that fails before here leaves the previous manifest,
    # which no longer matches any output the run replaced, so the stage reruns
    manifest = Manifest(name, __version__, stage.config_hash(cfg), input_hashes, outputs)
    _json(manifest_path(ctx.workdir, name), manifest)

    elapsed = time.perf_counter() - start
    log.info("[%s] finished in %.2fs", name, elapsed)
    return {"stage": name, "seconds": elapsed, "ran": True}


@_collector_held()
def run_all(cfg: PipelineConfig, force: bool = False) -> list[dict]:
    ctx = StageContext(cfg, force=force)
    results = []
    for i, name in enumerate(ALL_CHAIN):
        if name in ("compare", "export") and not cfg.stage_enabled(name):
            # an earlier run's outputs would outlive the graph they describe
            for art in STAGES[name].outputs:
                (cfg.workdir / ARTIFACTS[art]).unlink(missing_ok=True)
            manifest_path(cfg.workdir, name).unlink(missing_ok=True)
            log.info("[%s] disabled, skipping", name)
            continue
        results.append(run_stage(name, cfg, force=force, ctx=ctx))
        # a parse no later stage reads would only hold memory
        later = {art for s in ALL_CHAIN[i + 1 :] for art in STAGES[s].inputs}
        ctx.parsed = {key: obj for key, obj in ctx.parsed.items() if key[0] in later}
    return results
