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
written atomically, each manifest after its stage's outputs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, corpus, dedup, extract, synth
from .analysis import compare_label_variants
from .config import PipelineConfig, config_hash
from .corpus import atomic_open, from_row, to_row
from .errors import PipelineError
from .extract import Identifier
from .graph import (
    RelatednessGraph,
    build_graph,
    component_stats,
    export_dot,
    export_graphml,
    read_graph_json,
    stats_to_csv,
    write_graph_json,
)
from .label import LabeledAd, generate_oad_pairs, label_htrp, split_components, split_report

log = logging.getLogger("adgraph")

ARTIFACTS: dict[str, str] = {
    "records": "records.jsonl",
    "normalized": "normalized.jsonl",
    "rejects": "rejects.jsonl",
    "clusters": "clusters.jsonl",
    "identifiers": "identifiers.jsonl",
    "annotation_rejects": "annotation_rejects.jsonl",
    "graph": "graph.json",
    "stats": "component_stats.csv",
    "split": "split.json",
    "split_report": "split_report.json",
    "oad_pairs": "oad_pairs.jsonl",
    "htrp_labels": "htrp_labels.jsonl",
    "htrp_variant_labels": "htrp_labels_variant.jsonl",
    "compare_report": "compare_report.json",
    "graphml": "graph.graphml",
    "dot": "graph.dot",
    "synth_corpus": "corpus.jsonl",
    "ground_truth": "ground_truth.json",
}


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _pmap(fn: Callable, items: list, threads: int) -> list:
    # worker startup is not free; small batches run inline
    if threads <= 1 or len(items) < 512:
        return [fn(x) for x in items]
    # imported here: the pool module costs start-up that inline runs skip
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(64, len(items) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items, chunksize=chunk))


def _extract_worker(key: tuple[str | None, str, str]) -> list[Identifier]:
    return extract.extract_identifiers(*key)


def _rows(cls: type) -> Callable[[Path], list]:
    return lambda path: [from_row(cls, row) for row in corpus.read_jsonl(path)]


def _identifiers_by_ad(path: Path) -> dict[str, list[Identifier]]:
    out: dict[str, list[Identifier]] = {}
    for row in corpus.read_jsonl(path):
        ad_id = row.pop("ad_id")
        out.setdefault(ad_id, []).append(from_row(Identifier, row))
    return out


def _split_assignment(path: Path) -> dict[int, str]:
    """The assignment _run_split wrote; PipelineError if it is not one."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PipelineError(f"not valid json: {exc}") from exc
    try:
        return {int(cid): side for cid, side in data["components"].items()}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise PipelineError(f"not a split: {exc!r}") from exc


# how each artifact a stage reads is parsed; readers are looked up when
# called, so a wrapper installed on the module function sees every read
PARSERS: dict[str, Callable[[Path], object]] = {
    "records": _rows(corpus.AdRecord),
    "normalized": _rows(corpus.NormalizedAd),
    "clusters": _rows(dedup.DuplicateCluster),
    "identifiers": _identifiers_by_ad,
    "graph": lambda path: read_graph_json(path),
    "split": _split_assignment,
    "htrp_labels": _rows(LabeledAd),
}


class StageContext:
    """Workdir paths plus each input artifact, parsed once.

    A parse is cached under the sha256 that `_check_inputs` computed for
    the file, so a context shared by the stages of `run_all` parses each
    artifact once and never serves a parse of bytes other than those the
    manifests record. Stages must not mutate what `read` returns.
    """

    def __init__(self, cfg: PipelineConfig, force: bool = False):
        self.cfg = cfg
        self.workdir = cfg.workdir
        self.force = force
        # the running stage's input hashes, set by run_stage
        self.inputs: dict[str, str] = {}
        self.parsed: dict[tuple[str, str], object] = {}  # (artifact, sha256) -> parse

    def path(self, artifact: str) -> Path:
        return self.workdir / ARTIFACTS[artifact]

    def read(self, artifact: str):
        """The parsed artifact; it must be one of the running stage's inputs.

        A file its parser rejects, corrupt or in an older format, raises
        an error naming the stage that writes it and --force: while the
        file still matches that stage's manifest, only a forced run
        rewrites it.
        """
        key = (artifact, self.inputs[artifact])
        if key not in self.parsed:
            path = self.path(artifact)
            try:
                self.parsed[key] = PARSERS[artifact](path)
            except PipelineError as exc:
                producer = PRODUCER[artifact]
                raise PipelineError(
                    f"artifact {path.name} cannot be read ({exc}); "
                    f"rerun '{producer}' with --force"
                ) from exc
        return self.parsed[key]

    def write_json(self, artifact: str, obj: dict) -> None:
        with atomic_open(self.path(artifact)) as fh:
            json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=1)
            fh.write("\n")


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
    synth.generate(ctx.cfg.synth_spec(), ctx.workdir)


def _run_ingest(ctx: StageContext) -> None:
    path = _resolve_corpus(ctx.cfg)
    records, rejects = corpus.ingest(path, ctx.cfg.corpus_format)
    normalized = _pmap(corpus.normalize, records, ctx.cfg.threads)
    corpus.write_jsonl(ctx.path("records"), map(to_row, records))
    corpus.write_jsonl(ctx.path("rejects"), map(to_row, rejects))
    corpus.write_jsonl(ctx.path("normalized"), map(to_row, normalized))
    log.info("ingested %d records, rejected %d", len(records), len(rejects))


def _run_dedup(ctx: StageContext) -> None:
    posted = {r.ad_id: r.posted_at for r in ctx.read("records")}
    clusters = dedup.deduplicate(ctx.read("normalized"), ctx.cfg.similarity(), posted)
    corpus.write_jsonl(ctx.path("clusters"), map(to_row, clusters))
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
    found = dict(zip(distinct, _pmap(_extract_worker, distinct, ctx.cfg.threads)))
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

    rows = []
    for ad_id in sorted(ids_by_ad):
        for ident in ids_by_ad[ad_id]:
            rows.append({"ad_id": ad_id, **to_row(ident)})
    corpus.write_jsonl(ctx.path("identifiers"), rows)
    corpus.write_jsonl(ctx.path("annotation_rejects"), map(to_row, ann_rejects))
    log.info("%d identifiers across %d ads", len(rows), sum(1 for v in ids_by_ad.values() if v))


def _run_graph(ctx: StageContext) -> None:
    locations = {r.ad_id: r.locations for r in ctx.read("records")}
    graph = build_graph(
        ctx.read("clusters"),
        ctx.read("identifiers"),
        locations,
        quarantine_cap=ctx.cfg.quarantine_cap,
    )
    write_graph_json(graph, ctx.path("graph"))
    log.info(
        "%d nodes, %d edges, %d components",
        len(graph.nodes),
        len(graph.edges),
        len(graph.components),
    )


def _run_stats(ctx: StageContext) -> None:
    stats_to_csv(component_stats(ctx.read("graph")), ctx.path("stats"))


def _run_split(ctx: StageContext) -> None:
    graph = ctx.read("graph")
    cfg = ctx.cfg.labeling()
    assignment = split_components(graph, cfg)
    report = split_report(graph, assignment, cfg)
    ctx.write_json("split", {"components": {str(c): s for c, s in assignment.items()}})
    ctx.write_json("split_report", report)
    log.info(
        "split: %d train ads, %d test ads, deviation %.4f",
        report["train_ads"],
        report["test_ads"],
        report["deviation"],
    )


def _run_label_oad(ctx: StageContext) -> None:
    graph = ctx.read("graph")
    texts = {n.ad_id: n.norm_text for n in ctx.read("normalized") if n.ad_id in graph.component_of}
    pairs = generate_oad_pairs(graph, texts, ctx.cfg.labeling(), ctx.read("split"))
    corpus.write_jsonl(ctx.path("oad_pairs"), map(to_row, pairs))
    log.info("%d labeled pairs", len(pairs))


def _run_label_htrp(ctx: StageContext) -> None:
    labels = label_htrp(ctx.read("graph"), ctx.cfg.gazetteer(), ctx.cfg.labeling())
    corpus.write_jsonl(ctx.path("htrp_labels"), map(to_row, labels))
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
    graph = ctx.read("graph")
    baseline = ctx.read("htrp_labels")
    variant = label_htrp(graph, ctx.cfg.gazetteer(), ctx.cfg.labeling(variant=True))
    corpus.write_jsonl(ctx.path("htrp_variant_labels"), map(to_row, variant))
    report = compare_label_variants(baseline, variant, _strata_map(ctx, graph))
    ctx.write_json("compare_report", report)


def _run_export(ctx: StageContext) -> None:
    graph = ctx.read("graph")
    comp = ctx.cfg.export_component
    wanted = _export_outputs(ctx.cfg)
    for fmt, export in (("graphml", export_graphml), ("dot", export_dot)):
        if fmt in wanted:
            export(graph, ctx.path(fmt), component=comp)
        else:
            # an earlier run's file in a format no longer asked for would
            # sit beside a manifest that does not list it
            ctx.path(fmt).unlink(missing_ok=True)


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


# the label keys the HTRP rules read; compare relabels under the variant
# thresholds in `analysis` on top of them
_HTRP_KEYS = (
    "label.distance_threshold_miles",
    "label.phone_count_threshold",
    "label.rule_combination",
    "label.feature_scope",
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
        StageDef("label-htrp", ("graph",), ("htrp_labels",), _run_label_htrp, config=_HTRP_KEYS),
        StageDef(
            "compare",
            ("graph", "htrp_labels", "records"),
            ("htrp_variant_labels", "compare_report"),
            _run_compare,
            config=(*_HTRP_KEYS, "analysis"),
        ),
        StageDef("export", ("graph",), ("graphml", "dot"), _run_export, config=("export",)),
    )
}

PRODUCER: dict[str, str] = {
    art: s.name for s in STAGES.values() for art in s.outputs
}

ALL_CHAIN = (
    "ingest",
    "dedup",
    "extract",
    "graph",
    "stats",
    "split",
    "label-oad",
    "label-htrp",
    "compare",
    "export",
)


def manifest_path(workdir: Path, stage: str) -> Path:
    return workdir / "manifests" / f"{stage}.json"


def _read_manifest(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return None


def _external_inputs(name: str, cfg: PipelineConfig) -> dict[str, Path]:
    out: dict[str, Path] = {}
    if name == "ingest":
        out["corpus"] = _resolve_corpus(cfg)
    if name == "extract" and cfg.annotations_path is not None:
        out["annotations"] = cfg.annotations_path
    if name in ("label-htrp", "compare") and cfg.raw["gazetteer"]:
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
        hashes[name] = _sha256_file(p)
        if ctx.force:
            continue
        man = _read_manifest(manifest_path(ctx.workdir, producer))
        if man is None:
            raise PipelineError(
                f"artifact {p.name} has no manifest from stage '{producer}'; "
                f"rerun '{producer}' or pass --force"
            )
        if man.get("outputs", {}).get(name) != hashes[name]:
            raise PipelineError(
                f"artifact {p.name} does not match the manifest written by "
                f"stage '{producer}' (stale or edited); rerun '{producer}' "
                "or pass --force"
            )
    for name, p in _external_inputs(stage.name, ctx.cfg).items():
        if not p.exists():
            raise PipelineError(f"input file not found: {p}")
        hashes[name] = _sha256_file(p)
    return hashes


def _is_fresh(stage: StageDef, ctx: StageContext, input_hashes: dict[str, str]) -> bool:
    man = _read_manifest(manifest_path(ctx.workdir, stage.name))
    if man is None:
        return False
    if man.get("config_hash") != stage.config_hash(ctx.cfg) or man.get("version") != __version__:
        return False
    if man.get("inputs", {}) != input_hashes:
        return False
    expected = set(stage.expected_outputs(ctx.cfg))
    recorded = man.get("outputs", {})
    if set(recorded) != expected:
        return False
    for name, digest in recorded.items():
        p = ctx.path(name)
        if not p.exists() or _sha256_file(p) != digest:
            return False
    return True


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
    stage.fn(ctx)

    outputs = {}
    for art in stage.expected_outputs(cfg):
        p = ctx.path(art)
        if not p.exists():
            raise PipelineError(f"stage '{name}' did not write {p.name}")
        outputs[art] = _sha256_file(p)
    manifest = {
        "stage": name,
        "version": __version__,
        "config_hash": stage.config_hash(cfg),
        "inputs": input_hashes,
        "outputs": outputs,
    }
    # written last: a run that fails before here leaves the previous manifest,
    # which no longer matches any output the run replaced, so the stage reruns
    with atomic_open(manifest_path(ctx.workdir, name)) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")

    elapsed = time.perf_counter() - start
    log.info("[%s] finished in %.2fs", name, elapsed)
    return {"stage": name, "seconds": elapsed, "ran": True}


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
