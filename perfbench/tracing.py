"""Span tracing of one in-process adgraph chain, and the per-layer metrics
read from the spans.

The tracer wraps the public functions of each adgraph module from
outside the package: every module attribute bound to a traced function
is replaced, so a name imported into another module (`count_emoji` in
`corpus`, `similarity` in `label`, `build_graph` in `pipeline`) is
wrapped where it is looked up. Each wrapper records a span (name,
parent, start, end, and a small note about the call). Spans stay in
memory and are written out when the run ends, outside the workdir, so
the chain's artifacts stay byte-identical to an untraced run.

Run as a script, it executes one `adgraph` command line in this
process under the tracer and writes every span as JSON:

    python3 perfbench/tracing.py --spans SPANS.json -- all --workdir W --corpus C
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# pipeline.ALL_CHAIN, spelled out: the pipeline.<stage>_* metric names
# are fixed by BENCHMARK.json
STAGES = (
    "ingest", "dedup", "extract", "graph", "stats",
    "split", "label-oad", "label-htrp", "compare", "export",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dedup_threshold(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return {"threshold": cfg.dup_threshold if cfg is not None else 0.9}


def _identifier_kinds(args, kwargs, result):
    kinds: dict[str, int] = {}
    for ident in result:
        kinds[ident.kind] = kinds.get(ident.kind, 0) + 1
    return kinds


# (module, function) -> note taken from the call's arguments and result
TRACED = {
    ("corpus", "ingest"): lambda a, k, r: {"records": len(r[0]), "rejects": len(r[1])},
    ("corpus", "normalize"): None,
    ("corpus", "read_jsonl"): lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    ("corpus", "write_jsonl"): None,
    ("emoji", "count_emoji"): None,
    ("dedup", "deduplicate"): _dedup_threshold,
    ("dedup", "candidate_pairs"): lambda a, k, r: {"texts": len(a[0]), "pairs": len(r)},
    ("dedup", "minhash_signature"): None,
    ("dedup", "levenshtein"): lambda a, k, r: {"d": r, "longest": max(len(a[0]), len(a[1]))},
    ("dedup", "similarity"): None,
    ("extract", "extract_identifiers"): _identifier_kinds,
    ("extract", "deobfuscate_phone"): None,
    ("graph", "build_graph"): lambda a, k, r: {
        "nodes": len(r.nodes), "edges": len(r.edges), "components": len(r.components)
    },
    ("graph", "read_graph_json"): None,
    ("graph", "write_graph_json"): None,
    ("graph", "export_graphml"): None,
    ("graph", "export_dot"): None,
    ("label", "split_components"): None,
    ("label", "generate_oad_pairs"): lambda a, k, r: {"pairs": len(r)},
    ("label", "label_htrp"): None,
    ("analysis", "compare_label_variants"): None,
    ("synth", "generate"): None,
    ("pipeline", "run_stage"): lambda a, k, r: {**r, "rss_mb": _rss_mb()},
}


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    spans[idx][4] = note(args, kwargs, result)
                return result
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever an adgraph module binds it."""
        import adgraph.cli  # noqa: F401  (loads every module the chain uses)
        from adgraph import pipeline

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("adgraph")]
        undo = []
        for (mod, fn_name), note in TRACED.items():
            original = getattr(sys.modules[f"adgraph.{mod}"], fn_name, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            wrapper = self.wrap(f"{mod}.{fn_name}", original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        saved_stages = dict(pipeline.STAGES)
        for name, stage in saved_stages.items():
            pipeline.STAGES[name] = dataclasses.replace(
                stage, fn=self.wrap(f"stage.{name}", stage.fn)
            )
        try:
            yield self
        finally:
            pipeline.STAGES.update(saved_stages)
            for module, attr, value in undo:
                setattr(module, attr, value)


# ---------------------------------------------------------------- metrics

SECONDS, COUNT, RATIO, MB = "s", "count", "ratio", "MB"


def _self_and_total(spans: list[list]) -> tuple[list[float], list[float]]:
    total = [end - start for _, _, start, end, _ in spans]
    self_time = list(total)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            self_time[span[1]] -= total[i]
    return self_time, total


def layer_metrics(chain: list[list], synth: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the chain's spans and a traced synth's spans.

    Times are summed self time (a span minus its traced children) unless
    named otherwise: `dedup.deduplicate_s` is the whole dedup call and
    `dedup.filter_s` its self time; `label.similarity_s` includes the
    edit distance it calls.
    """
    self_time, total = _self_and_total(chain)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(chain):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(self_time[i] for n in names for i in idx(n))

    def total_s(name):
        return sum(total[i] for i in idx(name))

    def note_sum(name, key):
        return sum((chain[i][4] or {}).get(key, 0) for i in idx(name))

    out: dict[str, tuple[float, str]] = {}
    stage_runs = {chain[i][4]["stage"]: chain[i][4] for i in idx("pipeline.run_stage")}
    for stage in STAGES:
        run = stage_runs.get(stage, {})
        out[f"pipeline.{stage}_s"] = (run.get("seconds", 0.0), SECONDS)
    body = {name[len("stage."):]: total[i] for i, (name, *_) in enumerate(chain) if name.startswith("stage.")}
    overhead = sum(total[i] - body.get(chain[i][4]["stage"], 0.0) for i in idx("pipeline.run_stage"))
    out["pipeline.overhead_s"] = (overhead, SECONDS)
    out["pipeline.stages_ran"] = (sum(1 for r in stage_runs.values() if r["ran"]), COUNT)
    for stage in STAGES:
        out[f"pipeline.{stage}_rss_mb"] = (stage_runs.get(stage, {}).get("rss_mb", 0.0), MB)

    out["corpus.ingest_s"] = (self_s("corpus.ingest"), SECONDS)
    out["corpus.normalize_s"] = (self_s("corpus.normalize"), SECONDS)
    out["corpus.read_jsonl_s"] = (self_s("corpus.read_jsonl"), SECONDS)
    out["corpus.read_jsonl_calls"] = (len(idx("corpus.read_jsonl")), COUNT)
    out["corpus.read_jsonl_mb"] = (note_sum("corpus.read_jsonl", "bytes") / 2**20, MB)
    out["corpus.write_jsonl_s"] = (self_s("corpus.write_jsonl"), SECONDS)
    out["corpus.records"] = (note_sum("corpus.ingest", "records"), COUNT)
    out["corpus.rejects"] = (note_sum("corpus.ingest", "rejects"), COUNT)

    out["emoji.count_emoji_s"] = (self_s("emoji.count_emoji"), SECONDS)

    dedup_calls = set(idx("dedup.deduplicate"))
    verify = [i for i in idx("dedup.levenshtein") if chain[i][1] in dedup_calls]
    merges = sum(
        1
        for i in verify
        if 1.0 - chain[i][4]["d"] / chain[i][4]["longest"] >= chain[chain[i][1]][4]["threshold"]
    )
    candidates = note_sum("dedup.candidate_pairs", "pairs")
    out["dedup.deduplicate_s"] = (total_s("dedup.deduplicate"), SECONDS)
    out["dedup.candidate_pairs_s"] = (self_s("dedup.candidate_pairs"), SECONDS)
    out["dedup.minhash_s"] = (self_s("dedup.minhash_signature"), SECONDS)
    out["dedup.levenshtein_s"] = (sum(self_time[i] for i in verify), SECONDS)
    out["dedup.levenshtein_calls"] = (len(verify), COUNT)
    out["dedup.filter_s"] = (self_s("dedup.deduplicate"), SECONDS)
    out["dedup.distinct_texts"] = (note_sum("dedup.candidate_pairs", "texts"), COUNT)
    out["dedup.candidates"] = (candidates, COUNT)
    out["dedup.verify_ratio"] = (len(verify) / candidates if candidates else 0.0, RATIO)
    out["dedup.merge_ratio"] = (merges / len(verify) if verify else 0.0, RATIO)

    out["extract.extract_identifiers_s"] = (self_s("extract.extract_identifiers"), SECONDS)
    out["extract.deobfuscate_phone_s"] = (self_s("extract.deobfuscate_phone"), SECONDS)
    for kind in ("phone", "email", "social_handle", "url"):
        out[f"extract.identifiers.{kind}"] = (note_sum("extract.extract_identifiers", kind), COUNT)

    out["graph.build_graph_s"] = (self_s("graph.build_graph"), SECONDS)
    out["graph.read_graph_json_s"] = (self_s("graph.read_graph_json"), SECONDS)
    out["graph.read_graph_json_calls"] = (len(idx("graph.read_graph_json")), COUNT)
    out["graph.write_graph_json_s"] = (self_s("graph.write_graph_json"), SECONDS)
    out["graph.export_s"] = (self_s("graph.export_graphml", "graph.export_dot"), SECONDS)
    for key in ("nodes", "edges", "components"):
        out[f"graph.{key}"] = (note_sum("graph.build_graph", key), COUNT)

    sim_calls = len(idx("dedup.similarity"))
    kept = note_sum("label.generate_oad_pairs", "pairs")
    out["label.split_components_s"] = (self_s("label.split_components"), SECONDS)
    out["label.generate_oad_pairs_s"] = (self_s("label.generate_oad_pairs"), SECONDS)
    out["label.similarity_calls"] = (sim_calls, COUNT)
    out["label.similarity_s"] = (total_s("dedup.similarity"), SECONDS)
    out["label.pair_accept_ratio"] = (kept / sim_calls if sim_calls else 0.0, RATIO)
    out["label.label_htrp_s"] = (self_s("label.label_htrp"), SECONDS)

    out["analysis.compare_label_variants_s"] = (self_s("analysis.compare_label_variants"), SECONDS)

    synth_s = sum(end - start for name, _, start, end, _ in synth if name == "synth.generate")
    out["synth.generate_s"] = (synth_s, SECONDS)
    return out


# ---------------------------------------------------------------- script


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then adgraph arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path.insert(0, str(ROOT / "src"))
    from adgraph import cli

    tracer = Tracer()
    # the compare stage prints its report; keep stdout for the caller
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(cli_args)
    Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
