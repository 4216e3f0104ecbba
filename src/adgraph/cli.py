"""Command line entry point.

One subcommand per pipeline stage plus `all`. Configuration comes from
defaults, then an optional JSON config file, then repeated --set
overrides, then explicit flags. Logs go to stderr; artifacts and
manifests go to the workdir. A compare stage that ran prints its report
to stdout, unless --quiet.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import time

from . import __version__
from .analysis import render_report
from .config import load_config
from .errors import AdgraphError
from .pipeline import ARTIFACTS, run_all, run_stage

log = logging.getLogger("adgraph")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--workdir", metavar="DIR", help="artifact directory (default: out)")
    common.add_argument("--seed", type=int, metavar="N", help="global random seed")
    common.add_argument("--threads", type=int, metavar="N", help="worker processes for identifier extraction")
    common.add_argument(
        "--force", action="store_true", help="run even when inputs fail manifest checks"
    )
    common.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="config override with a dotted key, e.g. label.split_ratio=0.7",
    )
    common.add_argument("--quiet", action="store_true", help="only log warnings and errors")

    corpus_flags = argparse.ArgumentParser(add_help=False)
    corpus_flags.add_argument("--corpus", metavar="PATH", help="input corpus file")
    corpus_flags.add_argument(
        "--format", choices=("jsonl", "csv"), dest="corpus_format", help="corpus format"
    )
    ann_flag = argparse.ArgumentParser(add_help=False)
    ann_flag.add_argument(
        "--annotations", metavar="PATH", help="identifier span annotations (jsonl)"
    )
    gaz_flag = argparse.ArgumentParser(add_help=False)
    gaz_flag.add_argument(
        "--gazetteer", metavar="PATH", help="location gazetteer csv (default: bundled)"
    )

    parser = argparse.ArgumentParser(
        prog="adgraph",
        description="Pseudo-labeling pipeline for ad-graph datasets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser(
        "ingest",
        parents=[common, corpus_flags],
        help="parse, validate, and normalize the corpus",
    )
    sub.add_parser("dedup", parents=[common], help="cluster exact and near duplicates")
    sub.add_parser(
        "extract",
        parents=[common, ann_flag],
        help="extract phones, emails, handles, and urls",
    )
    sub.add_parser("graph", parents=[common], help="build the relatedness graph")
    sub.add_parser("stats", parents=[common], help="component size distribution csv")
    sub.add_parser("split", parents=[common], help="component-level train/test split")
    sub.add_parser("label-oad", parents=[common], help="balanced labeled ad pairs")
    sub.add_parser(
        "label-htrp", parents=[common, gaz_flag], help="per-ad risk labels from rules"
    )
    sub.add_parser(
        "compare",
        parents=[common],
        help="relabel under variant thresholds and test rate shifts",
    )
    p_export = sub.add_parser(
        "export", parents=[common], help="write graphml/dot views of the graph"
    )
    p_export.add_argument(
        "--export-format",
        choices=("graphml", "dot", "both"),
        dest="export_format",
        help="which formats to write (default: both)",
    )
    p_export.add_argument(
        "--component", type=int, metavar="N", help="restrict export to one component"
    )
    p_synth = sub.add_parser(
        "synth", parents=[common], help="generate a synthetic corpus with ground truth"
    )
    p_synth.add_argument("--n-ads", type=int, metavar="N")
    p_synth.add_argument("--dup-rate", type=float, metavar="F")
    p_synth.add_argument("--n-components", type=int, metavar="N")
    p_synth.add_argument(
        "--size-distribution", choices=("heavy_tailed", "uniform", "singletons")
    )
    p_synth.add_argument("--obfuscation-rate", type=float, metavar="F")
    sub.add_parser(
        "all",
        parents=[common, corpus_flags, ann_flag, gaz_flag],
        help="run the full chain from ingest to export",
    )
    return parser


_FLAG_KEYS = (
    ("workdir", "workdir"),
    ("seed", "seed"),
    ("threads", "threads"),
    ("corpus", "corpus.path"),
    ("corpus_format", "corpus.format"),
    ("annotations", "corpus.annotations"),
    ("gazetteer", "gazetteer"),
    ("export_format", "export.format"),
    ("component", "export.component"),
    ("n_ads", "synth.n_ads"),
    ("dup_rate", "synth.dup_rate"),
    ("n_components", "synth.n_components"),
    ("size_distribution", "synth.component_size_distribution"),
    ("obfuscation_rate", "synth.obfuscation_rate"),
)


def main(argv: list[str] | None = None) -> int:
    status = _main(argv)
    if argv is None:
        # the `adgraph` program, not a library caller, is about to exit.
        # Frozen objects are out of reach of the collection the interpreter
        # runs at exit, which would otherwise traverse every live object to
        # free none. The chain's raised thresholds are restored by now, so
        # the young generation is back to its usual few hundred objects.
        gc.freeze()
    return status


def _main(argv: list[str] | None) -> int:
    # The package's one numpy module, kernels, uses only elementwise
    # ufuncs, sort and search, never BLAS, so an OpenBLAS worker pool
    # would only spin idle. OpenBLAS reads this when kernels first imports
    # numpy, and pool workers inherit it; a value already set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="[%(levelname)s] %(message)s",
    )

    cli_values = {}
    for attr, dotted in _FLAG_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            cli_values[dotted] = value

    try:
        cfg = load_config(args.config, args.overrides, cli_values)
        start = time.perf_counter()
        if args.command == "all":
            results = run_all(cfg, force=args.force)
            log.info(
                "all: %d stages in %.2fs", len(results), time.perf_counter() - start
            )
        else:
            results = [run_stage(args.command, cfg, force=args.force)]
    except AdgraphError as e:
        log.error("%s", e)
        return 1
    if not args.quiet and any(r["stage"] == "compare" and r["ran"] for r in results):
        report_path = cfg.workdir / ARTIFACTS["compare_report"]
        report = render_report(json.loads(report_path.read_text(encoding="utf-8")))
        try:
            print(report)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (`| head`); the report is on disk. Point
            # stdout at devnull so the flush at exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
