"""Command line entry point.

One subcommand per pipeline stage plus `all`. Configuration comes from
defaults, then an optional JSON config file, then repeated --set
overrides, then explicit flags. Logs go to stderr; artifacts and
manifests go to the workdir. A run that writes the compare report prints
it to stdout, unless --quiet. A subcommand takes each setting flag whose
key one of its stages reads.
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
from .config import SETTINGS, load_config
from .errors import AdgraphError
from .pipeline import ALL_CHAIN, ARTIFACTS, STAGES, run_all, run_stage

log = logging.getLogger("adgraph")

# (flag, key, metavar, help) of each setting flag offered only where a stage reads its key
_STAGE_FLAGS = (
    ("--corpus", "corpus.path", "PATH", "input corpus file"),
    ("--format", "corpus.format", None, "corpus format"),
    ("--annotations", "corpus.annotations", "PATH", "identifier span annotations (jsonl)"),
    ("--gazetteer", "gazetteer", "PATH", "location gazetteer csv (default: bundled)"),
    ("--export-format", "export.format", None, "which formats to write (default: both)"),
    ("--component", "export.component", "N", "restrict export to one component"),
    ("--n-ads", "synth.n_ads", "N", None),
    ("--dup-rate", "synth.dup_rate", "F", None),
    ("--n-components", "synth.n_components", "N", None),
    ("--size-distribution", "synth.component_size_distribution", None, None),
    ("--obfuscation-rate", "synth.obfuscation_rate", "F", None),
)


def _settings(parser: argparse.ArgumentParser, *flags: tuple[str, str, str | None, str | None]) -> None:
    """Give parser a flag for each (flag, key, metavar, help) that sets that
    config key to a value of the type and choices SETTINGS declares."""
    for flag, key, metavar, help in flags:
        want = SETTINGS[key]
        choices = want.choices or None
        parser.add_argument(flag, dest=key, type=want.type, choices=choices, metavar=metavar, help=help)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    _settings(
        common,
        ("--workdir", "workdir", "DIR", "artifact directory (default: out)"),
        ("--seed", "seed", "N", "global random seed"),
        ("--threads", "threads", "N", "worker processes for identifier extraction"),
    )
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

    parser = argparse.ArgumentParser(
        prog="adgraph",
        description="Pseudo-labeling pipeline for ad-graph datasets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands = {name: (stage.help, [stage]) for name, stage in STAGES.items()}
    commands["all"] = (
        f"run the full chain from {ALL_CHAIN[0]} to {ALL_CHAIN[-1]}", [STAGES[name] for name in ALL_CHAIN]
    )
    for name, (help, stages) in commands.items():
        flags = [flag for flag in _STAGE_FLAGS if any(stage.reads(flag[1]) for stage in stages)]
        _settings(sub.add_parser(name, parents=[common], help=help), *flags)
    return parser


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

    # each setting flag's dest is its config key
    cli_values = {key: value for key, value in vars(args).items() if key in SETTINGS}

    try:
        cfg = load_config(args.config, args.overrides, cli_values)
        start = time.perf_counter()
        if args.command == "all":
            results = run_all(cfg, force=args.force)
            log.info("all: %d stages in %.2fs", len(results), time.perf_counter() - start)
        else:
            results = [run_stage(args.command, cfg, force=args.force)]
    except AdgraphError as e:
        log.error("%s", e)
        return 1
    if not args.quiet and any(r["ran"] and "compare_report" in STAGES[r["stage"]].outputs for r in results):
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
