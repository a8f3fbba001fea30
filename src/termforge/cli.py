"""Command line entry point: `termforge <stage|all> --config cfg.json`.

Logs go to stderr; machine-readable artifacts are written to files only.
`termforge synth` also accepts a bare synthesis config (the SynthConfig
field names at the top level) together with --out for standalone corpus
generation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline, synthgen
from .corpus import write_corpus, write_gold


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termforge",
        description="Spoken term discovery pipeline over pseudo-transcriptions.",
    )
    parser.add_argument("stage", choices=list(pipeline.STAGES) + ["all"],
                        help="pipeline stage to run, or 'all'")
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--force", action="store_true",
                        help="recompute even when cached artifacts are current")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the configured workdir)")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _run_bare_synth(blob: dict, out_dir: str) -> None:
    corpus, gold = synthgen.generate(pipeline.synth_config(blob))
    out = Path(out_dir)
    write_corpus(corpus, out)
    write_gold(gold, out / "gold.json")
    logging.getLogger("termforge").info(
        "wrote %d utterances to %s", len(corpus), out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        blob = json.loads(Path(args.config).read_text())
        if args.stage == "synth" and "synth" not in blob:
            # bare SynthConfig file: standalone corpus generation
            if not args.out:
                raise pipeline.PipelineError(
                    "--out is required when synthesizing from a bare config")
            _run_bare_synth(blob, args.out)
            return 0

        config = pipeline.PipelineConfig.from_dict(blob)
        if args.out:
            config.workdir = args.out
        if args.stage == "all":
            pipeline.run_all(config, force=args.force)
        else:
            ran = pipeline.run_stage(args.stage, config, force=args.force)
            if not ran:
                logging.getLogger("termforge").info(
                    "%s: cached artifacts are current", args.stage)
        return 0
    except (pipeline.PipelineError, ValueError, OSError) as exc:
        logging.getLogger("termforge").error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
