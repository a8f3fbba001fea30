"""Command line entry point: `termforge <stage|all> --config cfg.json`.

Logs go to stderr; machine-readable artifacts are written to files only.
`termforge synth` also accepts a bare synthesis config (the SynthConfig
field names at the top level) together with --out for standalone corpus
generation. A config counts as bare when it has no `synth` key and at least
one key that is not a PipelineConfig field; any other config is a pipeline
config, and one without a `synth` section synthesizes its default corpus.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import embednet, mining, pipeline, synthgen, util
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
    corpus, gold = synthgen.generate(
        util.from_json(synthgen.SynthConfig, blob, "config section 'synth'"))
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
        try:
            blob = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise pipeline.PipelineError(f"{args.config}: {exc}") from None
        if (args.stage == "synth" and isinstance(blob, dict) and "synth" not in blob
                and set(blob) - {f.name for f in fields(pipeline.PipelineConfig)}):
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
            pipeline.run_stage(args.stage, config, force=args.force)
        return 0
    except (pipeline.PipelineError, ValueError, OSError,
            util.ScaleError, mining.MiningError, embednet.TrainingDiverged) as exc:
        logging.getLogger("termforge").error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
