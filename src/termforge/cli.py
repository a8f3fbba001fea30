"""Command line entry point: `termforge <stage|all> --config cfg.json`.

Logs go to stderr; machine-readable artifacts are written to files only.
The config is a pipeline config (see `termforge.pipeline`); --out replaces
its workdir, so `termforge synth --config cfg.json --out d` writes the corpus
under `d/corpus` and the synth stamp under `d/.stamps`.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import embednet, mining, pipeline, util


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termforge",
        description="Spoken term discovery pipeline over pseudo-transcriptions.",
        epilog="The trained network, and so every stamp from the train stage on, "
               "depends on the BLAS thread count, which termforge does not pin. Set "
               "OPENBLAS_NUM_THREADS=1 for stamps that reproduce across machines.",
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = util.read_json(args.config, pipeline.PipelineConfig.from_dict)
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
