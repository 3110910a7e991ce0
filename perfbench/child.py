"""One ``stablemanifold all`` invocation, as the benchmark's child process.

Usage: python3 perfbench/child.py RECORD TRACE RUN_ID CLI_ARG...

Imports the package from ``src/`` of the checkout, spans each pipeline stage
(and, with TRACE=1, every layer boundary of ``tracer.py``), runs the CLI with
CLI_ARG... and writes the spans to RECORD as JSON.  Exits with the CLI's code.

The reference loop of ``reference.py`` runs at the start, before every stage,
after the last one and, untraced, every ``PERIOD_S`` between; its times go
to RECORD as well, to measure the machine's speed beside each stage.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from reference import PERIOD_S, ReferenceClock

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    record, trace, run_id, *cli_args = argv
    clock = ReferenceClock(period_s=PERIOD_S if trace == "0" else None)
    clock.sample()
    sys.path.insert(0, str(SRC))
    from stablemanifold import cli
    from tracer import Tracer, install_layer_spans, install_stage_spans

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"stablemanifold was imported from {cli.__file__}, not {SRC}")
    tracer = Tracer(run_id)
    install_stage_spans(tracer, cli, before=clock.sample)
    if trace == "1":
        install_layer_spans(tracer)
    rc = cli.main(cli_args)
    clock.stop()
    clock.sample()
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "reference": clock.samples}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
