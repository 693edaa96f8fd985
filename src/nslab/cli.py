"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (blow-up, pipeline state, failed
verification), 2 bad input (config, file format, ledger, argument errors).
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import (
    BlowUpError,
    ConfigError,
    DissipationError,
    GridError,
    KernelError,
    LedgerError,
    MinimizerError,
    PipelineError,
    SnapshotFormatError,
)

_INPUT_ERRORS = (
    ConfigError,
    GridError,
    KernelError,
    SnapshotFormatError,
    LedgerError,
    DissipationError,
    MinimizerError,
)
_RUNTIME_ERRORS = (BlowUpError, PipelineError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nslab",
        description="Spectral Navier-Stokes runs with filtered-balance analysis "
        "and constrained space-time minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a run from a JSON config")
    p_sim.add_argument("--config", required=True, help="path to the JSON config file")

    p_ana = sub.add_parser("analyze", help="filtered balances and defect estimators")
    p_ana.add_argument("run_dir", help="directory produced by simulate")

    p_min = sub.add_parser("minimize", help="solve the constrained minimization per width")
    p_min.add_argument("run_dir", help="directory produced by simulate")
    p_min.add_argument(
        "--oracle",
        action="store_true",
        help="also run the projected-descent oracle on the finest width",
    )

    p_rep = sub.add_parser("report", help="collect ledgers and summaries")
    p_rep.add_argument("run_dir", help="directory produced by simulate")

    p_ver = sub.add_parser("verify", help="run the built-in acceptance suite")
    p_ver.add_argument(
        "--workdir", default=None, help="scratch directory for the determinism check"
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            print(pipeline.cmd_simulate(args.config))
        elif args.command == "analyze":
            pipeline.cmd_analyze(args.run_dir)
            print(f"analysis written under {args.run_dir}")
        elif args.command == "minimize":
            pipeline.cmd_minimize(args.run_dir, oracle=args.oracle)
            print(f"minimization written under {args.run_dir}")
        elif args.command == "report":
            pipeline.cmd_report(args.run_dir)
            print(f"report written under {args.run_dir}")
        elif args.command == "verify":
            return 0 if pipeline.cmd_verify(workdir=args.workdir) else 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
