"""Command-line front end.

Exit codes: 0 on success, 1 when an audit or assertion fails, 2 for
usage and configuration problems (unknown command or flag, bad config
file, unknown key, a scan limit outside [MIN_SCAN_LIMIT, MAX_SCAN_LIMIT],
a sample too large to draw or for the dense path, an exact total loss
asked for where none is computed in closed form, an unwritable --out).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .experiments import (
    ConfigError,
    ExperimentResult,
    build_all,
    load_config,
    render_summary,
    run_bound_table,
    run_concentration_suite,
    run_pac_experiment,
    run_validity_experiment,
    write_outputs,
)
from .learner import MAX_SCAN_LIMIT, MIN_SCAN_LIMIT, GuaranteeInputs, MPacNotFound
from .learner import azuma_bound, m_pac
from .indexing import CellBudgetError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcompress",
        description="sample compression schemes: validity audits, bounds, and Monte Carlo checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scan=False, outputs=True):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if outputs:
            p.add_argument("--trials", type=int, default=None, help="override the trial count")
            p.add_argument("--out", default=None, help="directory for manifest/trials/summary")
            p.add_argument(
                "--format", choices=("csv", "json"), default="csv", help="summary format"
            )
        if scan:
            p.add_argument(
                "--scan-limit", type=int, default=None,
                help="largest m the m_pac search examines (default: 200000 for mpac, "
                "max(4 * largest m, 20000) for pac and bound-table)",
            )

    p = sub.add_parser("validate-scheme", help="exact-zero validity audit on realizable samples")
    add_common(p)
    p.add_argument("--fail-fast", action="store_true", help="stop at the first violation")

    p = sub.add_parser("concentration", help="deviation-frequency audit for fixed selections")
    add_common(p)
    p.add_argument("--engine", choices=("auto", "fast", "generic"), default="auto")

    p = sub.add_parser("pac", help="end-to-end learner audit against epsilon/delta")
    add_common(p, scan=True)
    p.add_argument("--engine", choices=("auto", "fast", "generic"), default="auto")

    # mpac prints one JSON document, writes no files and runs no trials
    p = sub.add_parser("mpac", help="print the smallest guaranteed sample size")
    add_common(p, scan=True, outputs=False)

    p = sub.add_parser("bound-table", help="bound diagnostics for each configured m")
    add_common(p, scan=True)
    return parser


def _load_config(args):
    flags = {"seed": args.seed, "trials": getattr(args, "trials", None)}  # mpac has none
    overrides = {f: v for f, v in flags.items() if v is not None}
    return replace(load_config(args.config), **overrides).validate()


def _finish(result: ExperimentResult, args) -> int:
    summary = render_summary(result, args.format)
    sys.stdout.write(summary)
    if args.out:
        try:
            write_outputs(result, args.out, args.format, summary=summary)
        except OSError as exc:
            print(f"{args.command}: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    if not result.passed:
        print(f"{result.kind}: FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    result = run_validity_experiment(_load_config(args), fail_fast=args.fail_fast)
    if not result.passed:
        first = next(r for r in result.records if not r.passed)
        print(
            "first violation: " + json.dumps(vars(first), sort_keys=True),
            file=sys.stderr,
        )
    return _finish(result, args)


def _cmd_concentration(args) -> int:
    return _finish(run_concentration_suite(_load_config(args), engine=args.engine), args)


def _cmd_pac(args) -> int:
    result = run_pac_experiment(_load_config(args), engine=args.engine, scan_limit=args.scan_limit)
    return _finish(result, args)


def _cmd_mpac(args) -> int:
    cfg = _load_config(args)
    mu, klass, loss, scheme = build_all(cfg)
    inputs = GuaranteeInputs.from_scheme(scheme, loss, cfg.epsilon, cfg.delta)
    window = args.scan_limit if args.scan_limit is not None else 200000
    try:
        m0 = m_pac(inputs, window)
    except MPacNotFound as exc:
        print(f"mpac: {exc} {json.dumps(exc.diagnostics, sort_keys=True)}", file=sys.stderr)
        return 1
    doc = {"m_pac": m0, "breakdown_at_m_pac": vars(azuma_bound(inputs, m0))}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bound_table(args) -> int:
    return _finish(run_bound_table(_load_config(args), scan_limit=args.scan_limit), args)


_COMMANDS = {
    "validate-scheme": _cmd_validate,
    "concentration": _cmd_concentration,
    "pac": _cmd_pac,
    "mpac": _cmd_mpac,
    "bound-table": _cmd_bound_table,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    scan_limit = getattr(args, "scan_limit", None)
    if scan_limit is not None and not MIN_SCAN_LIMIT <= scan_limit <= MAX_SCAN_LIMIT:
        rule = f">= {MIN_SCAN_LIMIT}" if scan_limit < MIN_SCAN_LIMIT else f"<= {MAX_SCAN_LIMIT}"
        print(f"{args.command}: --scan-limit must be {rule}, got {scan_limit}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CellBudgetError as exc:
        print(f"{args.command}: sample too large for the dense path: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
