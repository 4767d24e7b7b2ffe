"""Command-line front end.

Exit codes: 0 on success, 1 when an audit or assertion fails, 2 for
configuration problems (bad config file, unknown key, malformed input,
a scan limit below the minimum, a sample too large for the dense path,
an exact total loss asked for where none is computed in closed form).
"""

from __future__ import annotations

import argparse
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
from .learner import MIN_SCAN_LIMIT, GuaranteeInputs, MPacNotFound, azuma_bound, m_pac
from .samples import labeled_sample_from_json
from .indexing import SENTINEL, CellBudgetError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcompress",
        description="sample compression schemes: validity audits, bounds, and Monte Carlo checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scan=False):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--out", default=None, help="directory for manifest/trials/summary")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="summary format"
        )
        if scan:
            p.add_argument(
                "--scan-limit", type=int, default=None,
                help="largest m examined when searching for the guaranteed sample size",
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

    p = sub.add_parser("mpac", help="print the smallest guaranteed sample size")
    add_common(p, scan=True)

    p = sub.add_parser("bound-table", help="bound diagnostics for each configured m")
    add_common(p, scan=True)

    p = sub.add_parser("inspect", help="describe a labeled-sample JSON file")
    p.add_argument("--sample", required=True, help="path to a labeled-sample JSON document")
    return parser


def _load_config(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg.validate()


def _finish(result: ExperimentResult, cfg, fmt: str) -> int:
    summary = render_summary(result, fmt)
    sys.stdout.write(summary)
    if cfg.out:
        write_outputs(result, cfg.out, fmt, summary=summary)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    if not result.passed:
        print(f"{result.kind}: FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    result = run_validity_experiment(cfg, fail_fast=args.fail_fast)
    if not result.passed:
        first = next(r for r in result.records if not r.passed)
        print(
            "first violation: " + json.dumps(first.to_json_dict(), sort_keys=True),
            file=sys.stderr,
        )
    return _finish(result, cfg, args.format)


def _cmd_concentration(args) -> int:
    cfg = _load_config(args)
    return _finish(run_concentration_suite(cfg, engine=args.engine), cfg, args.format)


def _cmd_pac(args) -> int:
    cfg = _load_config(args)
    result = run_pac_experiment(cfg, engine=args.engine, scan_limit=args.scan_limit)
    return _finish(result, cfg, args.format)


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
    doc = {"m_pac": m0, "breakdown_at_m_pac": azuma_bound(inputs, m0).to_json_dict()}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bound_table(args) -> int:
    cfg = _load_config(args)
    return _finish(run_bound_table(cfg, scan_limit=args.scan_limit), cfg, args.format)


def _cmd_inspect(args) -> int:
    try:
        with open(args.sample, "r", encoding="utf-8") as fh:
            labeled = labeled_sample_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"inspect: cannot read sample: {exc}", file=sys.stderr)
        return 2
    t = labeled.labels
    counts: dict = {}
    sentinel = 0
    for c in t.codes.ravel().tolist():
        if c == SENTINEL:
            sentinel += 1
        else:
            key = repr(t.alphabet[c])
            counts[key] = counts.get(key, 0) + 1
    print(f"mode: {labeled.mode}")
    print(f"k: {labeled.k}")
    print(f"m: {labeled.m}")
    print(f"alphabet ({len(t.alphabet)}): {list(t.alphabet)!r}")
    print(f"label cells: {t.codes.size} in shape {t.codes.shape}")
    for key in sorted(counts):
        print(f"  label {key}: {counts[key]}")
    if sentinel:
        print(f"  non-injective cells: {sentinel}")
    return 0


_COMMANDS = {
    "validate-scheme": _cmd_validate,
    "concentration": _cmd_concentration,
    "pac": _cmd_pac,
    "mpac": _cmd_mpac,
    "bound-table": _cmd_bound_table,
    "inspect": _cmd_inspect,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    scan_limit = getattr(args, "scan_limit", None)
    if scan_limit is not None and scan_limit < MIN_SCAN_LIMIT:
        print(
            f"{args.command}: --scan-limit must be >= {MIN_SCAN_LIMIT}, got {scan_limit}",
            file=sys.stderr,
        )
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
