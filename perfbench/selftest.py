#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, the harness and the pinned digests agree, that
every workload runs with and without tracing and emits every metric named
in BENCHMARK.json with its unit, and that a corrupted output file, a
nonzero exit and an exception each count as a failed audit.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run
import spans
import workloads


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declarations():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in doc["workloads"]] == list(workloads.build_workloads()),
          "BENCHMARK.json workloads differ from workloads.py")
    check([(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spans.METRICS),
          "BENCHMARK.json per_layer differs from spans.METRICS")
    pins = run.load_pins()
    full = {a.audit_id for w in workloads.build_workloads().values() for a in w.audits}
    check(pins["seed"] == run.DEFAULT_SEED, "digests are not pinned for the default seed")
    check(set(pins["audits"]) == full, "digests.json does not cover exactly the audits")
    return doc


def check_metrics(doc, result, trace, name):
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in doc[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{name} trace={trace} emits {sorted(got)} instead of {sorted(want)}")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name} trace={trace} was not correct: {result}")


def check_workloads(doc, base: Path):
    for name, workload in workloads.build_workloads(workloads.TINY).items():
        for trace in (0, 1):
            result, _, kept = run.run_workload(
                workload, seed=3, seconds=0, trace=trace, pins={},
                work_dir=base / f"{name}-{trace}")
            check_metrics(doc, result, trace, name)
            check((kept is not None) == bool(trace), "spans are kept only when tracing")


class Tamper:
    """Stands in for kcompress.cli: calls the real dispatch, then spoils it."""

    def __init__(self, cli, how):
        self.cli, self.how = cli, how

    def dispatch(self, argv):
        if self.how == "raise":
            raise RuntimeError("injected failure")
        rc = self.cli.dispatch(argv)
        if self.how == "exit":
            return 1
        trials = Path(argv[argv.index("--out") + 1]) / "trials.jsonl"
        data = bytearray(trials.read_bytes())
        data[len(data) // 2] ^= 1
        trials.write_bytes(bytes(data))
        return rc


def check_failures_counted(base: Path):
    workload = workloads.build_workloads(workloads.TINY)["concentration"]
    first = run.Runner(workload, run.DEFAULT_SEED, base / "pin", {})
    first.run_pass(traced=False)
    check(not first.failures, "clean pass failed")
    pins = {"seed": run.DEFAULT_SEED, "audits": {
        a.audit_id: run.output_digests(a, "", base / "pin" / "out" / a.audit_id)
        for a in workload.audits}}
    clean = run.Runner(workload, run.DEFAULT_SEED, base / "clean", pins)
    clean.run_pass(traced=False)
    check(not clean.failures, "pinned digests did not match a rerun")
    for how in ("corrupt", "exit", "raise"):
        runner = run.Runner(workload, run.DEFAULT_SEED, base / how, pins)
        runner.cli = Tamper(runner.cli, how)
        runner.run_pass(traced=False)
        check(runner.attempted == len(workload.audits)
              and len(runner.failures) == len(workload.audits),
              f"{how}: {len(runner.failures)} of {runner.attempted} audits counted as failed")
    # under another seed no digest is checked, but a byte flip that breaks a
    # record line still has to be caught by the record count
    audit = workload.audits[0]
    out = base / "clean" / "out" / audit.audit_id
    trials = out / "trials.jsonl"
    trials.write_bytes(trials.read_bytes().replace(b"\n", b" ", 1))
    problems = run.verify(audit, 0, None, (out / "summary.csv").read_text(), out, None)
    check(problems, "a lost record line was not detected")


def main():
    doc = check_declarations()
    base = run.OUT / f"selftest-{os.getpid()}"
    try:
        check_workloads(doc, base)
        check_failures_counted(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
