#!/usr/bin/env python3
"""Benchmark of the kcompress audits.

    python3 perfbench/run.py --workload validity --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload, one table

Run it from the root of a source checkout; it imports the package from
``src/``.  One process and one thread run a closed loop with one client:
each pass calls ``kcompress.cli.dispatch`` once per audit of the workload
(see workloads.py), and the next audit starts only after the previous one
returns.  Passes repeat until ``--seconds`` are used.  Every audit's exit
code and outputs are checked: record and row counts under any seed, and the
sha256 of every output file, pinned in digests.json, under the default seed.

The host is shared: other tenants slow this process by 1.5-2x, in
episodes of a few seconds, and a plain median moves with how much of a run
they covered.  So every timed call is scaled by the speed of a fixed
reference kernel timed around it (reference.py): times are reported as
seconds at the kernel's idle speed.  Pass times are the medians of these
scaled times; the raw median and slowest pass are printed beside them.

``--trace 0`` prints the end-to-end metrics: work per second, wall time per
pass, set-up time and peak RSS.  ``--trace 1`` alternates untraced passes
with passes whose layer functions are wrapped in spans (spans.py) and
prints the per-layer metrics, per pass, plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before numpy is imported; the
# library itself is left untouched.
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
MIN_PASSES = {0: 3, 1: 4}
OUTPUT_FILES = ("manifest.json", "trials.jsonl", "summary.csv")

END_TO_END = (
    ("work_per_s", "units/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Fresh interpreter: import the package (numpy and scipy with it), load a
# config and build its measure, class, loss and scheme.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kcompress
from kcompress.experiments import build_all, load_config
build_all(load_config(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def machine_facts() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def import_package():
    """Import kcompress from this checkout's src/; exit with a message if it is missing."""
    if not (SRC / "kcompress" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kcompress package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("kcompress")
    if Path(pkg.__file__).resolve().parent != SRC / "kcompress":
        sys.exit(f"perfbench: imported kcompress from {pkg.__file__}, not from {SRC}")
    return importlib.import_module("kcompress.cli")


def measure_setup(config_path: Path, ref) -> float:
    """In-process time of SETUP_CODE in one fresh interpreter, scaled."""
    before = ref.sample()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return reference.scale(float(proc.stdout), before + ref.sample())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(audit, stdout: str, out_dir: Path) -> dict:
    if not audit.writes_out:
        return {"stdout": _sha256(stdout.encode("utf-8"))}
    return {name: _sha256((out_dir / name).read_bytes()) for name in OUTPUT_FILES}


def verify(audit, rc, error, stdout: str, out_dir: Path, pinned) -> list:
    """Problems with one audit call; empty when its outputs are as expected.

    pinned is the audit's {file: sha256} under the default seed, else None.
    """
    if error is not None:
        return [f"raised {error.strip().splitlines()[-1]}"]
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if audit.writes_out:
        missing = [n for n in OUTPUT_FILES if not (out_dir / n).is_file()]
        if missing:
            return [f"missing {', '.join(missing)}"]
        records = (out_dir / "trials.jsonl").read_bytes().count(b"\n")
        summary = (out_dir / "summary.csv").read_text(encoding="utf-8")
        rows = summary.count("\n") - 1
        if records != audit.records:
            problems.append(f"{records} trial records, expected {audit.records}")
        if rows != audit.rows:
            problems.append(f"{rows} summary rows, expected {audit.rows}")
        if stdout != summary:
            problems.append("stdout differs from summary.csv")
    if audit.m_pac is not None:
        try:
            got = json.loads(stdout)["m_pac"]
        except (ValueError, KeyError, TypeError):
            got = None
        if got != audit.m_pac:
            problems.append(f"m_pac {got}, expected {audit.m_pac}")
    if pinned is not None and not problems:
        digests = output_digests(audit, stdout, out_dir)
        bad = sorted(n for n in set(pinned) | set(digests) if pinned.get(n) != digests.get(n))
        if bad:
            problems.append(f"sha256 differs from the pinned digest: {', '.join(bad)}")
    return problems


class Runner:
    """Runs passes of one workload and checks every audit's outputs."""

    def __init__(self, workload, seed: int, work_dir: Path, pins: dict):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cli = import_package()
        self.ref = reference.Reference()
        self.kernel_times = []  # every reference kernel time of the run
        self.tracer = spans.Tracer()
        # {audit id: {file: sha256}} when the seed is the pinned one, else None
        self.pinned = pins.get("audits", {}) if pins.get("seed") == seed else None
        self.configs = {}
        (work_dir / "configs").mkdir(parents=True, exist_ok=True)
        for audit in workload.audits:
            path = work_dir / "configs" / f"{audit.audit_id}.cfg"
            path.write_text(audit.config_text(), encoding="utf-8")
            self.configs[audit.audit_id] = path
        self.attempted = 0
        self.failures = []
        self.stdout = {}  # last stdout of each audit that writes no files

    def run_pass(self, traced: bool):
        """One pass over the audits: (scaled seconds, raw seconds, spans or None).

        The reference kernel is timed four times between calls; each call is
        scaled by the median of the eight kernel times around it."""
        if traced:
            self.tracer.install()
        scaled = raw = 0.0
        before = self.ref.sample()
        self.kernel_times += before
        try:
            for audit in self.workload.audits:
                seconds = self._call(audit)
                after = self.ref.sample()
                self.kernel_times += after
                raw += seconds
                scaled += reference.scale(seconds, before + after)
                before = after
        finally:
            if traced:
                self.tracer.uninstall()
        return scaled, raw, (self.tracer.take() if traced else None)

    def _call(self, audit) -> float:
        out_dir = self.work_dir / "out" / audit.audit_id
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = audit.argv(str(self.configs[audit.audit_id]), self.seed, str(out_dir))
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, None
        self.tracer.audit = audit.audit_id
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.dispatch(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if not audit.writes_out:
            self.stdout[audit.audit_id] = stdout.getvalue()
        pinned = None if self.pinned is None else self.pinned.get(audit.audit_id, {})
        problems = verify(audit, rc, error, stdout.getvalue(), out_dir, pinned)
        if problems:
            self.failures.append(audit.audit_id)
            print(f"perfbench: {audit.audit_id} failed: {'; '.join(problems)}", file=sys.stderr)
            if error or stderr.getvalue():
                print((error or "") + stderr.getvalue(), file=sys.stderr)
        return seconds


# Layer counts that must be positive on a workload, besides the exact ones.
NONZERO = {
    "validity": ("indexing.order_choice.calls", "indexing.subsample.calls",
                 "samples.label.calls", "losses.empirical.calls",
                 "schemes.reconstruct.calls"),
    "concentration": ("samples.seed.calls", "losses.total_exact.calls",
                      "learner.azuma_bound.calls"),
    "pac": ("samples.seed.calls", "losses.total_exact.calls"),
    "bounds": ("learner.azuma_bound.calls", "learner.m_pac.scanned"),
}


def trace_problems(workload, numbers: dict, pass_spans) -> list:
    """Counts from the traced pass that disagree with the work it did.

    A call site the tracer failed to wrap shows up here as a zero count."""
    audits = workload.audits
    records = sum(a.records for a in audits)
    expected = {
        "samples.draw.calls": records,
        "experiments.run.trials": records,
        "schemes.validity.samples": sum(
            a.records for a in audits if a.command == "validate-scheme"),
        "learner.m_pac.calls": sum(
            1 for a in audits if a.command in ("mpac", "bound-table", "pac")),
        "experiments.write.calls": sum(1 for a in audits if a.writes_out),
    }
    problems = [f"{name} = {numbers[name]}, expected {want}"
                for name, want in expected.items() if numbers[name] != want]
    dispatched = sum(1 for s in pass_spans if s[1] == "cli.dispatch")
    if dispatched != len(audits):
        problems.append(f"{dispatched} dispatch spans, expected {len(audits)}")
    for name in NONZERO.get(workload.name, ()):
        if not numbers[name]:
            problems.append(f"{name} is 0 on {workload.name}")
    return problems


def run_workload(workload, seed: int, seconds: float, trace: int, pins: dict, work_dir: Path):
    """Measure one workload; returns (result dict, report lines, spans to keep)."""
    runner = Runner(workload, seed, work_dir, pins)
    setup_config = runner.configs[workload.audits[0].audit_id]
    setups = []
    if not trace:
        # One untimed start, so that byte-code compilation in a fresh
        # checkout is not counted; every later CLI call finds it done.
        measure_setup(setup_config, runner.ref)
    # An untimed first pass fills lazy caches and the allocator's free
    # lists; its outputs are still checked.
    runner.run_pass(traced=False)
    plain, raw, traced, layer_runs, kept, problems = [], [], [], [], None, []
    start = time.perf_counter()
    while True:
        tracing = bool(trace) and len(plain) > len(traced)
        wall, raw_wall, pass_spans = runner.run_pass(tracing)
        if tracing:
            traced.append(wall)
            numbers = spans.layer_numbers(pass_spans)
            problems += trace_problems(workload, numbers, pass_spans)
            for name in numbers:
                if name.endswith(".self_s"):
                    numbers[name] *= wall / raw_wall
            layer_runs.append(numbers)
            kept = pass_spans
        else:
            plain.append(wall)
            raw.append(raw_wall)
        elapsed = time.perf_counter() - start
        # set-ups are spread evenly over the run, so that they meet the
        # same host load as the passes do
        due = SETUP_REPEATS * (min(1.0, elapsed / seconds) if seconds > 0 else 1.0)
        while not trace and len(setups) < due:
            setups.append(measure_setup(setup_config, runner.ref))
        done = len(plain) + len(traced)
        if done >= MIN_PASSES[trace] and time.perf_counter() - start + raw_wall > seconds:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(setup_config, runner.ref))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(dict.fromkeys(problems))
    for p in problems:
        print(f"perfbench: trace check: {p}", file=sys.stderr)
    wall_s = statistics.median(plain)
    failed = len(runner.failures)
    lines = [
        f"workload {workload.name}  seed {seed}  timed passes {len(plain)} untraced"
        f" + {len(traced)} traced  work/pass {workload.work_per_pass} {workload.unit}"
        f" in {len(workload.audits)} audits",
        f"  failed_frac  {failed}/{runner.attempted} = {failed / runner.attempted:.4g} ratio",
        "  untraced pass walls, scaled (s): " + " ".join(f"{w:.3f}" for w in plain),
        f"  untraced pass walls, raw (s): median {statistics.median(raw):.4f}"
        f"  slowest {max(raw):.4f}",
        f"  reference kernel: median {statistics.median(runner.kernel_times):.4g} s,"
        f" idle {reference.IDLE_S:.4g} s",
    ]
    if trace:
        metrics = {}
        traced_wall = statistics.median(traced)
        for name, unit, _ in spans.METRICS:
            if name == "trace.overhead_s":
                value = traced_wall - wall_s
            else:
                value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = {"value": value, "unit": unit}
            share = f"  ({value / traced_wall:6.1%} of traced wall)" if unit == "s" else ""
            lines.append(f"  {name:36s} {value:14.6g} {unit}{share}")
        lines.append(f"  untraced wall_s {wall_s:.6g} s, traced wall_s {traced_wall:.6g} s")
    else:
        values = {
            "work_per_s": workload.work_per_pass / wall_s,
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            shown = f"{unit} ({workload.unit}/s)" if name == "work_per_s" else unit
            lines.append(f"  {name:12s} {values[name]:14.6g} {shown}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines, kept


def write_spans(path: Path, kept) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in spans.span_rows(kept):
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_pins() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def pin_digests() -> int:
    """Rewrite digests.json from one pass of every workload at the default seed."""
    audits = {}
    for workload in workloads.build_workloads().values():
        work_dir = OUT / f"pin-{workload.name}-{os.getpid()}"
        try:
            runner = Runner(workload, DEFAULT_SEED, work_dir, {})
            runner.run_pass(traced=False)
            if runner.failures:
                print(f"perfbench: not pinning, audits failed: {runner.failures}", file=sys.stderr)
                return 1
            for audit in workload.audits:
                audits[audit.audit_id] = output_digests(
                    audit, runner.stdout.get(audit.audit_id, ""),
                    work_dir / "out" / audit.audit_id)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    doc = {"seed": DEFAULT_SEED, "audits": audits}
    DIGESTS.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {len(audits)} audits in {DIGESTS}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in workloads.build_workloads():
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    names = list(workloads.build_workloads())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)
    if args.pin_digests:
        return pin_digests()
    if args.workload == "all":
        return run_all(args)
    pins = load_pins()
    workload = workloads.build_workloads()[args.workload]
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result, lines, kept = run_workload(
            workload, args.seed, args.seconds, args.trace, pins, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if kept is not None:
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", kept)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
