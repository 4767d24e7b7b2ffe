#!/usr/bin/env python3
"""Time the end-to-end costs of two source checkouts, in alternating pairs.

    python3 scripts/e2e_times.py PARENT CHANGE

Inside each checkout, each in a fresh interpreter, it runs
scripts/run_audits.py --quick, scripts/run_audits.py in full (both into a
temporary directory) and the tier-1 test command with --junitxml.  It
runs PAIRS pairs, alternating which checkout goes first, and prints one
JSON document: per run the wall seconds, exit code and passed count, and
for tier-1 the seconds pytest reports, per test file and per acceptance
criterion (from the JUnit XML); per metric both medians and in how many
pairs the change took less time.  The standard library only: it times any
checkout, whatever it holds.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

PAIRS = 2
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# an acceptance criterion's test is test_criterion_<n>_<what>
CRITERION = "test_criterion_"


def _run(checkout: str, args: list) -> tuple:
    """(wall seconds, exit code, stdout, stderr) of python args in checkout."""
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    return wall, done.returncode, done.stdout, done.stderr


def _audits(checkout: str, tmp: str, quick: bool) -> dict:
    args = ["scripts/run_audits.py", "--out", os.path.join(tmp, "out")]
    wall, rc, out, err = _run(checkout, args + ["--quick"] * quick)
    ran = sum(line.startswith("== ") for line in out.splitlines())
    failed = sum(line.startswith("== ") and ": exit " in line for line in err.splitlines())
    return {"wall_s": wall, "rc": rc, "passed": ran - failed}


def _tier1(checkout: str, tmp: str) -> dict:
    xml = os.path.join(tmp, "junit.xml")
    wall, rc, _, _ = _run(checkout, TIER1 + [f"--junitxml={xml}"])
    run = {"wall_s": wall, "rc": rc, "passed": 0, "pytest_s": None,
           "criteria": {}, "files": {}}
    if not os.path.exists(xml):
        return run
    suite = ET.parse(xml).getroot()
    suite = suite if suite.tag == "testsuite" else suite.find("testsuite")
    counts = {key: int(suite.get(key, 0)) for key in ("tests", "failures", "errors", "skipped")}
    run["passed"] = counts["tests"] - counts["failures"] - counts["errors"] - counts["skipped"]
    run["pytest_s"] = float(suite.get("time"))
    files = run["files"]
    for case in suite.iter("testcase"):
        seconds = float(case.get("time", 0.0))
        # the classname of a test outside a class is its file's module
        name = case.get("classname", "")
        files[name] = files.get(name, 0.0) + seconds
        name = case.get("name", "")
        if name.startswith(CRITERION):
            run["criteria"][name[len(CRITERION):].split("_")[0]] = seconds
    return run


TASKS = {
    "run_audits_quick": lambda checkout, tmp: _audits(checkout, tmp, quick=True),
    "run_audits_full": lambda checkout, tmp: _audits(checkout, tmp, quick=False),
    "tier1": _tier1,
}


def _compare(pairs: list, get) -> dict:
    """Both medians of a lower-is-better metric, and the pairs the change won."""
    values = [(get(p["parent"]), get(p["change"])) for p in pairs]
    values = [(a, b) for a, b in values if a is not None and b is not None]
    if not values:
        return {"parent_median": None, "change_median": None, "change_won": 0}
    return {
        "parent_median": statistics.median(a for a, _ in values),
        "change_median": statistics.median(b for _, b in values),
        "change_won": sum(b < a for a, b in values),
    }


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: scripts/e2e_times.py PARENT CHANGE", file=sys.stderr)
        return 2
    checkouts = {"parent": os.path.abspath(sys.argv[1]), "change": os.path.abspath(sys.argv[2])}
    doc = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "pairs": PAIRS}
    for task, run in TASKS.items():
        pairs = []
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"first": order[0]}
            for side in order:
                with tempfile.TemporaryDirectory() as tmp:
                    pair[side] = run(checkouts[side], tmp)
                print(f"{task} pair {i} {side}: {pair[side]['wall_s']:.2f} s", file=sys.stderr)
            pairs.append(pair)
        block = {"pairs": pairs, "wall_s": _compare(pairs, lambda r: r["wall_s"])}
        if task == "tier1":
            block["pytest_s"] = _compare(pairs, lambda r: r["pytest_s"])
            for key in ("criteria", "files"):
                names = sorted({n for p in pairs for side in checkouts for n in p[side][key]})
                block[key + "_s"] = {
                    n: _compare(pairs, lambda r, k=key, n=n: r[k].get(n)) for n in names
                }
        doc[task] = block
    print(json.dumps(doc, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
