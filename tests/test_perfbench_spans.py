"""The benchmark's tracer still finds every function it wraps."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import kcompress.cli  # noqa: F401  (imports every module the tracer scans)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _load_spans():
    return _load("spans")


def _nonzero_counts(workload: str) -> tuple:
    """The layer counts run.py requires to be positive on a workload, read
    from its source: importing run.py would pin this process's BLAS pools."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "NONZERO":
            return ast.literal_eval(node.value)[workload]
    raise AssertionError("perfbench/run.py defines no NONZERO")


def _target(home: str, attr: str):
    """The function a tracer target names: a module function, or the
    function of a classmethod (Class.method)."""
    owner = importlib.import_module(home)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth].__func__
    return getattr(owner, attr)


def _kcompress_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "kcompress" or name.startswith("kcompress."))]


def test_tracer_wraps_every_target_and_restores_it():
    # a refactor that deletes or renames a traced function fails here, not
    # only in the benchmark (install raises "no call site found")
    spans = _load_spans()
    names = [f"{home}.{attr}" for _, home, attr in spans.TARGETS]
    originals = [_target(home, attr) for _, home, attr in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, (_, home, attr), original in zip(names, spans.TARGETS, originals):
            assert _target(home, attr).__wrapped__ is original, name
        # no kcompress module still holds an unwrapped target
        held = [
            f"{mod.__name__}.{attr}"
            for mod in _kcompress_modules()
            for attr, value in vars(mod).items()
            if any(value is original for original in originals)
        ]
        assert held == []
    finally:
        tracer.uninstall()
    for name, (_, home, attr), original in zip(names, spans.TARGETS, originals):
        assert _target(home, attr) is original, name


CONCENTRATION_CONFIGS = {
    "boxes": "mode = partite\nscheme_id = rectangle\nclass_id = rectangle\n",
    "sum-thresholds": "mode = nonpartite\nscheme_id = sum-threshold\nclass_id = sum-threshold\n",
}


@pytest.mark.parametrize("family", sorted(CONCENTRATION_CONFIGS))
def test_traced_concentration_counts_what_the_benchmark_checks(family, tmp_path, capsys):
    # the counts the benchmark's trace check compares with the records a
    # concentration pass wrote: one draw_sample per trial, len(records) as
    # the run's trial count, and an exact total loss that is called at all
    from kcompress.cli import dispatch

    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONCENTRATION_CONFIGS[family]
        + "k = 2\nepsilon = 0.1\ndelta = 0.1\nm_values = 50, 200\ntrials = 3\nseed = 4\n"
    )
    out = tmp_path / "out"
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = dispatch(["concentration", "--config", str(cfg), "--engine", "fast",
                         "--out", str(out)])
        numbers = spans.layer_numbers(tracer.take())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    records = (out / "trials.jsonl").read_bytes().count(b"\n")
    # 2 variants x 2 sample sizes x 3 trials, none skipped or re-measured
    assert records == 12
    assert numbers["losses.total_exact.calls"] > 0
    assert numbers["samples.draw.calls"] == records
    assert numbers["experiments.run.trials"] == records


@pytest.mark.parametrize("family", sorted(CONCENTRATION_CONFIGS))
def test_traced_pac_counts_what_the_benchmark_checks(family, tmp_path, capsys):
    # a PAC cell makes one exact total-loss call for all its trials, and
    # the benchmark requires that call, one draw_sample per trial and
    # len(records) as the run's trial count
    from kcompress.cli import dispatch

    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONCENTRATION_CONFIGS[family]
        + "k = 2\nepsilon = 0.1\ndelta = 0.1\nm_values = 50, 200\ntrials = 3\nseed = 4\n"
    )
    out = tmp_path / "out"
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = dispatch(["pac", "--config", str(cfg), "--engine", "fast", "--out", str(out)])
        numbers = spans.layer_numbers(tracer.take())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    records = (out / "trials.jsonl").read_bytes().count(b"\n")
    # 2 sample sizes x 3 trials, below m_pac, so no cell is re-measured
    assert records == 6
    assert numbers["losses.total_exact.calls"] > 0
    assert numbers["samples.seed.calls"] > 0
    assert numbers["samples.draw.calls"] == records
    assert numbers["experiments.run.trials"] == records
    for name in _nonzero_counts("pac"):
        assert numbers[name] > 0, name


def test_traced_validity_counts_what_the_benchmark_checks(tmp_path, capsys):
    # the benchmark's small validity pass, both families: a refactor that
    # stops making order choices through OrderChoice, or bypasses another
    # traced layer, fails here and not only under perfbench --trace 1
    from kcompress.cli import dispatch

    spans, workloads = _load_spans(), _load("workloads")
    audits = workloads.build_workloads(workloads.TINY)["validity"].audits
    assert {a.config["mode"] for a in audits} == {"partite", "nonpartite"}
    per_audit, pass_spans = [], []
    tracer = spans.Tracer()
    try:
        tracer.install()
        for audit in audits:
            cfg = tmp_path / f"{audit.audit_id}.cfg"
            cfg.write_text(audit.config_text())
            out = tmp_path / audit.audit_id
            assert dispatch(audit.argv(str(cfg), 0, str(out))) == 0
            taken = tracer.take()
            pass_spans += taken
            records = (out / "trials.jsonl").read_bytes().count(b"\n")
            per_audit.append((audit, records, spans.layer_numbers(taken)))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for audit, records, numbers in per_audit:
        assert records == audit.records > 0
        assert numbers["samples.draw.calls"] == records
        assert numbers["schemes.validity.samples"] == records
        # one compression round trip per trial: one subsample, one rebuild
        assert numbers["schemes.reconstruct.calls"] == records
        assert numbers["indexing.subsample.calls"] == records
        # each nonpartite trial is scored under the canonical order choice
        # and the 5 random ones of check_compression_validity's default
        orders = 6 if audit.config["mode"] == "nonpartite" else 0
        assert numbers["indexing.order_choice.calls"] == orders * records
    numbers = spans.layer_numbers(pass_spans)
    for name in _nonzero_counts("validity"):
        assert numbers[name] > 0, name
