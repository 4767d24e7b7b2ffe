"""The benchmark's tracer still finds every function it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import kcompress.cli  # noqa: F401  (imports every module the tracer scans)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
