"""The benchmark's tracer still finds every function it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
