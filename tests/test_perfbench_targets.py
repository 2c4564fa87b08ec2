"""The benchmark's tracer wraps functions of `rzero` by name; a rename that
leaves one of its targets dangling makes `perfbench/run.py --trace 1` exit
before measuring.  This test reads the target list without writing to
`perfbench/` (no bytecode cache) and checks every entry resolves."""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(monkeypatch):
    targets = _load_tracing(monkeypatch).TARGETS
    assert len(targets) >= 20
    for span, module_name, attribute in targets:
        assert module_name.startswith("rzero.")
        holder = importlib.import_module(module_name)
        for part in attribute.split("."):
            holder = getattr(holder, part, None)
            assert holder is not None, f"{span}: {module_name}.{attribute} is missing"
        assert callable(holder), f"{span}: {module_name}.{attribute} is not callable"
