"""The benchmark's tracer wraps functions of `rzero` by name, and its runs
check every output against recorded digests.  A rename that leaves one of
the tracer's targets dangling makes `perfbench/run.py --trace 1` exit before
measuring, and an output change fails every benchmark run.  These tests read
`perfbench/` without writing to it (no bytecode cache): every trace target
resolves, and every workload reproduces its recorded digests."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import pathlib
import random
import sys

import pytest

from rzero.cli import main
from rzero.linalg import smith_normal_form

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
DIGEST_SEED = 1   # run.py checks the recorded digests at its default seed


def _load(monkeypatch, name):
    """Import perfbench/<name>.py as `perfbench_<name>`, so that it does not
    clash with the test suite's own modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(monkeypatch):
    targets = _load(monkeypatch, "tracing").TARGETS
    assert len(targets) >= 20
    for span, module_name, attribute in targets:
        assert module_name.startswith("rzero.")
        holder = importlib.import_module(module_name)
        for part in attribute.split("."):
            holder = getattr(holder, part, None)
            assert holder is not None, f"{span}: {module_name}.{attribute} is missing"
        assert callable(holder), f"{span}: {module_name}.{attribute} is not callable"


def test_tracer_reads_a_smith_form(monkeypatch):
    # The tracer's SNF hook reads s, u and v of the form it is handed.  The
    # widest entry is u's -9 (four bits) in the first form, and v's -17
    # (five bits) in the second; the only nonzero entry of s is a 1.
    tracer = _load(monkeypatch, "tracing").Tracer()
    for m, bits in (([[1, 5], [9, 45], [0, 0]], 4), ([[1, 17], [0, 0]], 5)):
        tracer._after_linalg_snf((m,), smith_normal_form(m), None)
        assert (tracer.snf_max_dim, tracer.snf_max_bits) == (3, bits)


@pytest.mark.parametrize("workload", ["stability", "ladder", "signs-ladder"])
def test_workload_outputs_match_recorded_digests(monkeypatch, tmp_path, workload):
    bench_inputs = _load(monkeypatch, "inputs")
    with monkeypatch.context() as patch:
        # workloads.py imports its sibling as `inputs`, a name the test
        # suite's own inputs module already holds.
        patch.setitem(sys.modules, "inputs", bench_inputs)
        workloads = _load(monkeypatch, "workloads")
    commands = workloads.WORKLOADS[workload](
        random.Random(DIGEST_SEED), str(tmp_path), str(PERFBENCH.parent))
    digests = {}
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(command.argv))
        assert code == 0, f"{command.label}: {err.getvalue()}"
        digests[command.label] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    assert digests == recorded[workload]
