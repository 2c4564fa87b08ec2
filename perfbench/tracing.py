"""Per-layer tracing from outside the package.

`Tracer.install` replaces each target function of `rzero` by a wrapper that
records a span (name, start, end, parent span, command id).  A function
imported elsewhere with `from .x import f` is bound once per importing
module, so the wrapper is installed at every binding site: every attribute
of every loaded `rzero` module that is the original function object.
Methods are wrapped on their class.  A target that is missing or not
callable stops the run at once, so a rename cannot make a layer read zero.

Spans stay in memory; `summary` turns the spans of the traced passes into
per-layer metrics, and `write` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  A dotted attribute is a method.
TARGETS = [
    ("io.parse", "rzero.io", "parse_input"),
    ("io.parse", "rzero.io", "parse_barcode"),
    ("io.dumps", "rzero.io", "dumps"),
    ("complexes.subdivide", "rzero.complexes", "star_subdivide"),
    ("normmin.norm_min", "rzero.normmin", "simplex_norm_min"),
    ("filtration.build", "rzero.filtration", "build_filtration"),
    ("modes.cocycle", "rzero.modes", "winding_cocycle"),
    ("modes.cocycle", "rzero.modes", "degree_cocycle"),
    ("modes.probe", "rzero.modes", "admissible_ray"),
    ("modes.probe", "rzero.modes", "admissible_probe"),
    ("cohomology.integral", "rzero.cohomology", "integral_cohomology"),
    ("cohomology.coords", "rzero.cohomology", "IntCohomology.coords"),
    ("cohomology.induced", "rzero.cohomology", "induced_int_matrix"),
    ("cohomology.kernel_subgroup", "rzero.cohomology", "kernel_subgroup"),
    ("linalg.snf", "rzero.linalg", "smith_normal_form"),
    ("linalg.field_factor", "rzero.linalg", "FieldSolver.__init__"),
    ("linalg.field_solve", "rzero.linalg", "FieldSolver.solve"),
    ("linalg.unimodular_inverse", "rzero.linalg", "unimodular_inverse"),
    ("linalg.zero_class", "rzero.linalg", "PresentedGroup.is_zero_class"),
    ("linalg.field_rank", "rzero.linalg", "field_rank"),
    ("pipeline.analyze", "rzero.pipeline", "analyze"),
    ("pipeline.module", "rzero.pipeline", "assemble_pointed_module"),
    ("pipeline.normalize", "rzero.pipeline", "PointedModule.normalized_transitions"),
    ("pipeline.normalize", "rzero.pipeline", "PointedModule.normalized_distinguished"),
    ("barcode.barcode", "rzero.barcode", "barcode"),
    ("matching.bottleneck", "rzero.matching", "bottleneck"),
    ("matching.feasible", "rzero.matching", "feasible_matching"),
    ("matching.candidates", "rzero.matching", "_candidates"),
    ("harness.perturb", "rzero.harness", "perturb"),
    ("harness.stability", "rzero.harness", "check_stability"),
]

# Per-layer metrics: (name, unit).  Times are self times per pass; counts
# are per pass unless the name says max or per.
LAYER_METRICS = [
    ("cli.command_s", "s"),
    ("cli.self_s", "s"),
    ("io.parse_s", "s"),
    ("io.dumps_s", "s"),
    ("complexes.subdivide_s", "s"),
    ("complexes.subdivide_calls", "count"),
    ("complexes.simplices_out", "count"),
    ("complexes.vertices_added", "count"),
    ("normmin.norm_min_s", "s"),
    ("normmin.norm_min_calls", "count"),
    ("filtration.build_s", "s"),
    ("filtration.levels", "count"),
    ("modes.cocycle_s", "s"),
    ("modes.probe_s", "s"),
    ("cohomology.integral_s", "s"),
    ("cohomology.integral_calls", "count"),
    ("cohomology.coords_s", "s"),
    ("cohomology.induced_s", "s"),
    ("cohomology.kernel_subgroup_s", "s"),
    ("linalg.snf_s", "s"),
    ("linalg.snf_calls", "count"),
    ("linalg.snf_max_dim", "count"),
    ("linalg.snf_max_bits", "bits"),
    ("linalg.field_factor_s", "s"),
    ("linalg.field_solve_s", "s"),
    ("linalg.field_solve_calls", "count"),
    ("linalg.unimodular_inverse_s", "s"),
    ("linalg.zero_class_probes", "count"),
    ("linalg.field_rank_s", "s"),
    ("linalg.field_rank_calls", "count"),
    ("pipeline.analyze_s", "s"),
    ("pipeline.analyze_calls", "count"),
    ("pipeline.module_s", "s"),
    ("pipeline.normalize_s", "s"),
    ("pipeline.probes_per_analysis", "count"),
    ("pipeline.probe_bound_per_analysis", "count"),
    ("barcode.barcode_s", "s"),
    ("barcode.bars", "count"),
    ("barcode.levels", "count"),
    ("matching.bottleneck_s", "s"),
    ("matching.feasible_calls", "count"),
    ("matching.candidates", "count"),
    ("harness.perturb_s", "s"),
    ("harness.stability_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class TraceError(RuntimeError):
    """A wrapper target is missing or not callable."""


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    owner, _, name = attribute.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    target = getattr(holder, name, None) if holder is not None else None
    if target is None or not callable(target):
        raise TraceError(f"trace target {module_name}.{attribute} is missing or not callable")
    return holder, name, target


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for row in m for x in row), default=0)


class Tracer:
    """Span recorder for the loaded `rzero`; one instance per traced run."""

    def __init__(self):
        # Resolve every target now, so that a missing one stops the run
        # before anything is measured.
        self._targets = [(span, *_resolve(module, attribute))
                         for span, module, attribute in TARGETS]
        self.spans = []            # [name, start, end, parent, command]
        self.notes = defaultdict(float)
        self.snf_max_dim = 0
        self.snf_max_bits = 0
        self.command = None
        self.scaling = {}          # command -> sizes summed over passes
        self._stack = []
        self._installed = []       # (holder, attribute, original)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "rzero" or key.startswith("rzero."))]
        for span, holder, name, original in self._targets:
            wrapper = self._wrap(span, original)
            if isinstance(holder, type):
                self._bind(holder, name, original, wrapper)
                continue
            sites = [(m, attr) for m in modules for attr, value in vars(m).items()
                     if value is original]
            if not sites:
                raise TraceError(f"no binding site found for {span}")
            for module, attr in sites:
                self._bind(module, attr, original, wrapper)

    def _bind(self, holder, name, original, wrapper) -> None:
        self._installed.append((holder, name, original))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._installed):
            setattr(holder, name, original)
        self._installed.clear()

    def _wrap(self, span_name: str, fn):
        after = getattr(self, "_after_" + span_name.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.command]
            spans.append(record)
            stack.append(index)
            before = self.notes["hopf_probes"] if span_name == "pipeline.analyze" else 0
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, before)
            return result

        return wrapper

    # -- counters recorded at the boundaries --------------------------------

    def _sizes(self) -> dict:
        return self.scaling.setdefault(self.command, defaultdict(int))

    def _after_complexes_subdivide(self, args, result, _):
        before = len(args[0].complex.vertices)
        after = len(result.complex.vertices)
        simplices = len(result.complex.all_simplices())
        self.notes["complexes.simplices_out"] += simplices
        self.notes["complexes.vertices_added"] += after - before
        sizes = self._sizes()
        sizes["vertices_in"] += before
        sizes["vertices_out"] += after
        sizes["simplices"] += simplices

    def _after_filtration_build(self, args, result, _):
        self.notes["filtration.levels"] += result.level_count()
        self._sizes()["levels"] += result.level_count()

    def _after_linalg_snf(self, args, result, _):
        rows = len(args[0])
        cols = len(args[0][0]) if rows else 0
        self.snf_max_dim = max(self.snf_max_dim, rows, cols)
        bits = max(_matrix_bits(result.s), _matrix_bits(result.u), _matrix_bits(result.v))
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _after_linalg_zero_class(self, args, result, _):
        self.notes["hopf_probes"] += 1

    def _after_pipeline_analyze(self, args, result, before):
        if getattr(result.mode, "value", None) == "hopf":
            levels = len(result.levels)
            self.notes["hopf_analyses"] += 1
            self.notes["hopf_probe_count"] += self.notes["hopf_probes"] - before
            self.notes["hopf_probe_bound"] += 2 + math.ceil(math.log2(max(levels - 1, 1)))

    def _after_barcode_barcode(self, args, result, _):
        self.notes["barcode.bars"] += result.total()
        self.notes["barcode.levels"] += args[0].level_count()

    def _after_matching_candidates(self, args, result, _):
        self.notes["matching.candidates"] += len(result)

    # -- commands -------------------------------------------------------------

    def command_runner(self, main):
        """`main` wrapped in the root span of every command."""
        return self._wrap("cli.command", main)

    def begin_command(self, command_id) -> None:
        self.command = command_id

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> dict:
        """{command: {span name: self time}}: each span's time minus the time
        its child spans cover."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, command) in enumerate(self.spans):
            out[command][name] += end - start - child[index]
        return out

    def summary(self, passes: int) -> dict:
        """Per-pass layer metrics from all recorded spans."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for by_name in self.self_times().values():
            for name, value in by_name.items():
                self_time[name] += value
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        per = 1.0 / max(passes, 1)
        notes = self.notes
        analyses = notes["hopf_analyses"]
        out = {
            "cli.command_s": total["cli.command"] * per,
            "cli.self_s": self_time["cli.command"] * per,
            "io.parse_s": self_time["io.parse"] * per,
            "io.dumps_s": self_time["io.dumps"] * per,
            "complexes.subdivide_s": self_time["complexes.subdivide"] * per,
            "complexes.subdivide_calls": calls["complexes.subdivide"] * per,
            "complexes.simplices_out": notes["complexes.simplices_out"] * per,
            "complexes.vertices_added": notes["complexes.vertices_added"] * per,
            "normmin.norm_min_s": self_time["normmin.norm_min"] * per,
            "normmin.norm_min_calls": calls["normmin.norm_min"] * per,
            "filtration.build_s": self_time["filtration.build"] * per,
            "filtration.levels": notes["filtration.levels"] * per,
            "modes.cocycle_s": self_time["modes.cocycle"] * per,
            "modes.probe_s": self_time["modes.probe"] * per,
            "cohomology.integral_s": self_time["cohomology.integral"] * per,
            "cohomology.integral_calls": calls["cohomology.integral"] * per,
            "cohomology.coords_s": self_time["cohomology.coords"] * per,
            "cohomology.induced_s": self_time["cohomology.induced"] * per,
            "cohomology.kernel_subgroup_s": self_time["cohomology.kernel_subgroup"] * per,
            "linalg.snf_s": self_time["linalg.snf"] * per,
            "linalg.snf_calls": calls["linalg.snf"] * per,
            "linalg.snf_max_dim": self.snf_max_dim,
            "linalg.snf_max_bits": self.snf_max_bits,
            "linalg.field_factor_s": self_time["linalg.field_factor"] * per,
            "linalg.field_solve_s": self_time["linalg.field_solve"] * per,
            "linalg.field_solve_calls": calls["linalg.field_solve"] * per,
            "linalg.unimodular_inverse_s": self_time["linalg.unimodular_inverse"] * per,
            "linalg.zero_class_probes": calls["linalg.zero_class"] * per,
            "linalg.field_rank_s": self_time["linalg.field_rank"] * per,
            "linalg.field_rank_calls": calls["linalg.field_rank"] * per,
            "pipeline.analyze_s": self_time["pipeline.analyze"] * per,
            "pipeline.analyze_calls": calls["pipeline.analyze"] * per,
            "pipeline.module_s": self_time["pipeline.module"] * per,
            "pipeline.normalize_s": self_time["pipeline.normalize"] * per,
            "pipeline.probes_per_analysis":
                notes["hopf_probe_count"] / analyses if analyses else 0.0,
            "pipeline.probe_bound_per_analysis":
                notes["hopf_probe_bound"] / analyses if analyses else 0.0,
            "barcode.barcode_s": self_time["barcode.barcode"] * per,
            "barcode.bars": notes["barcode.bars"] * per,
            "barcode.levels": notes["barcode.levels"] * per,
            "matching.bottleneck_s": self_time["matching.bottleneck"] * per,
            "matching.feasible_calls": calls["matching.feasible"] * per,
            "matching.candidates": notes["matching.candidates"] * per,
            "harness.perturb_s": self_time["harness.perturb"] * per,
            "harness.stability_s": self_time["harness.stability"] * per,
        }
        return out

    def write(self, path) -> None:
        """One JSON list per span: [id, name, start, end, parent id, command]."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span]) + "\n")
