"""Acceptance criteria.

Each test prints one pass/fail line; every numeric assertion is an exact
equality or an exact comparison, and the stated wall-clock budgets are
enforced.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import time
from fractions import Fraction

from rzero.barcode import Interval, barcode, decompose_oracle
from rzero.exact import ExactRadius
from rzero.harness import check_invariances, check_stability, exactness_checks
from rzero.modes import Mode
from rzero.pipeline import analyze, assemble_pointed_module
from rzero.rng import child_seed

from inputs import edge_map, grid_identity_map, octagon_winding2_map, rectangle_map
from test_barcode import random_module

ZERO = ExactRadius.of(0)
ONE = ExactRadius.of(1)
HALF = ExactRadius.of(Fraction(1, 2))


class _Criterion:
    def __init__(self, number, title, limit):
        self.number = number
        self.title = title
        self.limit = limit
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.number}] {self.title}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


def _pipeline(f, mode, field, seed=11):
    analysis = analyze(f, mode, seed)
    module = assemble_pointed_module(analysis, field)
    bc = None
    if module.char is not None:
        bc = barcode(module, signs_robust_radius=analysis.robust.radius)
    return analysis, module, bc


def test_criterion_1_intermediate_value():
    with _Criterion(1, "intermediate-value example", 1.0):
        for f in (rectangle_map(), edge_map()):
            analysis, module, bc = _pipeline(f, Mode.SIGNS, "f2")
            assert list(analysis.criticals) == [ONE]
            level0 = analysis.levels[0]
            assert len(level0.signs.components) == 2
            assert sorted(level0.signs.signs) == [-1, 1]
            assert analysis.robust.radius == ONE
            assert bc.distinguished == Interval(ZERO, ONE)


def test_criterion_2_topological_degree():
    with _Criterion(2, "topological-degree example", 1.0):
        analysis, module, bc = _pipeline(grid_identity_map(), Mode.HOPF, "z")
        assert module.groups == ((1, ()), (0, ()))  # ker j* = Z, then 0
        assert module.normalized_distinguished()[0] in ([1], [-1])
        assert analysis.robust.radius == ONE
        rational = assemble_pointed_module(analysis, "q")
        assert barcode(rational).distinguished == Interval(ZERO, ONE)

        negated, neg_module, _ = _pipeline(grid_identity_map(negate=True), Mode.HOPF, "z")
        assert negated.robust.radius == ONE
        # det(-I_2) = +1: the negated map carries the same class exactly.
        group = analysis.levels[0].rel
        assert group.classes_equal(analysis.levels[0].degree_coords,
                                   negated.levels[0].degree_coords)


def test_criterion_3_winding():
    with _Criterion(3, "winding example", 1.0):
        analysis, module, bc = _pipeline(octagon_winding2_map(), Mode.CIRCLE, "q")
        assert list(analysis.criticals) == [HALF, ONE]
        assert module.dims == (1, 0, 0)
        integral = assemble_pointed_module(analysis, "z")
        assert integral.normalized_distinguished()[0] in ([2], [-2])
        assert analysis.robust.radius == ZERO
        assert bc.distinguished == Interval(ZERO, HALF)


def test_criterion_4_oracle_equivalence():
    with _Criterion(4, "oracle equivalence on 1000 random modules", 60.0):
        mismatches = 0
        for t in range(1000):
            char = (0, 2, 5)[t % 3]
            module = random_module(child_seed(424242, t), char)
            if decompose_oracle(module) != barcode(module):
                mismatches += 1
        assert mismatches == 0


def test_criterion_5_stability_suite():
    with _Criterion(5, "stability suite (200 trials per example and delta)", 120.0):
        cases = [
            (edge_map(), Mode.SIGNS),
            (rectangle_map(), Mode.SIGNS),
            (grid_identity_map(), Mode.HOPF),
            (octagon_winding2_map(), Mode.CIRCLE),
        ]
        for f, mode in cases:
            for delta in (Fraction(1, 10), Fraction(1, 2)):
                report = check_stability(f, mode, delta, 200, 987_654)
                assert report.passed, report.to_dict()


def test_criterion_6_invariance_suite():
    with _Criterion(6, "invariance suite", None):
        cases = [
            (edge_map(), Mode.SIGNS),
            (rectangle_map(), Mode.SIGNS),
            (grid_identity_map(), Mode.HOPF),
            (octagon_winding2_map(), Mode.CIRCLE),
        ]
        for f, mode in cases:
            report = check_invariances(f, mode, 2_026)
            assert report.passed, report.to_dict()
            names = {r.name for r in report.results}
            assert "functoriality of transitions" in names
            assert "scaling equivariance" in names
        # The n = m = 1 cross-check and negation ran for the signs inputs;
        # rotation and probe/ray independence for the planar ones.


def test_criterion_7_exactness_regressions():
    with _Criterion(7, "exactness regressions", None):
        cases = [
            (edge_map(), Mode.SIGNS),
            (rectangle_map(), Mode.SIGNS),
            (grid_identity_map(), Mode.HOPF),
            (octagon_winding2_map(), Mode.CIRCLE),
        ]
        for f, mode in cases:
            report = exactness_checks(f, mode, 9_090)
            assert report.passed, report.to_dict()
