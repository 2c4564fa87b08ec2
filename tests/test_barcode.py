"""Barcodes: rank formula, decomposition oracle, pointed structure."""

from fractions import Fraction

import pytest

from rzero import Complex, PLMap
from rzero.barcode import (
    ORACLE_DIMENSION_CAP,
    Interval,
    PointedBarcode,
    barcode,
    decompose_oracle,
    index_bars_by_rank,
    pointed_barcode,
)
from rzero.errors import InputError
from rzero.exact import ExactRadius
from rzero.modes import Mode
from rzero.pipeline import PointedModule, analyze, assemble_pointed_module
from rzero.rng import RationalSampler, child_seed

from inputs import edge_map, grid_identity_map, octagon_winding2_map


def abstract_module(dims, transitions, distinguished, char=2):
    k = len(dims)
    criticals = tuple(ExactRadius.of(i + 1) for i in range(k - 1))
    samples = tuple(ExactRadius.of(i + 1) for i in range(k))
    return PointedModule(
        Mode.CIRCLE, char, samples, criticals,
        tuple(dims), tuple(transitions), tuple(distinguished),
    )


def test_rank_formula_three_sample_module():
    # dims (2,2,1) over F_2 with the distinguished vector e1 throughout.
    module = abstract_module(
        (2, 2, 1),
        ([[1, 0], [0, 0]], [[1, 0]]),
        ([1, 0], [1, 0], [1]),
    )
    bars = index_bars_by_rank(module)
    assert bars == {(0, 0): 1, (0, 2): 1, (1, 1): 1}
    pointed = barcode(module)
    oracle = decompose_oracle(module)
    assert pointed == oracle
    assert pointed.distinguished == Interval(ExactRadius.of(0), ExactRadius.of(3))


def test_zero_module():
    module = abstract_module((0, 0), ([[]],), ([], []))
    assert barcode(module).bars == ()
    assert decompose_oracle(module).bars == ()


def test_edge_barcode():
    an = analyze(edge_map(), Mode.SIGNS, 5)
    module = assemble_pointed_module(an, "f2")
    bc = barcode(module, signs_robust_radius=an.robust.radius)
    zero_one = Interval(ExactRadius.of(0), ExactRadius.of(1))
    assert bc.multiset() == {zero_one: 2}
    assert bc.distinguished == zero_one
    assert decompose_oracle(module, signs_robust_radius=an.robust.radius) == bc


def test_octagon_barcode():
    an = analyze(octagon_winding2_map(), Mode.CIRCLE, 5)
    module = assemble_pointed_module(an, "q")
    bc = barcode(module)
    half = Interval(ExactRadius.of(0), ExactRadius.of(Fraction(1, 2)))
    assert bc.multiset() == {half: 1}
    assert bc.distinguished == half
    # The robust radius is 0 even though the winding bar is distinguished.
    assert an.robust.radius == ExactRadius.of(0)


def test_grid_barcode_all_fields():
    an = analyze(grid_identity_map(), Mode.HOPF, 5)
    one = Interval(ExactRadius.of(0), ExactRadius.of(1))
    for field in ("q", "f2", "f3", "f5"):
        module = assemble_pointed_module(an, field)
        bc = barcode(module)
        assert bc.multiset() == {one: 1}
        assert bc.distinguished == one


def test_interval_validation():
    with pytest.raises(InputError):
        Interval(ExactRadius.of(1), ExactRadius.of(1))


def test_distinguished_membership_enforced():
    iv = Interval(ExactRadius.of(0), ExactRadius.of(1))
    other = Interval(ExactRadius.of(0), ExactRadius.of(2))
    with pytest.raises(Exception):
        PointedBarcode(((iv, 1),), other)


def random_module(seed, char):
    sampler = RationalSampler(seed)
    k = sampler.integer(1, 6)
    dims = [sampler.integer(0, 5) for _ in range(k)]
    transitions = []
    for i in range(k - 1):
        rows, cols = dims[i + 1], dims[i]
        transitions.append(
            [[sampler.integer(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
    def norm(x):
        return Fraction(x) if char == 0 else x % char

    distinguished = [[norm(sampler.integer(-2, 2)) for _ in range(dims[0])]]
    for i in range(k - 1):
        vec = distinguished[-1]
        image = [norm(sum(a * b for a, b in zip(row, vec)))
                 for row in transitions[i]]
        distinguished.append(image)
    return abstract_module(dims, transitions, distinguished, char)


def test_oracle_equivalence_random_sample():
    for t in range(60):
        char = (0, 2, 5)[t % 3]
        module = random_module(child_seed(501, t), char)
        assert decompose_oracle(module) == barcode(module), t


def test_rank_consistency():
    # Bars alive at a sample account exactly for its dimension (checked
    # internally by index_bars_by_rank; exercise it on random modules).
    for t in range(20):
        module = random_module(child_seed(77, t), 2)
        bars = index_bars_by_rank(module)
        for i, d in enumerate(module.dims):
            assert sum(m for (a, b), m in bars.items() if a <= i <= b) == d


def test_terminal_sample_convention():
    # A bar alive through the final sample dies at that sample's radius.
    module = abstract_module((1,), (), ([1],))
    bc = barcode(module)
    assert bc.bars == ((Interval(ExactRadius.of(0), ExactRadius.of(1)), 1),)
    assert bc.distinguished == Interval(ExactRadius.of(0), ExactRadius.of(1))


def test_oracle_size_cap():
    module = abstract_module((65,), (), ([0] * 65,))
    with pytest.raises(InputError):
        decompose_oracle(module)


def test_barcode_beyond_oracle_cap_matches_rank_formula():
    # The sweep has no size cap: on a many-level signs module, where the
    # oracle refuses to run, it still agrees with the rank formula.
    names = [f"x{i}" for i in range(30)]
    c = Complex.build([[a, b] for a, b in zip(names, names[1:])])
    values = {name: (Fraction((-1) ** i * (7 * i % 31 + 1)),) for i, name in enumerate(names)}
    an = analyze(PLMap(c, values, 1, "linf"), Mode.SIGNS, 5)
    module = assemble_pointed_module(an, "f2")
    assert sum(module.dims) > ORACLE_DIMENSION_CAP
    with pytest.raises(InputError):
        decompose_oracle(module, signs_robust_radius=an.robust.radius)
    expected = pointed_barcode(module.samples, module.criticals, index_bars_by_rank(module), 0)
    assert barcode(module, signs_robust_radius=an.robust.radius).multiset() == expected.multiset()
