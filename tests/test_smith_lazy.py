"""The Smith form builds its transforms from an operation log on first read.

Every field must equal the eager oracle's (`snf_oracle.py`), whatever order
the transforms are read in, and a caller must build only the transforms it
reads.
"""

import itertools
import random

import pytest

import rzero.cohomology as cohomology
import rzero.linalg as linalg
from rzero.cohomology import CochainComplex, integral_cohomology
from rzero.complexes import Complex
from rzero.linalg import (
    PresentedGroup,
    integer_kernel,
    lattice_basis,
    unimodular_inverse,
)
from rzero.modes import Mode
from rzero.pipeline import analyze
from snf_oracle import smith_normal_form as eager_smith_normal_form
from test_pipeline_fuzz import projective_plane_map

TRANSFORMS = ("u", "uinv", "v")

# Each pivot step of these makes an add with multiplier 0: a row add in the
# first three, a column add in the last three.
ZERO_MULTIPLIER = [
    [[0, -3, -6], [-5, 2, -4], [0, -3, -3]],
    [[6, 6, -5], [-1, 4, -5], [-1, -1, 1]],
    [[4, -2, -3], [4, -6, -5], [5, 2, -1]],
    [[-4, 4, -1], [-5, 5, 2], [4, -1, -3]],
    [[4, -5, -2], [-6, -3, -4], [0, 4, 3]],
    [[3, -2, 5], [-3, 5, -1], [-1, -2, -5]],
]


def built(snf) -> set[str]:
    """The transforms of a Smith form that have been built so far."""
    return {name for name in TRANSFORMS if name in vars(snf)}


def assert_matches_oracle(m, order):
    expected = eager_smith_normal_form(m)
    snf = linalg.smith_normal_form(m)
    assert snf.s == expected.s
    assert snf.rank == expected.rank
    assert snf.diagonal == expected.diagonal
    assert built(snf) == set()
    for name in order + order:
        assert getattr(snf, name) == getattr(expected, name), name
    assert built(snf) == set(order)


def orders(seed):
    """Every permutation of the transforms once, then seeded subsets."""
    rng = random.Random(seed)
    yield from (list(p) for p in itertools.permutations(TRANSFORMS))
    while True:
        yield rng.sample(TRANSFORMS, rng.randint(1, len(TRANSFORMS)))


def random_matrices(seed, count):
    rng = random.Random(seed)
    yield from ([], [[]], [[], [], []], [[0] * 4], [[0, 0], [0, 0], [0, 0]])
    for _ in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        entries = rng.choice([(-1, 0, 1), (0, 0, 0, 1, -1, 2, -3), tuple(range(-9, 10))])
        yield [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


def test_lazy_transforms_match_oracle_on_random_matrices():
    for m, order in zip(random_matrices(20261018, 400), orders(1)):
        assert_matches_oracle(m, order)


@pytest.mark.parametrize("m", ZERO_MULTIPLIER)
def test_lazy_transforms_match_oracle_after_zero_multiplier(m):
    snf = linalg.smith_normal_form(m)
    ops = snf._row_ops + snf._col_ops
    assert any(op[0] == linalg._ADD and op[3] == 0 for op in ops)
    for order in itertools.islice(orders(2), 24):
        assert_matches_oracle(m, order)


def random_complex(rng):
    vertices = [f"v{i}" for i in range(rng.randint(3, 7))]
    faces = [list(f) for f in itertools.combinations(vertices, 3) if rng.random() < 0.4]
    faces += [list(f) for f in itertools.combinations(vertices, 2) if rng.random() < 0.2]
    return Complex.build(faces or [vertices[:2]])


def test_lazy_transforms_match_oracle_on_coboundaries():
    rng = random.Random(7)
    order_of = orders(3)
    for _ in range(12):
        cc = CochainComplex(random_complex(rng))
        for q in range(cc.space.dim):
            assert_matches_oracle(cc.coboundary(q), next(order_of))


def test_lazy_transforms_match_oracle_on_projective_plane_kernels(monkeypatch):
    stacked = []

    def recording_kernel(m):
        stacked.append(m)
        return integer_kernel(m)

    monkeypatch.setattr(cohomology, "integer_kernel", recording_kernel)
    analysis = analyze(projective_plane_map(), Mode.HOPF, 17)
    for level in analysis.levels:
        level.kernel
    assert len(stacked) >= 5
    for m, order in zip(stacked, orders(4)):
        assert_matches_oracle(m, order)


@pytest.fixture
def smith_calls(monkeypatch):
    """The Smith forms computed while the test runs, in call order."""
    calls = []
    original = linalg.smith_normal_form

    def recording(m):
        calls.append(original(m))
        return calls[-1]

    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    monkeypatch.setattr(cohomology, "smith_normal_form", recording)
    return calls


TORSION_GROUP = PresentedGroup(3, [[2, 0, 4], [0, 6, 0], [2, 6, 4]])


def test_presented_group_runs_one_smith_form(smith_calls):
    group = PresentedGroup(TORSION_GROUP.gens, TORSION_GROUP.relations)
    assert group.invariants() == (1, (2, 6))
    assert built(smith_calls[0]) == set()
    assert group.normalized_coords([1, 1, 1]) == [-1, 1, 1]
    group.normalized_representative(0)
    assert len(smith_calls) == 1
    assert built(smith_calls[0]) == {"u", "uinv"}


def test_callers_build_only_what_they_read(smith_calls):
    m = [[2, 4, 4, 0], [-6, 6, 12, 6], [10, -4, -16, 2]]
    integer_kernel(m)
    lattice_basis([[2, -6, 10], [4, 6, -4], [4, 12, -16]], 3)
    PresentedGroup(TORSION_GROUP.gens, TORSION_GROUP.relations).invariants()
    unimodular_inverse([[2, 1], [1, 1]])
    assert [built(snf) for snf in smith_calls] == [{"v"}, {"uinv"}, set(), {"u", "v"}]


def test_integral_cohomology_builds_only_v(smith_calls):
    # The kernel basis is v's last columns; coordinates and relations come
    # from an integer echelon of that basis, so no other transform is built.
    cc = CochainComplex(Complex.build([["a", "b", "c"], ["c", "d"], ["d", "e", "f"]]))
    for q in (0, 1):
        h = integral_cohomology(cc, q)
        h.coords(h.represent([1] * h.gens))
        h.group.is_zero_class([1] * h.gens)
    assert len(smith_calls) == 2
    assert [built(snf) for snf in smith_calls] == [{"v"}, {"v"}]
