"""Distinguished classes, robust radii and pointed modules per mode."""

import random
from fractions import Fraction

import pytest

from rzero.complexes import Complex, PLMap, star_subdivide
from rzero.errors import ModeError
from rzero.exact import ExactRadius
from rzero.modes import (
    Mode,
    ProbeError,
    RayError,
    applicable,
    auto_mode,
    degree_cocycle,
    determinacy_flag,
    sign_vector,
    sign_witness,
    winding_cocycle,
)
from rzero.pipeline import analyze, assemble_pointed_module

from cocycle_oracle import oracle_degree_cocycle, oracle_winding_cocycle
from inputs import (
    edge_map,
    full_subcomplex,
    grid_identity_map,
    octagon_winding2_map,
    rectangle_map,
    superlevel,
)


def test_mode_applicability_and_auto():
    assert applicable(Mode.SIGNS, 1, 5)
    assert not applicable(Mode.SIGNS, 2, 1)
    assert applicable(Mode.CIRCLE, 2, 7)
    assert applicable(Mode.HOPF, 3, 3)
    assert not applicable(Mode.HOPF, 2, 3)
    assert auto_mode(1, 3) == Mode.SIGNS
    assert auto_mode(2, 2) == Mode.HOPF
    assert auto_mode(2, 1) == Mode.HOPF
    assert auto_mode(2, 3) == Mode.CIRCLE
    assert auto_mode(3, 3) == Mode.HOPF
    with pytest.raises(ModeError):
        auto_mode(3, 5)
    assert determinacy_flag(Mode.HOPF, 3, 3) is True  # 3 <= 2*3-3
    assert determinacy_flag(Mode.HOPF, 2, 2) is False
    assert determinacy_flag(Mode.SIGNS, 1, 9) is True


def test_sign_vector_edge():
    f = star_subdivide(edge_map())
    level = superlevel(f, 1)
    sv = sign_vector(f, level)
    assert sv.components == (("p",), ("q",))
    assert sv.signs == (-1, 1)


def test_sign_witness_edge():
    # One ambient component holding both signs cannot extend; split the
    # ambient complex in two and the same signs extend.
    f = star_subdivide(edge_map())
    level = superlevel(f, 1)
    sv = sign_vector(f, level)
    joined = {v: 0 for v in f.complex.vertices}
    assert sign_witness(sv, joined) == {
        "positive_component": ["q"], "negative_component": ["p"]}
    split = {v: 0 if v == "p" else 1 for v in f.complex.vertices}
    assert sign_witness(sv, split) == {}


def test_sign_vector_empty():
    f = star_subdivide(edge_map())
    level = full_subcomplex(f.complex, lambda v: False)
    sv = sign_vector(f, level)
    assert sv.components == ()
    assert sv.signs == ()


def test_sign_vector_rectangle():
    # The rectangle with f(x, y) = y: at any radius below 1 the superlevel
    # complex has a positive top row and a negative bottom row.
    f = star_subdivide(rectangle_map())
    level = superlevel(f, 1)
    sv = sign_vector(f, level)
    assert len(sv.components) == 2
    by_sign = dict(zip(sv.signs, sv.components))
    assert set(by_sign[1]) == {"b0", "b1", "b2"}
    assert set(by_sign[-1]) == {"a0", "a1", "a2"}


def test_winding_constant_map():
    c = edge_map().complex
    f = PLMap(c, {"p": (1, 0), "q": (1, 0)}, 2, "linf")
    level = full_subcomplex(c, lambda v: True)
    assert winding_cocycle(level, f, (0, 1)) == {}


def test_winding_octagon_sums_to_two():
    f = octagon_winding2_map()
    level = full_subcomplex(f.complex, lambda v: True)
    cocycle = winding_cocycle(level, f, (Fraction(-1), Fraction(-1)))
    total = 0
    for i in range(8):
        u, v = f"w{i}", f"w{(i + 1) % 8}"
        edge = tuple(sorted((u, v)))
        value = cocycle.get(edge, 0)
        total += value if edge == (u, v) else -value
    assert abs(total) == 2


def test_winding_grid_boundary():
    f = grid_identity_map()
    boundary = superlevel(f, 1)
    cocycle = winding_cocycle(boundary, f, (Fraction(3), Fraction(2)))
    # Traverse the boundary cycle counterclockwise and sum with orientation.
    order = [(1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
    from inputs import grid_vertex

    total = 0
    for idx in range(8):
        u = grid_vertex(*order[idx])
        v = grid_vertex(*order[(idx + 1) % 8])
        edge = tuple(sorted((u, v)))
        value = cocycle.get(edge, 0)
        total += value if edge == (u, v) else -value
    assert abs(total) == 1


def test_degree_no_zero():
    c = edge_map().complex
    f = PLMap(c, {"p": (5,), "q": (7,)}, 1, "linf")
    assert degree_cocycle(f, (Fraction(1, 3),)) == {}


def test_degree_grid_probe():
    f = grid_identity_map()
    cocycle = degree_cocycle(f, (Fraction(1, 7), Fraction(1, 13)))
    assert len(cocycle) == 1
    ((simplex, value),) = cocycle.items()
    assert value in (1, -1)
    # The probe's carrier triangle: the one whose vertices are the center,
    # (1,0) and (1,1).
    from inputs import grid_vertex

    assert set(simplex) == {grid_vertex(0, 0), grid_vertex(1, 0), grid_vertex(1, 1)}


# Edges on a line, a fan of triangles in the plane and two tetrahedra
# sharing a face in space: dim X = n for n = 1, 2, 3.
_DEGREE_COMPLEXES = {
    1: [("a", "b"), ("b", "c")],
    2: [("a", "b", "c"), ("a", "c", "d"), ("a", "d", "e")],
    3: [("a", "b", "c", "d"), ("a", "b", "c", "e")],
}


def _random_map(rng, n):
    simplices = _DEGREE_COMPLEXES[n]
    vertices = sorted({v for s in simplices for v in s})

    def value():
        return tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
                     for _ in range(n))

    values = {v: value() for v in vertices}
    if rng.random() < 0.4:
        # A degenerate simplex: one value on the line through two others
        # (equal to one of them when t is 0).
        a, b, c = rng.sample(vertices, 3)
        t = Fraction(rng.randint(0, 4), 2)
        values[c] = tuple(x + t * (y - x) for x, y in zip(values[a], values[b]))
    return PLMap(Complex.build(simplices), values, n, "l2")


def _random_probe(rng, f):
    values = list(f.values.values())
    kind = rng.randrange(5)
    if kind == 0:
        return tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 3, 5, 7)))
                     for _ in range(f.n))
    if kind == 4:
        # Inside the image of a top simplex.
        simplex = rng.choice(f.complex.simplices_of_dim(f.n))
        weights = [rng.randint(1, 9) for _ in simplex]
        return tuple(sum(c * f.values[v][i] for c, v in zip(weights, simplex)) / sum(weights)
                     for i in range(f.n))
    # On a vertex value, an edge image or a triangle image.
    chosen = rng.sample(values, kind)
    return tuple(sum(w[i] for w in chosen) / kind for i in range(f.n))


def _cocycle_or_error(compute, f, probe):
    try:
        return compute(f, probe)
    except ProbeError as exc:
        return str(exc)


def test_degree_cocycle_matches_fraction_oracle():
    # The integer Cramer location against the Fraction Gauss-Jordan one on
    # seeded maps, degenerate simplices included, and probes on vertices,
    # edges and faces: the same cocycle or the same ProbeError.
    rng = random.Random(20151507)
    seen = set()
    for _ in range(600):
        f = _random_map(rng, rng.choice((1, 2, 2, 3, 3)))
        probe = _random_probe(rng, f)
        expected = _cocycle_or_error(oracle_degree_cocycle, f, probe)
        assert _cocycle_or_error(degree_cocycle, f, probe) == expected, (f.values, probe)
        if isinstance(expected, str):
            seen.add(expected.split(" simplex")[0])
        else:
            seen.add("cocycle" if expected else "zero")
    assert seen == {"cocycle", "zero", "probe degenerate on", "probe hits a face of"}


def _winding_or_error(compute, f, ray):
    try:
        return compute(f.complex, f, ray)
    except RayError as exc:
        return str(exc)


def test_winding_cocycle_matches_fraction_oracle():
    # The signs of integer cross and dot products against the Fraction
    # crossing points, on seeded planar maps with mixed denominators and
    # rays through vertex values and along edge images.
    rng = random.Random(1507)
    seen = set()
    for _ in range(400):
        f = _random_map(rng, 2)
        f = f.with_values({v: val if any(val) else (Fraction(1, 3), 0)
                           for v, val in f.values.items()})
        values = list(f.values.values())
        kind = rng.randrange(3)
        if kind == 0:
            ray = (Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))),
                   Fraction(rng.randint(-6, 6), rng.choice((1, 3, 7))))
        elif kind == 1:
            ray = tuple(x * rng.choice((1, -1, Fraction(1, 2))) for x in rng.choice(values))
        else:
            a, b = rng.sample(values, 2)
            ray = tuple(x - y for x, y in zip(a, b))
        if not any(ray):
            continue
        expected = _winding_or_error(oracle_winding_cocycle, f, ray)
        assert _winding_or_error(winding_cocycle, f, ray) == expected, (f.values, ray)
        seen.add("ray error" if isinstance(expected, str) else "crossings" if expected else "none")
    assert seen == {"ray error", "crossings", "none"}


def test_degree_negated_identity_same_class():
    probe = (Fraction(1, 7), Fraction(1, 13))
    f = grid_identity_map()
    g = grid_identity_map(negate=True)
    an_f = analyze(f, Mode.HOPF, 3)
    an_g = analyze(g, Mode.HOPF, 3)
    assert an_f.robust.radius == an_g.robust.radius == ExactRadius.of(1)
    # det(-I) = +1 in the plane: the two classes agree exactly.
    level_f, level_g = an_f.levels[0], an_g.levels[0]
    assert level_f.rel.classes_equal(level_f.degree_coords, level_g.degree_coords)
    # Direct cocycles at mirrored probes agree on orientation signs.
    cf = degree_cocycle(f, probe)
    cg = degree_cocycle(g, tuple(-x for x in probe))
    assert sorted(cf.values()) == sorted(cg.values())


def test_robust_radius_examples():
    edge = analyze(edge_map(), Mode.SIGNS, 5)
    assert edge.robust.radius == ExactRadius.of(1)
    assert edge.robust.witness["positive_component"] == ("q",) or \
        list(edge.robust.witness["positive_component"]) == ["q"]

    grid = analyze(grid_identity_map(), Mode.HOPF, 5)
    assert grid.robust.radius == ExactRadius.of(1)

    octagon = analyze(octagon_winding2_map(), Mode.CIRCLE, 5)
    assert octagon.robust.radius == ExactRadius.of(0)
    assert octagon.robust.witness == {}


def test_assemble_signs_module():
    an = analyze(edge_map(), Mode.SIGNS, 5)
    mod = assemble_pointed_module(an, "f2")
    assert mod.dims == (2, 0)
    assert mod.meta["sign_vectors"][0] in ([-1, 1], [1, -1])
    with pytest.raises(Exception):
        assemble_pointed_module(an, "z")


def test_assemble_circle_module():
    an = analyze(octagon_winding2_map(), Mode.CIRCLE, 5)
    mod = assemble_pointed_module(an, "z")
    assert mod.groups == ((1, ()), (0, ()), (0, ()))
    assert mod.normalized_distinguished()[0] in ([2], [-2])
    as_q = mod.tensor(0)
    assert as_q.dims == (1, 0, 0)
    first = as_q.distinguished[0]
    assert first in ([Fraction(2)], [Fraction(-2)])


def test_assemble_hopf_module():
    an = analyze(grid_identity_map(), Mode.HOPF, 5)
    mod = assemble_pointed_module(an, "z")
    assert mod.groups == ((1, ()), (0, ()))
    assert mod.normalized_distinguished()[0] in ([1], [-1])
    f2 = assemble_pointed_module(an, "f2")
    assert f2.dims == (1, 0)
    assert f2.distinguished[0] == [1]


def test_probe_and_ray_independence():
    grid = grid_identity_map()
    base = analyze(grid, Mode.HOPF, 1)
    for seed in range(2, 8):
        other = analyze(grid, Mode.HOPF, seed)
        for a, b in zip(base.levels, other.levels):
            assert a.rel.classes_equal(a.degree_coords, b.degree_coords)
    octagon = octagon_winding2_map()
    base = analyze(octagon, Mode.CIRCLE, 1)
    for seed in range(2, 8):
        other = analyze(octagon, Mode.CIRCLE, seed)
        for a, b in zip(base.levels, other.levels):
            assert a.coh.group.classes_equal(a.winding_coords, b.winding_coords)


def test_mode_inapplicable_error():
    with pytest.raises(ModeError):
        analyze(grid_identity_map(), Mode.SIGNS, 1)


def test_l2_grid_end_to_end():
    # Same grid under the euclidean norm: corners now sit at radius sqrt(2).
    f = grid_identity_map()
    g = PLMap(f.complex, f.values, 2, "l2")
    an = analyze(g, Mode.HOPF, 3)
    assert list(an.criticals) == [ExactRadius.of(1), ExactRadius.sqrt(2)]
    assert an.robust.radius == ExactRadius.of(1)
    module = assemble_pointed_module(an, "q")
    assert module.dims == (1, 0, 0)


def test_octagon_hopf_agrees_with_circle():
    # dim X = 1 <= 2: hopf applies too and sees the same robust radius (0).
    f = octagon_winding2_map()
    hopf = analyze(f, Mode.HOPF, 4)
    circle = analyze(f, Mode.CIRCLE, 4)
    assert hopf.robust.radius == circle.robust.radius == ExactRadius.of(0)


def test_grid_circle_agrees_with_hopf():
    f = grid_identity_map()
    circle = analyze(f, Mode.CIRCLE, 4)
    hopf = analyze(f, Mode.HOPF, 4)
    assert circle.robust.radius == hopf.robust.radius == ExactRadius.of(1)
    mod = assemble_pointed_module(circle, "z")
    assert mod.groups == ((1, ()), (0, ()))
    assert mod.normalized_distinguished()[0] in ([1], [-1])


def test_signs_witness_lives_in_one_ambient_component():
    # A disconnected input where a careless global pick would pair sign
    # witnesses from different ambient components.
    from rzero.complexes import Complex, component_index, connected_components

    c = Complex.build([["a1", "a2"], ["z1", "z2"]])
    f = PLMap(
        c,
        {"a1": (Fraction(1),), "a2": (Fraction(1),),
         "z1": (Fraction(-1),), "z2": (Fraction(1),)},
        1, "linf",
    )
    analysis = analyze(f, Mode.SIGNS, 5)
    assert analysis.robust.radius == ExactRadius.of(1)
    witness = analysis.robust.witness
    ambient = component_index(connected_components(analysis.f.complex))
    pos, neg = witness["positive_component"], witness["negative_component"]
    assert ambient[pos[0]] == ambient[neg[0]]
    assert set(pos) == {"z2"} and set(neg) == {"z1"}
