"""Whole-pipeline stress tests beyond the worked examples."""

from fractions import Fraction

from rzero.barcode import barcode, decompose_oracle
from rzero.complexes import Complex, PLMap
from rzero.exact import ExactRadius
from rzero.modes import Mode, applicable
from rzero.pipeline import analyze, assemble_pointed_module
from rzero.rng import RationalSampler, child_seed

RP2_FACES = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def projective_plane_map():
    rp2 = Complex.build([[f"p{v}" for v in face] for face in RP2_FACES])
    values = {
        "p0": (Fraction(3), Fraction(1)),
        "p1": (Fraction(1), Fraction(3)),
        "p2": (Fraction(-3), Fraction(2)),
        "p3": (Fraction(2), Fraction(-3)),
        "p4": (Fraction(-1), Fraction(-3)),
        "p5": (Fraction(-3), Fraction(-1)),
    }
    return PLMap(rp2, values, 2, "linf")


def test_projective_plane_isolated_levels_carry_no_obstruction():
    # On a closed surface a planar map is globally null-homotopic, so once
    # the superlevel complex is a set of isolated points nothing obstructs:
    # the kernel subgroup there is trivial even though the ambient relative
    # group is all 2-torsion, and the degree cocycle has even total count.
    analysis = analyze(projective_plane_map(), Mode.HOPF, 17)
    top = analysis.samples.index(ExactRadius.of(3))
    level = analysis.levels[top]
    # The top superlevel complex is a forest (no loops to wind around).
    sub = level.level
    from rzero.complexes import connected_components

    assert not sub.simplices_of_dim(2)
    assert len(sub.edges()) - len(sub.vertices) + len(connected_components(sub)) == 0
    assert level.rel.invariants() == (0, (2,))
    assert level.kernel.group.invariants() in ((0, ()), (0, (1,)))
    assert sum(abs(v) for v in level.degree_coords) % 2 == 0
    assert not level.nontrivial
    for field in ("q", "f2"):
        module = assemble_pointed_module(analysis, field)
        bc = barcode(module)
        assert decompose_oracle(module) == bc


def moebius_odd_winding_map():
    """A strip with a half twist, edge-subdivided, carrying values that wind
    once around the origin along the boundary decagon while the interior
    midpoints sit near zero.

    The boundary circle is twice the core circle, so an odd boundary winding
    cannot extend over the strip but twice the class can: the obstruction
    group is pure 2-torsion.
    """
    faces = [["v1", "v2", "v3"], ["v2", "v3", "v4"], ["v3", "v4", "v5"],
             ["v4", "v5", "v1"], ["v5", "v1", "v2"]]
    base = Complex.build(faces)

    def mid(u, v):
        return "m" + "".join(sorted((u[1], v[1])))

    subdivided = []
    for x, y, z in base.simplices_of_dim(2):
        mxy, mxz, myz = mid(x, y), mid(x, z), mid(y, z)
        subdivided += [[x, mxy, mxz], [y, mxy, myz], [z, mxz, myz], [mxy, mxz, myz]]
    complex_ = Complex.build(subdivided)

    boundary_cycle = ["v1", "m13", "v3", "m35", "v5", "m25", "v2", "m24", "v4", "m14"]
    square_walk = [
        (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
        (0, -1), (1, -1), (1, Fraction(-1, 2)), (1, 0), (1, Fraction(1, 2)),
    ]
    values = {v: (Fraction(p[0]), Fraction(p[1]))
              for v, p in zip(boundary_cycle, square_walk)}
    interior = {
        "m12": (Fraction(1, 8), Fraction(1, 16)),
        "m23": (Fraction(-1, 8), Fraction(1, 16)),
        "m34": (Fraction(1, 16), Fraction(-1, 8)),
        "m45": (Fraction(-1, 16), Fraction(-1, 8)),
        "m15": (Fraction(1, 32), Fraction(1, 32)),
    }
    values.update(interior)
    return PLMap(complex_, values, 2, "linf")


def test_moebius_torsion_obstruction():
    f = moebius_odd_winding_map()
    hopf = analyze(f, Mode.HOPF, 23)
    circle = analyze(f, Mode.CIRCLE, 23)

    one = ExactRadius.of(1)
    assert hopf.criticals[-1] == one
    # The odd winding on the boundary circle is obstructed all the way up.
    assert hopf.robust.radius == one
    assert circle.robust.radius == one

    top = hopf.samples.index(one)
    level = hopf.levels[top]
    assert level.kernel.group.invariants() == (0, (2,))  # pure 2-torsion

    rational = assemble_pointed_module(hopf, "q")
    mod2 = assemble_pointed_module(hopf, "f2")
    assert rational.dims[top] == 0  # torsion is invisible rationally
    assert mod2.dims[top] == 1
    assert any(x % 2 for x in mod2.distinguished[top])

    bq = barcode(rational)
    b2 = barcode(mod2)
    assert decompose_oracle(rational) == bq
    assert decompose_oracle(mod2) == b2
    # Over F_2 the distinguished bar survives to the full robust radius.
    assert b2.distinguished is not None
    assert b2.distinguished.death == one


def _random_complex(sampler, max_dim, max_vertices=6):
    names = [f"x{i}" for i in range(sampler.integer(3, max_vertices))]
    simplices = []
    for _ in range(sampler.integer(2, 6)):
        size = sampler.integer(1, min(max_dim + 1, len(names)))
        start = sampler.integer(0, len(names) - size)
        simplices.append(names[start:start + size])
    return Complex.build(simplices)


def _random_values(sampler, complex_, n, denominator=4, spread=8):
    return {
        v: tuple(Fraction(sampler.integer(-spread, spread),
                          sampler.integer(1, denominator))
                 for _ in range(n))
        for v in complex_.vertices
    }


def _consistency(analysis, fields):
    rho = analysis.robust.radius
    assert rho == ExactRadius.of(0) or rho in analysis.criticals
    for field in fields:
        module = assemble_pointed_module(analysis, field)
        bc = barcode(module, signs_robust_radius=rho)
        assert decompose_oracle(module, signs_robust_radius=rho) == bc


def test_random_signs_inputs():
    for t in range(25):
        sampler = RationalSampler(child_seed(31337, t))
        c = _random_complex(sampler, max_dim=2)
        f = PLMap(c, _random_values(sampler, c, 1),
                  1, ("l1", "l2", "linf")[t % 3])
        analysis = analyze(f, Mode.SIGNS, child_seed(31337, 1000 + t))
        _consistency(analysis, ("f2", "q"))
        if c.dim <= 1:
            hopf = analyze(f, Mode.HOPF, child_seed(31337, 2000 + t))
            assert hopf.robust.radius == analysis.robust.radius


def planar_inputs():
    """(t, map) for the random planar trials, with t indexing their seeds."""
    for t in range(12):
        sampler = RationalSampler(child_seed(271828, t))
        c = _random_complex(sampler, max_dim=2)
        yield t, PLMap(c, _random_values(sampler, c, 2),
                       2, ("l1", "l2", "linf")[t % 3])


def three_dimensional_inputs():
    """(t, map) for the random 3-D hopf trials.  Small value grids keep the
    subdivisions (and level counts) modest."""
    for t in range(5):
        sampler = RationalSampler(child_seed(999, t))
        c = _random_complex(sampler, max_dim=3, max_vertices=4)
        yield t, PLMap(c, _random_values(sampler, c, 3, denominator=1, spread=3),
                       3, "linf")


def test_random_planar_inputs():
    for t, f in planar_inputs():
        c = f.complex
        circle = analyze(f, Mode.CIRCLE, child_seed(271828, 1000 + t))
        _consistency(circle, ("q", "f2"))
        if applicable(Mode.HOPF, 2, c.dim):
            hopf = analyze(f, Mode.HOPF, child_seed(271828, 2000 + t))
            _consistency(hopf, ("q", "f2"))
            assert hopf.robust.radius == circle.robust.radius


def test_random_three_dimensional_hopf():
    for t, f in three_dimensional_inputs():
        analysis = analyze(f, Mode.HOPF, child_seed(999, 1000 + t))
        _consistency(analysis, ("q",))
