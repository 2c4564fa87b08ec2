"""Star subdivision pinned stage by stage, and the work it does.

The digests pin `star_subdivide`'s output itself (sorted simplices, vertex
values and expansions, each read back from the vertex's id), so a change to
the subdivision fails here, at the stage that moved, and not only in the
digests of downstream output.  They were recorded before the subdivider
moved to integer vertex data, when the map still carried its expansions.  On
random maps full of ties, and on larger maps to R, the output must also
equal that of `subdivision_reference`, which searches every new simplex.
"""

import hashlib
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

import rzero.complexes as complexes
from rzero.complexes import Complex, PLMap, star_subdivide
from rzero.exact import format_rational
from rzero.harness import PerturbSpec, perturb
from rzero.io import parse_input
from rzero.normmin import simplex_norm_min, vector_norm
from rzero.rng import child_seed

from inputs import expansion, seeded_grid_map
from subdivision_reference import reference_subdivide
from test_pipeline_fuzz import (
    moebius_odd_winding_map,
    projective_plane_map,
    three_dimensional_inputs,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def _cases():
    cases = {p.stem: parse_input(p.read_text()) for p in sorted(SAMPLES.glob("*.json"))}
    cases["moebius"] = moebius_odd_winding_map()
    cases["rp2"] = projective_plane_map()
    for t, f in three_dimensional_inputs():
        cases[f"3d-{t}"] = f
    for seed, norm in ((11, "l1"), (12, "l2"), (13, "linf")):
        cases[f"grid-{norm}"] = seeded_grid_map(seed, 3, 2, norm)
    return cases


CASES = _cases()

PINNED = {
    "3d-0": "1ba9576f56658367e703db949e985513fd7e310f921ab617e91fbda4f3f3ecd4",
    "3d-1": "ae78dd8548be5a7c7c9131289ecc417fd162a0ba32c569f68d0db6aa78f0c448",
    "3d-2": "e5c892e3087eee210181a61f9d98a7587bf447b20be5dfe3d4e215cfaf433f85",
    "3d-3": "255066c30961c67ec4912cac68f0c531bc65a84951f1d6f18570e21d378e0c03",
    "3d-4": "1180d8ab266371749e77ed149dc2bc69d24936eb05852adf8397d43d73b85494",
    "edge": "8885cbb42fe8e059423ab37024c89deaa6a214ce3f605e5b8dce51336698308a",
    "grid-l1": "77bb47662a931a6a20423502b289738efbd42fc67d9713cd7ae767437d5d7488",
    "grid-l2": "4dd0bf50f26c102eb7e217417ff6bde0b2ec8f17edd6eaa690f9bf5ac37f1b1c",
    "grid-linf": "b87074fc6082fc0df8b6b443d7342ebc373bcfe71bbf72465a96ee5b28133b3a",
    "grid_identity": "3010848a69863cc95a7c11920ff9f675574cb257d0c2650bbc8e777dc8a13b27",
    "moebius": "3632b6c51e2e9e67f1d16aed67cf491034d90fc781c6d6c107b8e4f13aac4262",
    "octagon_winding2": "6e2a855dc877fb09ad6975d36422a1db3fda7581536d137966eeb142fd8ae079",
    "rectangle_y": "c9e3f91176cc319cd4c0c3292441e138fe010153e46e8947f0e825e1d73723f9",
    "rp2": "1c5301e43e8959ef47dd78a858d25a1eb0969d3f95fffabfe234ba9e21d2f2fb",
}


def _digest(f, inputs) -> str:
    """The digest of a subdivision f of a map on the vertices `inputs`."""
    doc = {
        "simplices": sorted(f.complex.simplices),
        "values": {v: [format_rational(x) for x in f.values[v]] for v in sorted(f.values)},
        "expansion": {
            v: [[b, format_rational(c)] for b, c in sorted(expansion(v, inputs).items())]
            for v in f.complex.vertices
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_subdivision_output_is_pinned(name):
    f = CASES[name]
    assert _digest(star_subdivide(f), f.complex.vertices) == PINNED[name]


# The subdivisions of the perturbed maps that `check_stability(f, mode,
# delta, 4, 987_654)` analyzes: grid_identity (hopf) and octagon_winding2
# (circle), four trials each at delta 1/10 and 1/2.
STABILITY_PINNED = "7566692967b9a18f45998da2b0dc94279a4226ef0afa86515ccf522b471f0e48"


def test_stability_trial_subdivisions_are_pinned():
    digests = []
    for name in ("grid_identity", "octagon_winding2"):
        f = CASES[name]
        for delta in (Fraction(1, 10), Fraction(1, 2)):
            for t in range(4):
                g = perturb(f, PerturbSpec(delta, child_seed(987_654, t + 1)))
                digests.append(_digest(star_subdivide(g), g.complex.vertices))
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == STABILITY_PINNED


@pytest.mark.parametrize("name", sorted(CASES))
def test_subdivision_is_idempotent(name):
    # The output meets both postconditions, so a second subdivision adds no
    # vertex and splits no simplex.
    once = star_subdivide(CASES[name])
    twice = star_subdivide(once)
    assert twice.complex.simplices == once.complex.simplices
    assert twice.values == once.values



_MEASURE = {
    "l1": lambda v: sum(abs(x) for x in v),
    "l2": lambda v: sum(x * x for x in v),
    "linf": lambda v: max(abs(x) for x in v),
}


def _floor_below_vertices(values, norm):
    """Whether the floor of |g| over the simplex (0 on a coordinate whose
    values change sign, else their least magnitude) measures below the
    least vertex norm."""
    floor = [0 if min(c) <= 0 <= max(c) else min(abs(x) for x in c) for c in zip(*values)]
    return _MEASURE[norm](floor) < min(map(_MEASURE[norm], values))


class _KeptPoints(dict):
    """The subdivider's kept face points, recording each one kept and
    counting each one starred."""

    def __init__(self):
        super().__init__()
        self.kept, self.hits = [], 0

    def __setitem__(self, face, lam):
        self.kept.append((face, list(lam)))
        super().__setitem__(face, lam)

    def pop(self, face):
        self.hits += 1
        return super().pop(face)


def _argmin_passes(f, monkeypatch):
    """Subdivide f, recording the `simplex_norm_min` calls and, per argmin
    pass, the simplices of dim >= 1 it is handed and those that carry a
    known minimizing vertex when it starts.  Returns the calls, the passes,
    the subdivider, its kept points and the subdivided map."""
    calls = []
    original_min = complexes.simplex_norm_min

    def counting_min(values, norm):
        calls.append(values)
        return original_min(values, norm)

    states, passes = [], []
    original_init = complexes._Subdivider.__init__
    original_pass = complexes._Subdivider.argmin_pass

    def init(state, f):
        original_init(state, f)
        state.kept = _KeptPoints()
        states.append(state)

    def argmin_pass(state):
        alive = {s for s in state.simplices if len(s) > 1}
        passes.append((alive, alive & state.unvisited, dict(state.minimizer)))
        return original_pass(state)

    monkeypatch.setattr(complexes, "simplex_norm_min", counting_min)
    monkeypatch.setattr(complexes._Subdivider, "__init__", init)
    monkeypatch.setattr(complexes._Subdivider, "argmin_pass", argmin_pass)
    result = star_subdivide(f)
    monkeypatch.undo()
    (state,) = states
    return calls, passes, state, state.kept, result


def _rational(state, simplex):
    """The vertex values of a simplex from the subdivider's records
    (den, numerators, measure), each measure checked to be that of its
    numerators (|v|, squared for l2), which the floor certificate reads."""
    out = []
    for den, nums, measure in map(state.values.get, simplex):
        assert measure == _MEASURE[state.norm](nums)
        out.append([Fraction(x, den) for x in nums])
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_simplex_is_minimized_once(name, monkeypatch):
    # Every simplex of dim >= 1 present when an argmin pass starts is
    # either handed to that pass (born since the previous one with no known
    # minimizer) or carries a vertex known to attain its minimum, never
    # both.  A handed simplex reaches the minimizer exactly when its floor
    # lies below its least vertex norm, unless a coface's search already
    # found its argmin (a kept point).
    f = CASES[name]
    calls, passes, state, kept, result = _argmin_passes(f, monkeypatch)
    below = 0
    for alive, handed, settled in passes:
        assert handed | settled.keys() == alive
        assert handed.isdisjoint(settled)
        below += sum(_floor_below_vertices(_rational(state, s), f.norm) for s in handed)
    assert len(calls) == below - kept.hits
    assert kept.hits == len({face for face, _ in kept.kept})


@pytest.mark.parametrize("name", sorted(CASES))
def test_floor_exit_skips_only_vertex_minima(name, monkeypatch):
    # Every vertex the subdivider records as a simplex's minimizer, by the
    # floor certificate, by a search or inherited from the simplex it was
    # cut from, attains that simplex's minimum by the full minimizer; and
    # every kept face point is the point the minimizer returns on that face.
    f = CASES[name]
    calls, passes, state, kept, result = _argmin_passes(f, monkeypatch)
    settled = {}
    for _, _, known in passes:
        settled.update(known)
    settled.update(state.minimizer)
    assert settled
    for s, vertex in settled.items():
        assert vertex in s
        result = simplex_norm_min(_rational(state, s), f.norm)
        assert result.at_vertex
        assert result.minimum == vector_norm(_rational(state, (vertex,))[0], f.norm)
    for face, lam in kept.kept:
        result = simplex_norm_min(_rational(state, face), f.norm)
        assert result.barycentric == tuple(Fraction(x, sum(lam)) for x in lam)


def _tie_heavy_maps():
    """(label, map) for 2-D grids and small 3-D complexes, n = 1..3 in every
    norm, with values in -3..3, in eighths or in {±1, ±2}, so that vertex
    norms and argmins tie often: seven maps per family, but one on one
    tetrahedron for 3-D maps to R³ under l2, whose subdivisions run to
    thousands of simplices."""
    rng = random.Random(22)
    draws = {
        "ints": lambda: Fraction(rng.randint(-3, 3)),
        "eighths": lambda: Fraction(rng.randint(-16, 16), 8),
        "units": lambda: Fraction(rng.choice((-2, -1, 1, 2))),
    }
    for shape, n, norm, kind in itertools.product(
            ("grid", "3d"), (1, 2, 3), ("l1", "l2", "linf"), draws):
        heavy = (shape, n, norm) == ("3d", 3, "l2")
        for t in range(1 if heavy else 7):
            if shape == "grid":
                k = rng.randint(1, 2)
                c = Complex.build([[f"g{i}_{j}", f"g{i + di}_{j + 1 - di}", f"g{i + 1}_{j + 1}"]
                                   for i in range(k) for j in range(k) for di in (0, 1)])
            elif heavy:
                c = Complex.build([["x0", "x1", "x2", "x3"]])
            else:
                names = [f"x{i}" for i in range(rng.randint(4, 5))]
                tets = list(itertools.combinations(names, 4))
                c = Complex.build(rng.sample(tets, min(len(tets), rng.randint(1, 2))))
            values = {v: tuple(draws[kind]() for _ in range(n)) for v in c.vertices}
            yield f"{shape}-n{n}-{norm}-{kind}-{t}", PLMap(c, values, n, norm)


def test_subdivision_matches_the_search_everything_reference():
    # Settling simplices from the simplex they were cut from, and starring a
    # face at the point its coface's search found, changes no output: the
    # same simplices (so the same vertex ids, which spell out the
    # expansions) and vertex values as the subdivider that searches every
    # new simplex, on 360 maps full of ties.
    count = 0
    for label, f in _tie_heavy_maps():
        got, want = star_subdivide(f), reference_subdivide(f)
        assert got.complex.simplices == want.complex.simplices, label
        assert got.values == want.values, label
        count += 1
    assert count == 360


def _maps_to_r():
    """(label, map) for maps to R in every norm: seeded k x k grids for
    k = 2..8, and random 2-complexes on up to ten vertices with values in
    -2..2, in eighths or with denominators up to 97, so that many vertices
    are 0."""
    rng = random.Random(1507)
    draws = {
        "ints": lambda: Fraction(rng.randint(-2, 2)),
        "eighths": lambda: Fraction(rng.randint(-12, 12), 8),
        "wide": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 97)),
    }
    for i, norm in enumerate(("l1", "l2", "linf")):
        for k in range(2, 9):
            yield f"grid-{k}-{norm}", seeded_grid_map(3 * k + i, k, 1, norm)
        for kind, t in itertools.product(draws, range(4)):
            names = [f"x{i}" for i in range(rng.randint(6, 10))]
            c = Complex.build([rng.sample(names, 3) for _ in range(rng.randint(4, 12))])
            values = {v: (draws[kind](),) for v in c.vertices}
            yield f"two-{kind}-{norm}-{t}", PLMap(c, values, 1, norm)


def test_zero_split_matches_the_reference_on_maps_to_r():
    # A map to R is split at its zeros alone: the reference, which searches
    # every new simplex, returns the same subdivision.
    count = zeros = 0
    for label, f in _maps_to_r():
        got, want = star_subdivide(f), reference_subdivide(f)
        assert got.complex.simplices == want.complex.simplices, label
        assert got.values == want.values, label
        count += 1
        zeros += sum(value == (0,) for value in f.values.values())
    assert count == 57 and zeros > 57
