"""Star subdivision pinned stage by stage, and the work it does.

The digests pin `star_subdivide`'s output itself (sorted simplices, vertex
values and expansions), so a change to the subdivision fails here, at the
stage that moved, and not only in the digests of downstream output.  They
were recorded before the subdivider moved to integer vertex data.
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

import rzero.complexes as complexes
from rzero.complexes import star_subdivide
from rzero.exact import format_rational
from rzero.io import parse_input
from rzero.normmin import simplex_norm_min

from inputs import seeded_grid_map
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


def _digest(f) -> str:
    doc = {
        "simplices": sorted(f.complex.simplices),
        "values": {v: [format_rational(x) for x in f.values[v]] for v in sorted(f.values)},
        "expansion": {
            v: [[b, format_rational(c)] for b, c in sorted(f.expansion[v].items())]
            for v in sorted(f.expansion)
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_subdivision_output_is_pinned(name):
    assert _digest(star_subdivide(CASES[name])) == PINNED[name]



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


def _argmin_passes(f, monkeypatch):
    """Subdivide f, recording the `simplex_norm_min` calls, every simplex of
    dim >= 1 present when an argmin pass starts, and per pass the simplices
    of dim >= 1 it is handed, with their rational vertex values."""
    calls = []
    original_min = complexes.simplex_norm_min

    def counting_min(values, norm):
        calls.append(values)
        return original_min(values, norm)

    handed = []
    present = set()
    original_pass = complexes._Subdivider.argmin_pass

    def argmin_pass(state):
        alive = {s for s in state.simplices if len(s) > 1}
        present.update(alive)
        handed.append({
            s: [[Fraction(x, den) for x in nums] for den, nums in map(state.values.get, s)]
            for s in alive & state.unvisited
        })
        return original_pass(state)

    monkeypatch.setattr(complexes, "simplex_norm_min", counting_min)
    monkeypatch.setattr(complexes._Subdivider, "argmin_pass", argmin_pass)
    star_subdivide(f)
    return calls, handed, present


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_simplex_is_minimized_once(name, monkeypatch):
    # Each argmin pass is handed only the simplices born since the previous
    # pass, so every simplex of dim >= 1 present when a pass starts is
    # visited exactly once.  (A simplex born and starred away within one
    # pass is never visited.)  A visited simplex reaches the minimizer
    # exactly when its floor lies below its least vertex norm.
    f = CASES[name]
    calls, handed, present = _argmin_passes(f, monkeypatch)
    assert len(present) == sum(map(len, handed))
    below = sum(_floor_below_vertices(values, f.norm)
                for visit in handed for values in visit.values())
    assert len(calls) == below


@pytest.mark.parametrize("name", sorted(CASES))
def test_floor_exit_skips_only_vertex_minima(name, monkeypatch):
    # Every simplex the floor certificate lets the subdivider skip has its
    # minimum at a vertex, by the full minimizer.
    f = CASES[name]
    _, handed, _ = _argmin_passes(f, monkeypatch)
    monkeypatch.undo()
    skipped = [values for visit in handed for values in visit.values()
               if not _floor_below_vertices(values, f.norm)]
    assert skipped
    assert all(simplex_norm_min(values, f.norm).at_vertex for values in skipped)
