"""Reference stellar subdivider for the tests: every new simplex searched.

The argmin pass visits every simplex born since the previous pass, decides
its vertex floor and otherwise calls the full minimizer; a minimum interior
to a proper face is left to that face's own search.  `rzero.complexes`
settles new simplices from the simplex they were cut from instead, and
stars a face at the point its coface's search found there, so it must
return exactly the same complex and values; a new vertex's id spells out
its expansion in the input vertices, so equal complexes mean equal
expansions.
"""

from fractions import Fraction
from math import gcd, lcm

from rzero.complexes import Complex, PLMap, edge_zeros_ok
from rzero.normmin import scaled, simplex_norm_min

_MEASURE = {
    "l1": lambda v: sum(abs(x) for x in v),
    "l2": lambda v: sum(x * x for x in v),
    "linf": lambda v: max(abs(x) for x in v),
}


def _vertex_floor_holds(ints, norm):
    floor = [0 if min(c) <= 0 <= max(c) else min(abs(x) for x in c) for c in zip(*ints)]
    return _MEASURE[norm](floor) >= min(map(_MEASURE[norm], ints))


def _faces(simplex):
    out = [()]
    for v in simplex:
        out += [f + (v,) for f in out]
    return [f for f in out if f]


def _point_id(den, combo):
    parts = []
    for v in sorted(combo):
        g = gcd(combo[v], den)
        parts.append(f"{v}:{combo[v] // g}" + ("" if g == den else f"/{den // g}"))
    return "(" + ",".join(parts) + ")"


def _mix(lam, lam_den, points, items):
    scale = lcm(*[den for den, _ in points])
    out = {}
    for c, (den, nums) in zip(lam, points):
        if c:
            for key, x in items(nums):
                out[key] = out.get(key, 0) + c * (scale // den) * x
    out = {key: x for key, x in out.items() if x}
    g = gcd(lam_den * scale, *out.values())
    return lam_den * scale // g, {key: x // g for key, x in out.items()}


class _Subdivider:
    def __init__(self, f):
        self.n, self.norm = f.n, f.norm
        self.simplices = set()
        self.by_vertex = {}
        self.unvisited = set()
        self.unsplit = set()
        self.off_vertex = set()
        for s in f.complex.simplices:
            self.add(s)
        self.values = {}
        for v, value in f.values.items():
            den, (nums,) = scaled([value])
            self.values[v] = (den, nums)
        self.expansion = {v: (1, {v: 1}) for v in f.complex.vertices}
        self.new_vertices = []

    def add(self, s):
        if s not in self.simplices:
            self.simplices.add(s)
            for v in s:
                self.by_vertex.setdefault(v, set()).add(s)
            self.unvisited.add(s)
            if len(s) == 2:
                self.unsplit.add(s)

    def discard(self, s):
        self.simplices.discard(s)
        for v in s:
            self.by_vertex[v].discard(s)

    def star(self, face, lam):
        lam_den = sum(lam)
        den, combo = _mix(lam, lam_den, [self.expansion[v] for v in face], dict.items)
        new_id = _point_id(den, combo)
        assert new_id not in self.values
        self.expansion[new_id] = (den, combo)
        den, value = _mix(lam, lam_den, [self.values[v] for v in face], enumerate)
        self.values[new_id] = (den, [value.get(i, 0) for i in range(self.n)])
        self.new_vertices.append(new_id)
        face_set = set(face)
        cofaces = [s for s in self.by_vertex[face[0]] if face_set.issubset(s)]
        proper_faces = [fc for fc in _faces(face) if len(fc) < len(face)] + [()]
        for s in cofaces:
            self.discard(s)
            link = tuple(v for v in s if v not in face_set) + (new_id,)
            for sub in proper_faces:
                self.add(tuple(sorted(sub + link)))

    def argmin_pass(self):
        visit = [s for s in self.unvisited if len(s) > 1 and s in self.simplices]
        self.unvisited = set()
        changed = False
        for s in sorted(visit, key=lambda s: (-len(s), s)):
            if s not in self.simplices:
                continue
            points = [self.values[v] for v in s]
            scale = lcm(*[den for den, _ in points])
            ints = [[x * (scale // den) for x in nums] for den, nums in points]
            if _vertex_floor_holds(ints, self.norm):
                continue
            result = simplex_norm_min(ints, self.norm)
            bary = result.barycentric
            if not result.at_vertex and all(bary):
                den = lcm(*(c.denominator for c in bary))
                self.star(s, [c.numerator * (den // c.denominator) for c in bary])
                changed = True
            elif not result.at_vertex:
                self.off_vertex.add(s)
        return changed

    def zero_split_pass(self):
        changed = False
        while self.unsplit:
            edges = sorted(self.unsplit)
            self.unsplit = set()
            for edge in edges:
                if edge not in self.simplices:
                    continue
                (du, nu), (dv, nv) = self.values[edge[0]], self.values[edge[1]]
                for a, b in zip(nu, nv):
                    if a * b < 0:
                        a, b = (a * dv, b * du) if a > 0 else (-a * dv, -b * du)
                        self.star(edge, (-b, a))
                        changed = True
                        break
        return changed


def reference_subdivide(f: PLMap) -> PLMap:
    """`star_subdivide` with every new simplex searched."""
    state = _Subdivider(f)
    while state.argmin_pass() | state.zero_split_pass():
        pass
    assert state.off_vertex.isdisjoint(state.simplices)
    values = dict(f.values)
    for v in state.new_vertices:
        den, nums = state.values[v]
        values[v] = tuple(Fraction(x, den) for x in nums)
    result = PLMap(Complex.from_closed(state.simplices), values, f.n, f.norm,
                   minima_at_vertices=True)
    assert edge_zeros_ok(result)
    return result
