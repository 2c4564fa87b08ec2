"""End-to-end analysis: subdivision, filtration, classes, pointed modules.

`analyze` runs the whole exact pipeline for one map and one mode and caches
the per-level data (groups, distinguished classes, triviality certificates).
`assemble_pointed_module` and `robust_radius` read off the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    CochainComplex,
    IntCohomology,
    Subgroup,
    induced_int_matrix,
    integral_cohomology,
    kernel_subgroup,
    restriction_transfer,
)
from .complexes import PLMap, component_index, connected_components, star_subdivide
from .errors import InputError, InternalError
from .exact import ExactRadius, ZERO_RADIUS
from .filtration import Filtration, build_filtration
from .linalg import (
    FieldEchelon,
    columns,
    field_mat_vec,
    mat_vec,
    to_field_matrix,
)
from .modes import (
    Mode,
    SignVector,
    admissible_probe,
    admissible_ray,
    degree_cocycle,
    determinacy_flag,
    require_applicable,
    sign_vector,
    sign_witness,
    winding_cocycle,
)
from .rng import RationalSampler, child_seed

DEFAULT_SEED = 20_177


# ---------------------------------------------------------------------------
# per-level class data
# ---------------------------------------------------------------------------

@dataclass
class SignsLevel:
    signs: SignVector
    nontrivial: bool
    sign_witness: dict


@dataclass
class CircleLevel:
    cc: CochainComplex
    coh: IntCohomology
    winding_coords: list[int]
    nontrivial: bool


class HopfLevel:
    """Hopf-mode level data; the integer triviality test runs on demand
    (it builds the level's relation echelon, and the robust radius needs
    it at only a logarithmic number of levels)."""

    def __init__(self, cc, rel, kernel, degree_coords, kernel_coords):
        self.cc = cc
        self.rel = rel
        self.kernel = kernel
        self.degree_coords = degree_coords
        self.kernel_coords = kernel_coords
        self._nontrivial = None

    @property
    def nontrivial(self) -> bool:
        if self._nontrivial is None:
            self._nontrivial = not self.rel.group.is_zero_class(self.degree_coords)
        return self._nontrivial


@dataclass
class RobustResult:
    radius: ExactRadius
    witness: dict


@dataclass
class Analysis:
    """Everything the CLI and harness need about one analyzed map."""

    original: PLMap
    f: PLMap
    mode: Mode
    seed: int
    filtration: Filtration
    levels: list
    transitions: list          # integral transition matrices between levels
    robust: RobustResult
    meta: dict

    @property
    def samples(self):
        return self.filtration.samples

    @property
    def criticals(self):
        return self.filtration.criticals.values

    @property
    def determinacy(self) -> bool:
        return determinacy_flag(self.mode, self.original.n, self.original.m)


def analyze(f0: PLMap, mode: Mode, seed: int = DEFAULT_SEED) -> Analysis:
    require_applicable(mode, f0.n, f0.complex.dim)
    f = star_subdivide(f0)
    filt = build_filtration(f)
    meta: dict = {"seed": seed}
    if mode == Mode.SIGNS:
        levels, transitions = _analyze_signs(f, filt)
    elif mode == Mode.CIRCLE:
        levels, transitions = _analyze_circle(f, filt, seed, meta)
    else:
        levels, transitions = _analyze_hopf(f, filt, seed, meta)
    robust = _robust_from_levels(filt, levels, mode)
    return Analysis(f0, f, mode, seed, filt, levels, transitions, robust, meta)


def _analyze_signs(f: PLMap, filt: Filtration):
    ambient = component_index(connected_components(f.complex))
    levels = []
    for level in filt.levels:
        sv = sign_vector(f, level)
        witness = sign_witness(sv, ambient)
        nontrivial = bool(witness)
        levels.append(SignsLevel(sv, nontrivial, witness))
    transitions = []
    for small, large in zip(levels[1:], levels):
        # Rows: components of the smaller level; entry 1 when contained.
        big_index = {}
        for idx, comp in enumerate(large.signs.components):
            for v in comp:
                big_index[v] = idx
        matrix = []
        for comp, sign in zip(small.signs.components, small.signs.signs):
            row = [0] * len(large.signs.components)
            container = big_index[comp[0]]
            row[container] = 1
            if large.signs.signs[container] != sign:
                raise InternalError("sign not inherited along inclusion")
            matrix.append(row)
        transitions.append(matrix)
    return levels, transitions


def _analyze_circle(f: PLMap, filt: Filtration, seed: int, meta: dict):
    sampler = RationalSampler(child_seed(seed, 1))
    ray = admissible_ray(filt.levels[0], f, sampler)
    meta["ray"] = ray
    ambient_cc = CochainComplex(f.complex)
    ambient_h1 = integral_cohomology(ambient_cc, 1)
    levels = []
    for level in filt.levels:
        cc = CochainComplex(level)
        coh = integral_cohomology(cc, 1)
        wind = winding_cocycle(level, f, ray)
        coords = coh.coords(cc.vector(wind, 1))
        image_span = columns(
            induced_int_matrix(ambient_h1, coh,
                               restriction_transfer(ambient_cc, cc, 1))
        )
        nontrivial = not coh.group.in_subgroup(image_span, coords)
        levels.append(CircleLevel(cc, coh, coords, nontrivial))
    transitions = []
    for src, dst in zip(levels, levels[1:]):
        transfer = restriction_transfer(src.cc, dst.cc, 1)
        transitions.append(induced_int_matrix(src.coh, dst.coh, transfer))
    return levels, transitions


def _analyze_hopf(f: PLMap, filt: Filtration, seed: int, meta: dict):
    n = f.n
    sampler = RationalSampler(child_seed(seed, 2))
    probe, cocycle = admissible_probe(f, filt.samples[0], sampler)
    meta["probe"] = probe
    ambient_cc = CochainComplex(f.complex)
    ambient_hn = integral_cohomology(ambient_cc, n)
    ambient_trivial = ambient_hn.gens == 0 or ambient_hn.group.is_trivial()
    levels = []
    for level in filt.levels:
        cc = CochainComplex(f.complex, level)
        rel = integral_cohomology(cc, n)
        if ambient_trivial:
            kernel = kernel_subgroup(None, rel, ambient_hn)
        else:
            jmat = induced_int_matrix(
                rel, ambient_hn, restriction_transfer(cc, ambient_cc, n)
            )
            kernel = kernel_subgroup(jmat, rel, ambient_hn)
        vec = cc.vector(cocycle, n)
        coords = rel.coords(vec)
        kcoords = kernel.member_coords(coords)
        if kcoords is None:
            raise InternalError("degree class escaped ker j*")
        levels.append(HopfLevel(cc, rel, kernel, coords, kcoords))
    # Hopf mode needs dim X <= n, so no level has (n+1)-simplices and every
    # level's H^n is presented on its relative top simplices (`rel.kernel` is
    # None, or empty when there are none): presentation coordinates are
    # cochain vectors, on which the restriction is extension by zero.
    transitions = []
    for src, dst in zip(levels, levels[1:]):
        if src.kernel.span is None and dst.kernel.span is None:
            # Full kernels: the transition is the bare index inclusion of
            # relative simplices.
            src_index = {s: i for i, s in enumerate(src.cc.simplices(n))}
            matrix = []
            for s in dst.cc.simplices(n):
                row = [0] * len(src_index)
                i = src_index.get(s)
                if i is not None:
                    row[i] = 1
                matrix.append(row)
            transitions.append(matrix)
            continue
        transfer = restriction_transfer(src.cc, dst.cc, n)
        cols = []
        for gen in src.kernel.generators():
            col = dst.kernel.member_coords(transfer(gen))
            if col is None:
                raise InternalError("restriction left ker j*")
            cols.append(col)
        rows = len(dst.kernel.generators())
        transitions.append([[cols[j][i] for j in range(len(cols))]
                            for i in range(rows)])
    return levels, transitions


def _robust_from_levels(filt: Filtration, levels, mode: Mode) -> RobustResult:
    """Locate the last level with a nonzero class.

    The distinguished element is carried forward by the transitions, so once
    it vanishes it stays zero; the vanishing boundary is found by binary
    search, keeping the number of integer triviality tests logarithmic.
    """
    k = len(levels) - 1
    if not levels[0].nontrivial:
        return RobustResult(ZERO_RADIUS, {})
    if levels[k].nontrivial:
        raise InternalError("class nontrivial beyond the largest critical value")
    lo, hi = 0, k  # nontrivial at lo, trivial at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if levels[mid].nontrivial:
            lo = mid
        else:
            hi = mid
    last = lo
    radius = filt.samples[last]
    if radius not in filt.criticals.values:
        raise InternalError("robust radius is not a critical value")
    witness = _witness(levels[last], mode)
    witness["at_radius"] = radius
    return RobustResult(radius, witness)


def _witness(level, mode: Mode) -> dict:
    if mode == Mode.SIGNS:
        return dict(level.sign_witness)
    if mode == Mode.CIRCLE:
        return {"winding_coordinates": list(level.winding_coords)}
    return {"class_coordinates": list(level.degree_coords)}


def robust_radius(analysis: Analysis) -> RobustResult:
    return analysis.robust


# ---------------------------------------------------------------------------
# pointed modules
# ---------------------------------------------------------------------------

COEFFICIENTS = {"z": None, "q": 0, "f2": 2, "f3": 3, "f5": 5}


def parse_coefficients(name) -> int | None:
    if isinstance(name, int) or name is None:
        return name
    key = str(name).strip().lower()
    if key in COEFFICIENTS:
        return COEFFICIENTS[key]
    if key.startswith("f") and key[1:].isdigit():
        p = int(key[1:])
        if p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1)):
            return p
    raise InputError(f"unknown coefficient field {name!r}")


@dataclass
class PointedModule:
    """A sampled pointed persistence module.

    `char` is None for integer coefficients, 0 for the rationals, or a prime.
    For integer coefficients `groups` lists (free rank, torsion divisors) per
    sample and transitions/distinguished use presentation coordinates; for
    field coefficients `dims` lists dimensions and everything is reduced.
    """

    mode: Mode
    char: int | None
    samples: tuple[ExactRadius, ...]
    criticals: tuple[ExactRadius, ...]
    dims: tuple[int, ...]
    transitions: tuple
    distinguished: tuple
    groups: tuple | None = None
    presentations: tuple | None = None
    meta: dict | None = None

    def level_count(self) -> int:
        return len(self.samples)

    def normalized_distinguished(self) -> list:
        """Distinguished classes in the SNF bases (integral modules only)."""
        if self.char is not None:
            return [list(v) for v in self.distinguished]
        return [
            g.normalized_coords(v)
            for g, v in zip(self.presentations, self.distinguished)
        ]

    def normalized_transitions(self) -> list:
        """Transition matrices in the SNF bases (integral modules only)."""
        if self.char is not None:
            return [m for m in self.transitions]
        out = []
        for i, matrix in enumerate(self.transitions):
            src = self.presentations[i]
            dst = self.presentations[i + 1]
            cols = [
                dst.normalized_coords(mat_vec(matrix, src.normalized_representative(j)))
                for j in range(src.normal_basis_size())
            ]
            rows = dst.normal_basis_size()
            out.append([[cols[j][r] for j in range(len(cols))] for r in range(rows)])
        return out

    def tensor(self, char: int) -> "PointedModule":
        """Reduce an integral module to field coefficients."""
        if self.char is not None:
            raise InputError("tensor applies to integral modules only")
        quotients = [g.tensor(char) for g in self.presentations]
        dims = tuple(q.dim for q in quotients)
        transitions = tuple(
            quotients[i].induced_matrix(self.transitions[i], quotients[i + 1])
            for i in range(len(self.transitions))
        )
        distinguished = tuple(
            quotients[i].project(to_field_matrix([self.distinguished[i]], char)[0])
            for i in range(len(quotients))
        )
        module = PointedModule(
            self.mode, char, self.samples, self.criticals, dims,
            transitions, distinguished, meta=self.meta,
        )
        _check_pointed(module)
        return module


def _check_pointed(module: PointedModule) -> None:
    """phi(a_i) = a_{i+1}, exactly, in every assembled module."""
    for i, matrix in enumerate(module.transitions):
        if module.char is None:
            image = mat_vec(matrix, module.distinguished[i])
            group = module.presentations[i + 1]
            if not group.classes_equal(image, list(module.distinguished[i + 1])):
                raise InternalError("distinguished element is not preserved")
        else:
            char = module.char
            image = field_mat_vec(to_field_matrix(matrix, char),
                                  module.distinguished[i], char)
            if image != to_field_matrix([module.distinguished[i + 1]], char)[0]:
                raise InternalError("distinguished element is not preserved")


def assemble_pointed_module(analysis: Analysis, coefficients) -> PointedModule:
    """The pointed persistence module of an analysis, over Z or a field."""
    char = parse_coefficients(coefficients)
    mode = analysis.mode
    meta = dict(analysis.meta)
    meta["determinacy"] = analysis.determinacy
    if mode == Mode.SIGNS:
        if char is None:
            raise InputError("signs mode has no integral module; pick a field")
        return _signs_module(analysis, char, meta)
    if (mode == Mode.HOPF and char is not None
            and analysis.f.n == analysis.f.complex.dim
            and all(lvl.kernel.span is None for lvl in analysis.levels)):
        return _hopf_field_module(analysis, meta, char)
    integral = _integral_module(analysis, meta, full=char is None)
    if char is None:
        return integral
    return integral.tensor(char)


def _signs_module(analysis: Analysis, char: int, meta: dict) -> PointedModule:
    dims = []
    distinguished = []
    sign_data = []
    for level in analysis.levels:
        count = len(level.signs.components)
        dims.append(count)
        distinguished.append([_one(char)] * count)
        sign_data.append(list(level.signs.signs))
    transitions = tuple(
        to_field_matrix(m, char) for m in analysis.transitions
    )
    meta["sign_vectors"] = sign_data
    module = PointedModule(
        Mode.SIGNS, char, analysis.samples, analysis.criticals,
        tuple(dims), transitions, tuple(distinguished), meta=meta,
    )
    _check_pointed(module)
    return module


def _one(char: int):
    return Fraction(1) if char == 0 else 1


def _hopf_field_module(analysis: Analysis, meta: dict, char: int) -> PointedModule:
    """Hopf module over Q or F_p via one growing relation echelon.

    Applies when ker j* is the whole relative group at every level (as when
    the ambient top cohomology is trivial) and the degree equals the complex
    dimension, so every level's group is the quotient of the top relative
    cochains by the relative coboundaries.  A coface of a relative
    (n-1)-simplex is itself relative, so each relation is a full column of
    the ambient coboundary and the relation spans are nested along the
    filtration: the whole module is read off one growing echelon instead of
    one elimination per level.  Quotient coordinates are the non-pivot rows
    of the span, which do not depend on how it was built, so the output is
    identical to the generic route's.
    """
    n = analysis.f.n
    space = analysis.f.complex
    top = space.simplices_of_dim(n)
    row_of = {s: i for i, s in enumerate(top)}
    rows = len(top)
    lower = space.simplices_of_dim(n - 1)
    ambient_cc = CochainComplex(space)
    d_global = ambient_cc.coboundary(n - 1)
    col_of = {s: j for j, s in enumerate(lower)}

    echelon = FieldEchelon(char)

    degree_vec = [0] * rows
    probe_cocycle = analysis.levels[0].cc.cochain(analysis.levels[0].degree_coords, n)
    for s, val in probe_cocycle.items():
        degree_vec[row_of[s]] = int(val)

    inserted: set = set()
    dims = []
    distinguished = []
    transitions = []
    prev_coord_rows = None
    for level in analysis.levels:
        for s in level.cc.simplices(n - 1):
            if s not in inserted:
                inserted.add(s)
                echelon.insert([d_global[i][col_of[s]] for i in range(rows)])
        active = sorted(row_of[s] for s in level.cc.simplices(n))
        pivot_rows = echelon.pivot_rows
        coord_rows = [r for r in active if r not in pivot_rows]
        dims.append(len(coord_rows))
        distinguished.append(echelon.project(degree_vec, coord_rows))
        if prev_coord_rows is not None:
            cols = []
            for r in prev_coord_rows:
                unit = [0] * rows
                unit[r] = 1
                cols.append(echelon.project(unit, coord_rows))
            transitions.append(
                [[cols[j][i] for j in range(len(cols))] for i in range(len(coord_rows))]
            )
        prev_coord_rows = coord_rows

    module = PointedModule(
        Mode.HOPF, char, analysis.samples, analysis.criticals,
        tuple(dims), tuple(transitions), tuple(distinguished), meta=meta,
    )
    _check_pointed(module)
    return module


def _integral_module(analysis: Analysis, meta: dict, full: bool = True) -> PointedModule:
    """Integral module data; `full=False` skips the per-level invariant
    computations and the integer pointedness check (the field reduction that
    follows performs its own exact check)."""
    mode = analysis.mode
    if mode == Mode.CIRCLE:
        presentations = [lvl.coh.group for lvl in analysis.levels]
        distinguished = [list(lvl.winding_coords) for lvl in analysis.levels]
    else:
        presentations = [lvl.kernel.group for lvl in analysis.levels]
        distinguished = [list(lvl.kernel_coords) for lvl in analysis.levels]
    groups = tuple(g.invariants() for g in presentations) if full else None
    dims = tuple(g.gens for g in presentations)
    module = PointedModule(
        mode, None, analysis.samples, analysis.criticals, dims,
        tuple(analysis.transitions), tuple(distinguished),
        groups=groups, presentations=tuple(presentations), meta=meta,
    )
    if full:
        _check_pointed(module)
    return module
