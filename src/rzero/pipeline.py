"""End-to-end analysis: subdivision, filtration, classes, pointed modules.

`analyze` runs the whole exact pipeline for one map and one mode.  Signs
mode filters the input complex itself: for a map to R the upper-star
filtration of the vertex values is exact (`filtration`), so no vertex is
added.  Circle and hopf mode filter the map's subdivision, whose critical
values, probe or ray and Smith bases `criticals`, `robust-radius`,
`barcode`, `module` and `check` print.  `analyze_input_complex` filters
the input complex in every mode, each simplex entering at its exact
minimum of |f|: the module is isomorphic, so the bars and the robust
radius, all that `fuzz` and `bottleneck` print, are the same, and no
subdivision is made.  Both routes then decide at every level whether the
distinguished class is nonzero (signs mode from one pass over the vertices
and their ambient components, hopf and circle mode from one growing
integer echelon of relative coboundaries each, `persistence.LevelEchelon`,
filled only until the flags are decided) and build the per-level data
(components, groups, class coordinates, transitions) only when something
reads it: the module, a witness, or the harness's checks.
`Analysis.robust` and `assemble_pointed_module` read off the results.

Hopf mode reads every group off the ambient's sparse coboundary d_{n-1}
(`HopfAmbient`) and builds no cochain complex; its flags and its field
barcodes come from the one integer echelon of those columns.

`field_barcode` is the pointed barcode over a field.  Where one pass over
the filtration order provably gives the bars of the module (`persistence`:
signs over any field, circle over Q, hopf over any field), it builds no
module at all; only circle over F_p reads `barcode` of
`assemble_pointed_module`.

The levels of every mode (`SignsLevel`, `CircleLevel`, `HopfLevel`) share
one interface, `Level`: a group, the distinguished class's coordinates in
it, the integral transition to any later level, a witness and a class
comparison.  The transitions, the integral module, the robust radius and
the harness's self-checks read only that interface; the mode picks the
level class and the module route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .barcode import PointedBarcode, barcode, pointed_barcode
from .cohomology import (
    CochainComplex,
    IntCohomology,
    Subgroup,
    _presented,
    _sparse_coboundary,
    coboundary_of,
    induced_int_matrix,
    integral_cohomology,
    kernel_subgroup,
    restriction_transfer,
)
from .complexes import (
    Complex,
    PLMap,
    Subcomplex,
    component_index,
    connected_components,
    star_subdivide,
)
from .errors import InputError, InternalError
from .exact import ExactRadius, ZERO_RADIUS
from .filtration import Filtration, build_filtration
from .linalg import (
    PresentedGroup,
    field_mat_vec,
    from_columns,
    mat_vec,
    to_field_matrix,
)
from .modes import (
    Mode,
    SignVector,
    admissible_probe,
    admissible_ray,
    determinacy_flag,
    require_applicable,
    sign_vector,
    sign_witness as _sign_witness,
    winding_cocycle,
)
from .persistence import LevelEchelon, circle_bars, signs_bars
from .rng import RationalSampler, child_seed

DEFAULT_SEED = 20_177


# ---------------------------------------------------------------------------
# per-level class data
# ---------------------------------------------------------------------------

class Level:
    """One superlevel set A_r of a pointed persistence module: level
    `index` of the filtration, whose subcomplex `level` is read only when
    the level's data is.

    Every mode's level provides `group` (a `PresentedGroup`), `coords` (the
    distinguished class in it), `transition(later)` (the integral matrix of
    the map induced by the inclusion, to any later level), `witness()` and
    `nontrivial`.  Circle and hopf levels also provide `same_class(other)`:
    whether another analysis of the same filtration (another probe or ray)
    has the same distinguished class at this level.
    """

    def __init__(self, filt: Filtration, index: int, nontrivial: bool):
        self.filt = filt
        self.index = index
        self.nontrivial = nontrivial

    @property
    def level(self) -> Subcomplex:
        return self.filt.levels[self.index]


class SignsLevel(Level):
    """Signs-mode level data.  `nontrivial` comes from the analysis's one
    pass over the ambient components (`_analyze_signs`); the level's
    components, their signs and the sign witness are built on first access.

    `ambient` maps each vertex of X to its ambient component index.
    """

    def __init__(self, filt: Filtration, index: int, ambient: dict, nontrivial: bool):
        super().__init__(filt, index, nontrivial)
        self.ambient = ambient

    @cached_property
    def signs(self) -> SignVector:
        return sign_vector(self.filt.f, self.level)

    @cached_property
    def sign_witness(self) -> dict:
        return _sign_witness(self.signs, self.ambient)

    @cached_property
    def group(self) -> PresentedGroup:
        """The free group on the level's components."""
        return PresentedGroup(len(self.signs.components), [])

    @property
    def coords(self) -> list[int]:
        return [1] * len(self.signs.components)

    def transition(self, later: "SignsLevel") -> list[list[int]]:
        # Rows: components of the later level; entry 1 where contained.
        index = {v: i for i, comp in enumerate(self.signs.components) for v in comp}
        matrix = []
        for comp, sign in zip(later.signs.components, later.signs.signs):
            row = [0] * len(self.signs.components)
            container = index[comp[0]]
            row[container] = 1
            if self.signs.signs[container] != sign:
                raise InternalError("sign not inherited along inclusion")
            matrix.append(row)
        return matrix

    def witness(self) -> dict:
        return dict(self.sign_witness)


class HopfAmbient:
    """Ambient data of a hopf analysis, the one presentation hopf mode
    reads: the ambient coboundary d_{n-1} as sparse columns
    (`_sparse_coboundary`) and the degree cocycle on its rows.

    `top` lists the n-simplices, which index the rows; `degree` is the
    degree cocycle on those rows.  With dim X <= n, H^n(X) is the rows
    modulo the columns, and each level restricts both (`HopfLevel.rel`).
    `echelon` is the one integer echelon of the columns over the levels,
    with the degree cocycle as its target: the flags, `trivial` and the
    bars over every field are read off it.
    """

    def __init__(self, space: Complex, n: int, cocycle: dict, filt: Filtration):
        self.cocycle = cocycle
        self.top, self.columns = _sparse_coboundary(space, n - 1)
        row_of = {s: r for r, s in enumerate(self.top)}
        self.degree = {row_of[s]: v for s, v in cocycle.items()}
        self.echelon = LevelEchelon(filt, self.top, self.columns, self.degree)

    @cached_property
    def group(self) -> PresentedGroup:
        """H^n(X), with the columns made dense as its relations."""
        return _presented(range(len(self.top)), self.columns.values())

    @property
    def trivial(self) -> bool:
        """Whether H^n(X) is zero: the columns span every row."""
        return self.echelon.trivial


class CircleLevel(Level):
    """Circle-mode level data.  `nontrivial` comes from the analysis's one
    sweep (`_circle_flags`); the winding cocycle restricted to the level,
    the level's H^1 and the class coordinates are built on first access.

    `cocycle` is the winding cocycle on the largest level.
    """

    def __init__(self, filt: Filtration, index: int, cocycle: dict, nontrivial: bool):
        super().__init__(filt, index, nontrivial)
        self.cocycle = cocycle

    @cached_property
    def winding(self) -> dict:
        entry = self.filt.entry
        return {e: v for e, v in self.cocycle.items() if entry[e] > self.index}

    @cached_property
    def cc(self) -> CochainComplex:
        return CochainComplex(self.level)

    @cached_property
    def coh(self) -> IntCohomology:
        return integral_cohomology(self.cc, 1)

    @cached_property
    def winding_coords(self) -> list[int]:
        return self.coh.coords(self.cc.vector(self.winding, 1))

    @property
    def group(self) -> PresentedGroup:
        return self.coh.group

    @property
    def coords(self) -> list[int]:
        return self.winding_coords

    def transition(self, later: "CircleLevel") -> list[list[int]]:
        return induced_int_matrix(self.coh, later.coh,
                                  restriction_transfer(self.cc, later.cc, 1))

    def witness(self) -> dict:
        return {"winding_coordinates": list(self.winding_coords)}

    def same_class(self, other: "CircleLevel") -> bool:
        """Compares the winding classes in this level's H^1, where the other
        analysis's cocycle is written too, so the other builds no H^1."""
        theirs = self.coh.coords(self.cc.vector(other.winding, 1))
        return self.group.classes_equal(self.winding_coords, theirs)


class HopfLevel(Level):
    """Hopf-mode level data.  `nontrivial` comes from the analysis's one
    sweep (`_hopf_flags`); the relative H^n(X, A), ker j* and the class
    coordinates are built on first access.

    Hopf mode needs dim X <= n, so H^n(X, A) is the relative n-cochains
    (`rows`, the rows off A) modulo the columns off A, whose cofaces lie
    off A too; the degree class's coordinates are its cochain vector.  The
    group is ker j*, and `same_class` compares the degree classes in
    H^n(X, A), which does not build ker j*.
    """

    def __init__(self, filt: Filtration, index: int, ambient: HopfAmbient, nontrivial: bool):
        super().__init__(filt, index, nontrivial)
        self.ambient = ambient

    @cached_property
    def rows(self) -> list[int]:
        """The rows of `ambient.top` off A (entry <= index), in order."""
        entry = self.filt.entry
        return [r for r, s in enumerate(self.ambient.top) if entry[s] <= self.index]

    @cached_property
    def rel(self) -> PresentedGroup:
        """H^n(X, A), presented on `rows` by the columns off A."""
        entry = self.filt.entry
        return _presented(self.rows, [col for s, col in self.ambient.columns.items()
                                      if entry[s] <= self.index])

    @cached_property
    def degree_coords(self) -> list[int]:
        degree = self.ambient.degree
        return [degree.get(r, 0) for r in self.rows]

    @cached_property
    def kernel(self) -> Subgroup:
        ambient = self.ambient
        if ambient.trivial:
            # j* maps into the zero group.
            return kernel_subgroup(None, self.rel, PresentedGroup(0, []))
        # j* extends a relative cochain by zero: the inclusion of the rows.
        jmat = [[0] * len(self.rows) for _ in ambient.top]
        for j, r in enumerate(self.rows):
            jmat[r][j] = 1
        return kernel_subgroup(jmat, self.rel, ambient.group)

    @cached_property
    def kernel_coords(self) -> list[int]:
        coords = self.kernel.member_coords(self.degree_coords)
        if coords is None:
            raise InternalError("degree class escaped ker j*")
        return coords

    @property
    def group(self) -> PresentedGroup:
        return self.kernel.group

    @property
    def coords(self) -> list[int]:
        return self.kernel_coords

    def transition(self, later: "HopfLevel") -> list[list[int]]:
        # The restriction extends a cochain on these rows by zero onto the
        # later level's rows: row j here is row into[j] there.
        position = {r: i for i, r in enumerate(later.rows)}
        into = [position[r] for r in self.rows]
        size = len(later.rows)
        if self.kernel.span is None and later.kernel.span is None:
            # Full kernels: the transition is the bare index inclusion.
            matrix = [[0] * len(into) for _ in range(size)]
            for j, i in enumerate(into):
                matrix[i][j] = 1
            return matrix
        cols = []
        for gen in self.kernel.generators():
            extended = [0] * size
            for i, x in zip(into, gen):
                extended[i] = x
            col = later.kernel.member_coords(extended)
            if col is None:
                raise InternalError("restriction left ker j*")
            cols.append(col)
        return from_columns(cols, len(later.kernel.generators()))

    def witness(self) -> dict:
        return {"class_coordinates": list(self.degree_coords)}

    def same_class(self, other: "HopfLevel") -> bool:
        return self.rel.classes_equal(self.degree_coords, other.degree_coords)


@dataclass
class RobustResult:
    """The robust radius, and the last level with a nonzero class (None
    when there is none), whose witness is built on first read."""

    radius: ExactRadius
    level: Level | None = None

    @cached_property
    def witness(self) -> dict:
        if self.level is None:
            return {}
        witness = self.level.witness()
        witness["at_radius"] = self.radius
        return witness


@dataclass
class Analysis:
    """Everything the CLI and harness need about one analyzed map.

    `original` is the input map and `f` the map the filtration was built
    on: its subdivision when `analyze` runs in circle or hopf mode, the
    input map itself otherwise.
    """

    original: PLMap
    f: PLMap
    mode: Mode
    seed: int
    filtration: Filtration
    levels: list
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

    @cached_property
    def transitions(self) -> list:
        """Integral transition matrices between consecutive levels."""
        return [a.transition(b) for a, b in zip(self.levels, self.levels[1:])]


def analyze(f0: PLMap, mode: Mode, seed: int = DEFAULT_SEED) -> Analysis:
    """The analysis of f0 in one mode.  Signs mode filters f0 itself (the
    upper-star rule of `filtration`, exact for a map to R); circle and hopf
    mode filter f0's subdivision (`star_subdivide`), hopf mode on a map to
    R included."""
    require_applicable(mode, f0.n, f0.complex.dim)
    return _analyze_filtered(
        f0, build_filtration(f0 if mode == Mode.SIGNS else star_subdivide(f0)), mode, seed)


def analyze_input_complex(f0: PLMap, mode: Mode, seed: int = DEFAULT_SEED) -> Analysis:
    """The analysis of f0 filtered on its own complex in every mode, each
    simplex entering at its exact minimum of |f| (`build_filtration`).

    {|f| >= r} deformation retracts onto each level (`filtration`), so the
    bars over any field, the distinguished bar and the robust radius are
    those of `analyze`.  The critical values, the samples, the probe or
    ray and the per-level data are not: the subdivision adds critical
    values at which nothing changes, and a Smith basis depends on X.  So
    only commands that print no more than bars and radii read it."""
    require_applicable(mode, f0.n, f0.complex.dim)
    return _analyze_filtered(f0, build_filtration(f0), mode, seed)


def _analyze_filtered(f0: PLMap, filt: Filtration, mode: Mode, seed: int) -> Analysis:
    """`analyze` from a filtration of f0 (`analyze` says which), which
    reads neither the mode nor the seed, so analyses of one map can share
    it."""
    f = filt.f
    meta: dict = {"seed": seed}
    if mode == Mode.SIGNS:
        levels = _analyze_signs(f, filt)
    elif mode == Mode.CIRCLE:
        levels = _analyze_circle(f, filt, seed, meta)
    else:
        levels = _analyze_hopf(f, filt, seed, meta)
    robust = _robust_from_levels(filt, levels)
    return Analysis(f0, f, mode, seed, filt, levels, robust, meta)


def _analyze_signs(f: PLMap, filt: Filtration) -> list:
    """Signs levels, with every level's flag decided in one pass.

    Each vertex's sign is read once, off its integer numerator
    (`PLMap.scaled_values`).  A vertex of A_0 has a nonzero value, and
    every component of every level carries a constant sign exactly when
    every edge of A_0 joins two vertices of the same sign, which is checked
    once.  The sign assignment on A_i then fails to extend over X exactly
    when some ambient component holds a positive and a negative vertex of
    A_i, and a vertex lies in A_i while its entry exceeds i: the flag of
    level i holds iff some ambient component's least of (largest positive
    entry, largest negative entry) exceeds i.
    """
    entry = filt.entry
    ambient = component_index(connected_components(f.complex))
    ints = f.scaled_values
    sign = {}
    reach: dict = {}    # (ambient component, sign) -> largest vertex entry
    for v in f.complex.vertices:
        x = ints[v][1][0]
        sign[v] = (x > 0) - (x < 0)
        if entry[(v,)] and not sign[v]:
            raise InternalError(f"component of {v} does not carry a constant sign")
        key = (ambient[v], sign[v])
        reach[key] = max(reach.get(key, 0), entry[(v,)])
    for u, v in f.complex.edges():
        if entry[(u, v)] and sign[u] != sign[v]:
            raise InternalError(f"component of {u}, {v} does not carry a constant sign")
    alive = max((min(reach.get((c, 1), 0), reach.get((c, -1), 0)) for c, _ in reach),
                default=0)
    return [SignsLevel(filt, i, ambient, i < alive) for i in range(filt.level_count())]


def _analyze_circle(f: PLMap, filt: Filtration, seed: int, meta: dict) -> list:
    sampler = RationalSampler(child_seed(seed, 1))
    ray = admissible_ray(filt.levels[0], f, sampler)
    meta["ray"] = ray
    # The crossing count of an edge does not depend on the level, so the
    # cocycle on the largest level restricts to every other.
    winding = winding_cocycle(filt.levels[0], f, ray)
    flags = _circle_flags(f.complex, filt, winding)
    return [CircleLevel(filt, i, winding, flag) for i, flag in enumerate(flags)]


def _circle_flags(space: Complex, filt: Filtration, winding: dict) -> list[bool]:
    """Whether the winding class on A lies outside the image of H^1(X), for
    every level A, all over Z.

    By the exact sequence H^1(X) -> H^1(A) -> H^2(X, A) that holds exactly
    when its image under the connecting map is nonzero: the coboundary of w
    extended by zero, a relative 2-cocycle, lies outside the relative
    coboundaries.  Extending w|A instead of w changes that coboundary by a
    relative coboundary, so one vector serves every level, and one echelon
    of the relative coboundary columns, filled level by level, holds every
    level's lattice (`LevelEchelon.flags`).  On a complex without triangles
    every flag is False.
    """
    rows, columns = _sparse_coboundary(space, 1)
    target = coboundary_of(columns, winding)
    if any(filt.entry[rows[r]] for r in target):
        raise InternalError("winding cocycle is not a cocycle on the superlevel complex")
    return LevelEchelon(filt, rows, columns, target).flags


def _analyze_hopf(f: PLMap, filt: Filtration, seed: int, meta: dict) -> list:
    sampler = RationalSampler(child_seed(seed, 2))
    probe, cocycle = admissible_probe(f, filt.samples[0], sampler)
    meta["probe"] = probe
    ambient = HopfAmbient(f.complex, f.n, cocycle, filt)
    flags = _hopf_flags(ambient, filt)
    return [HopfLevel(filt, i, ambient, flag) for i, flag in enumerate(flags)]


def _hopf_flags(ambient: HopfAmbient, filt: Filtration) -> list[bool]:
    """Whether the degree class is nonzero in H^n(X, A), for every level A.

    With dim X <= n every relative n-cochain is a cocycle, so H^n(X, A) is
    the relative n-cochains modulo the coboundaries of the relative
    (n-1)-simplices.  The degree cocycle is relative at every level, so its
    class is zero exactly when it lies in that lattice
    (`LevelEchelon.flags`).
    """
    if any(filt.entry[s] for s in ambient.cocycle):
        raise InternalError("degree cocycle meets the superlevel complex")
    return ambient.echelon.flags


def _robust_from_levels(filt: Filtration, levels) -> RobustResult:
    """Locate the last level with a nonzero class, read off the flags.

    The distinguished element is carried forward by the transitions, so once
    it vanishes it stays zero: the nontrivial levels lead the filtration.
    """
    count = next((i for i, level in enumerate(levels) if not level.nontrivial), len(levels))
    if count == len(levels):
        raise InternalError("class nontrivial beyond the largest critical value")
    if any(level.nontrivial for level in levels[count:]):
        raise InternalError("class nontrivial again after it vanished")
    if count == 0:
        return RobustResult(ZERO_RADIUS)
    last = count - 1
    radius = filt.samples[last]
    if radius not in filt.criticals.values:
        raise InternalError("robust radius is not a critical value")
    return RobustResult(radius, levels[last])


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
        if p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1)):
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
    """The pointed persistence module of an analysis, over Z or a field:
    the free module on the components in signs mode, else the integral
    module, tensored level by level when a field is asked for."""
    char = parse_coefficients(coefficients)
    mode = analysis.mode
    meta = dict(analysis.meta)
    meta["determinacy"] = analysis.determinacy
    if mode == Mode.SIGNS:
        if char is None:
            raise InputError("signs mode has no integral module; pick a field")
        return _signs_module(analysis, char, meta)
    integral = _integral_module(analysis, meta, full=char is None)
    if char is None:
        return integral
    return integral.tensor(char)


def field_barcode(analysis: Analysis, field) -> PointedBarcode:
    """The pointed barcode of an analysis's module over a field.

    Signs mode and hopf mode over any field and circle mode over Q read
    the bars from one pass over the filtration order (`persistence`).  Hopf
    reads them off the integer echelon that decided the analysis's flags,
    filled to the last level (`LevelEchelon.bars`), whether H^n(X) is zero
    or not; with dim X < n its groups are all zero.  Circle over F_p (where
    torsion in H_1 would count) builds the module and runs `barcode`.
    Integral coefficients are rejected before any work.
    """
    char = parse_coefficients(field)
    if char is None:
        raise InputError("barcodes require field coefficients; pick q or a prime field")
    mode = analysis.mode
    filt = analysis.filtration
    if mode == Mode.SIGNS:
        # The robust radius is the last nontrivial level's sample, so the
        # distinguished bar (0, rho] is the bar on the nontrivial levels.
        bars = signs_bars(filt)
        support = sum(level.nontrivial for level in analysis.levels)
    elif char == 0 and mode == Mode.CIRCLE:
        bars, support = circle_bars(filt, analysis.levels[0].winding)
    elif mode == Mode.HOPF:
        bars, support = analysis.levels[0].ambient.echelon.bars(char)
    else:
        module = assemble_pointed_module(analysis, field)
        return barcode(module, signs_robust_radius=analysis.robust.radius)
    return pointed_barcode(filt.samples, filt.criticals.values, bars, support)


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


def _integral_module(analysis: Analysis, meta: dict, full: bool = True) -> PointedModule:
    """Integral module data; `full=False` skips the per-level invariant
    computations and the integer pointedness check (the field reduction that
    follows performs its own exact check)."""
    presentations = [lvl.group for lvl in analysis.levels]
    distinguished = [list(lvl.coords) for lvl in analysis.levels]
    groups = tuple(g.invariants() for g in presentations) if full else None
    dims = tuple(g.gens for g in presentations)
    module = PointedModule(
        analysis.mode, None, analysis.samples, analysis.criticals, dims,
        tuple(analysis.transitions), tuple(distinguished),
        groups=groups, presentations=tuple(presentations), meta=meta,
    )
    if full:
        _check_pointed(module)
    return module
