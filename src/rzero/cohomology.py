"""Ordered simplicial cochain complexes and their cohomology.

Cochains are functions on sorted vertex tuples; the coboundary is the
alternating-sum dual of the face maps in the fixed vertex order.  One face
loop, `_sparse_coboundary`, builds it as sparse integer columns, and every
coboundary in the package is read from those columns: hopf mode's ambient
presentation, circle mode's obstruction sweep and `CochainComplex`.
Relative cochains of a pair (X, A) are the cochains of X supported off A,
with the restricted coboundary; this computes the cohomology of the
quotient without any quotient-space machinery (excision).

Integral cohomology is presented as ker d_q / im d_{q-1}: a basis of the
saturated kernel lattice (from the Smith normal form of d_q) together with
the image generators rewritten in kernel coordinates.  With u d_q v = s and
rank r, the kernel basis is the last columns v[:, r:].  The coordinates of
a cocycle in that basis are unique, and one `linalg.IntegerSolver` of the
basis gives them; a cochain that it cannot write is no cocycle.
Coordinates of any cocycle in this presentation are well defined modulo the
relations.  The Smith form's input is the only dense coboundary.

Over a field only dimensions are read, and only along a filtration
(`filtration_field_dims`): dim H^q = n_q - rank d_q - rank d_{q-1} on X,
on every superlevel subcomplex A_i and on every pair (X, A_i).  The levels'
(q+1)-simplices are prefixes of the decreasing-entry order and the pairs'
q-simplices prefixes of the increasing-entry order, so one
`linalg.FieldEchelon` per order, degree and field gives every rank at once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .complexes import Complex, Simplex, Subcomplex
from .errors import InternalError
from .linalg import (
    FieldEchelon,
    IntegerSolver,
    PresentedGroup,
    _sparse,
    columns,
    integer_kernel,
    lattice_basis,
    smith_normal_form,
    subgroup_presentation,
)

Cochain = dict  # simplex tuple -> coefficient


def _sparse_coboundary(space: Complex, q: int) -> tuple[list, dict]:
    """The coboundary d_q of a complex as sparse integer columns: the
    (q+1)-simplices, which index the rows, and a map from each q-simplex
    with a coface to {row of the coface: sign}, in simplex order."""
    rows = space.simplices_of_dim(q + 1)
    cols: dict = {}
    for r, tau in enumerate(rows):
        for j in range(len(tau)):
            cols.setdefault(tau[:j] + tau[j + 1:], {})[r] = -1 if j % 2 else 1
    return rows, {s: cols[s] for s in sorted(cols)}


def _presented(rows, columns) -> PresentedGroup:
    """The given rows modulo the given sparse columns, which meet no other
    row, in the rows' order."""
    position = {r: i for i, r in enumerate(rows)}
    relations = []
    for col in columns:
        vec = [0] * len(rows)
        for r, v in col.items():
            vec[position[r]] = v
        relations.append(vec)
    return PresentedGroup(len(rows), relations)


def coboundary_of(columns: dict, cochain: dict) -> dict:
    """Sparse columns applied to a sparse cochain keyed like them: {row:
    value}, with no zero entries."""
    out: dict = {}
    for c, x in cochain.items():
        for r, v in columns.get(c, {}).items():
            out[r] = out.get(r, 0) + x * v
    return {r: v for r, v in out.items() if v}


class CochainComplex:
    """The (relative) simplicial cochain complex of a complex or pair."""

    def __init__(self, space: Complex, rel: Subcomplex | None = None):
        self.space = space
        self.rel = rel
        excluded = rel.simplices if rel is not None else frozenset()
        self._simplices = {
            q: [s for s in space.simplices_of_dim(q) if s not in excluded]
            for q in range(space.dim + 1)
        }
        self._index = {
            q: {s: i for i, s in enumerate(lst)}
            for q, lst in self._simplices.items()
        }
        self._columns: dict[int, dict[int, dict[int, int]]] = {}

    def simplices(self, q: int) -> list[Simplex]:
        return self._simplices.get(q, [])

    def size(self, q: int) -> int:
        return len(self.simplices(q))

    def columns(self, q: int) -> dict[int, dict[int, int]]:
        """The nonzero columns of d_q in column order, sparse: column ->
        {row: sign}.  Empty for q < 0.

        A simplex off the subcomplex has all its cofaces off it too, so each
        column is a whole column of the space's coboundary, renumbered."""
        if q not in self._columns:
            rows, cols = _sparse_coboundary(self.space, q)
            col_index = self._index.get(q, {})
            row_index = self._index.get(q + 1, {})
            self._columns[q] = {
                col_index[s]: {row_index[rows[r]]: v for r, v in col.items()}
                for s, col in cols.items() if s in col_index
            }
        return self._columns[q]

    def coboundary(self, q: int) -> list[list[int]]:
        """Matrix of d_q : C^q -> C^{q+1} in the sorted-simplex bases, dense
        for the Smith form."""
        matrix = [[0] * self.size(q) for _ in range(self.size(q + 1))]
        for c, col in self.columns(q).items():
            for r, v in col.items():
                matrix[r][c] = v
        return matrix

    # -- cochain plumbing ---------------------------------------------------

    def vector(self, cochain: Cochain, q: int) -> list[int]:
        index = self._index.get(q, {})
        vec = [0] * len(index)
        for simplex, value in cochain.items():
            simplex = tuple(sorted(simplex))
            if value == 0:
                continue
            if simplex not in index:
                raise InternalError(f"cochain supported on missing simplex {simplex}")
            vec[index[simplex]] = value
        return vec

    def cochain(self, vec, q: int) -> Cochain:
        return {s: v for s, v in zip(self.simplices(q), vec) if v != 0}

    def is_cocycle(self, vec, q: int) -> bool:
        return not coboundary_of(self.columns(q), _sparse(vec))


class IntCohomology:
    """H^q with integer coefficients, with a deterministic presentation.

    `kernel` is a basis of the saturated cocycle lattice; None stands for the
    identity basis (top degree, where every cochain is a cocycle), in which
    case coordinates are the cochain vectors themselves.  Otherwise `solver`
    is the `IntegerSolver` of the kernel basis.
    """

    def __init__(self, cc: CochainComplex, q: int, kernel, group: PresentedGroup,
                 solver: IntegerSolver | None = None):
        self.cc = cc
        self.q = q
        self.kernel = kernel
        self.group = group
        self.solver = solver

    @property
    def gens(self) -> int:
        return self.group.gens

    @property
    def free_rank(self) -> int:
        return self.group.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.group.torsion

    def coords(self, vec) -> list[int]:
        """Presentation coordinates of a cocycle (well defined mod relations)."""
        vec = [int(x) for x in vec]
        if self.kernel is None:
            return vec
        coords = self.solver.solve(vec)
        if coords is None:
            raise InternalError("not a cocycle")
        return coords

    def represent(self, coords) -> list[int]:
        """A cocycle vector representing the given presentation coordinates."""
        size = self.cc.size(self.q)
        if self.kernel is None:
            return [int(x) for x in coords]
        vec = [0] * size
        for col, coeff in zip(self.kernel, coords):
            if coeff:
                for i in range(size):
                    vec[i] += coeff * col[i]
        return vec


def integral_cohomology(cc: CochainComplex, q: int) -> IntCohomology:
    """ker d_q / im d_{q-1} over the integers: the kernel basis from the
    Smith normal form of d_q, and each nonzero column of d_{q-1} written in
    it as a relation."""
    n_q = cc.size(q)
    if n_q == 0:
        return IntCohomology(cc, q, [], PresentedGroup(0, []), IntegerSolver([], 0))
    if cc.size(q + 1) == 0:
        # Top degree: the kernel is everything; keep the identity implicit.
        return IntCohomology(cc, q, None, _presented(range(n_q), cc.columns(q - 1).values()))
    snf = smith_normal_form(cc.coboundary(q))
    kernel = columns(snf.v)[snf.rank:]
    solver = IntegerSolver(kernel, n_q)
    relations = []
    if kernel:
        for image_col in cc.columns(q - 1).values():
            rel = solver.solve(image_col)
            if rel is None:
                raise InternalError("coboundary escapes the cocycle lattice")
            relations.append(rel)
    return IntCohomology(cc, q, kernel, PresentedGroup(len(kernel), relations), solver)


def filtration_field_dims(space: Complex, entry: dict[Simplex, int], levels: int,
                          char: int) -> list[list[int]]:
    """dim H^q over Q (char 0) or F_p for q = 0 .. dim X: of X, then of A_i
    and of (X, A_i) for each level i < `levels`, A_i holding the simplices
    whose entry exceeds i (every level face-closed).

    Each dimension is n_q - rank d_q - rank d_{q-1}, with every rank read
    off `_prefix_ranks`: one reduction per degree and order.
    """
    dim = space.dim
    none = (0, [0] * levels, [0] * levels)
    # ranks[q + 1]: rank d_q of X, of every A_i and of every (X, A_i).
    ranks = [none, *(_prefix_ranks(space, entry, levels, q, char) for q in range(dim)), none]
    by_degree = []
    for q in range(dim + 1):
        simplices = space.simplices_of_dim(q)
        in_level = _above([entry[s] for s in simplices], levels)
        (x, a, p), (x_, a_, p_) = ranks[q + 1], ranks[q]
        row = [len(simplices) - x - x_]
        for i in range(levels):
            row.append(in_level[i] - a[i] - a_[i])
            row.append(len(simplices) - in_level[i] - p[i] - p_[i])
        by_degree.append(row)
    return [list(dims) for dims in zip(*by_degree)]


def _prefix_ranks(space: Complex, entry: dict[Simplex, int], levels: int, q: int,
                  char: int) -> tuple[int, list[int], list[int]]:
    """rank d_q over the field of X, of every level and of every pair.

    A level's d_q is the transpose of the boundary of its (q+1)-simplices,
    and those of A_i lead the decreasing-entry order.  A pair's d_q takes
    the whole coboundary column of each of its q-simplices, as no simplex
    off A_i has a coface on it, and those of (X, A_i) lead the
    increasing-entry order.  The rank of a prefix is its count of columns
    that an echelon, filled in that order, takes in.
    """
    rows, cols = _sparse_coboundary(space, q)
    boundary: list[dict[int, int]] = [{} for _ in rows]
    for c, col in enumerate(cols.values()):
        for r, v in col.items():
            boundary[r][c] = v
    level_kept = _kept(zip(map(entry.__getitem__, rows), boundary), char, reverse=True)
    pair_kept = _kept(((entry[s], col) for s, col in cols.items()), char, reverse=False)
    rank = len(pair_kept)
    return (rank, _above(level_kept, levels),
            [rank - k for k in _above(pair_kept, levels)])


def _kept(columns, char: int, reverse: bool) -> list[int]:
    """The entries of the (entry, column) pairs that one `FieldEchelon`
    takes in, the columns inserted by entry, decreasing when `reverse`."""
    echelon = FieldEchelon(char)
    ordered = sorted(columns, key=lambda pair: pair[0], reverse=reverse)
    return [e for e, col in ordered if echelon.insert(col) is not None]


def _above(entries, levels: int) -> list[int]:
    """For each level i < levels, how many of the entries exceed i."""
    counts = [0] * (levels + 1)
    for e in entries:
        counts[min(e, levels)] += 1
    return list(accumulate(reversed(counts[1:])))[::-1]


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

def restriction_transfer(src: CochainComplex, dst: CochainComplex, q: int):
    """Cochain-level map for an inclusion of supports.

    Absolute case (A_s inside A_r): restrict the cochain to the smaller
    complex.  Relative case ((X, A_r) to (X, A_s) with A_s inside A_r): a
    cochain vanishing on A_r also vanishes on A_s, so this is extension by
    zero onto the larger support set.  Both are the same index gymnastics.
    """
    src_index = {s: i for i, s in enumerate(src.simplices(q))}

    def transfer(vec):
        out = []
        for s in dst.simplices(q):
            i = src_index.get(s)
            out.append(vec[i] if i is not None else 0)
        return out

    return transfer


def induced_columns(src: IntCohomology, dst: IntCohomology, transfer) -> list[list[int]]:
    """The dst coords of the image of each src generator under a
    cochain-level map: the columns of its matrix."""
    cols = []
    for j in range(src.gens):
        rep = src.represent([1 if i == j else 0 for i in range(src.gens)])
        cols.append(dst.coords(transfer(rep)))
    return cols


def induced_int_matrix(src: IntCohomology, dst: IntCohomology, transfer) -> list[list[int]]:
    """Matrix (dst coords per src generator) of a cochain-level map."""
    cols = induced_columns(src, dst, transfer)
    return [[cols[j][i] for j in range(src.gens)] for i in range(dst.gens)]


def connecting_delta(space_cc: CochainComplex, sub_cc: CochainComplex,
                     rel_cc: CochainComplex, z: Cochain, q: int) -> Cochain:
    """The connecting homomorphism on cochains.

    Extend a q-cocycle on the subcomplex by zero to the ambient complex,
    apply the ambient coboundary, and read the result as a relative
    (q+1)-cochain.  The result vanishes on the subcomplex because z is a
    cocycle there, and it is a relative cocycle representing delta[z].
    """
    z_vec = sub_cc.vector(z, q)
    if not sub_cc.is_cocycle(z_vec, q):
        raise InternalError("connecting_delta needs a cocycle")
    idx = space_cc._index.get(q, {})
    extended = {idx[s]: val for s, val in zip(sub_cc.simplices(q), z_vec) if val}
    rows = space_cc.simplices(q + 1)
    rel_index = rel_cc._index.get(q + 1, {})
    out: Cochain = {}
    for r, val in sorted(coboundary_of(space_cc.columns(q), extended).items()):
        if rows[r] not in rel_index:
            raise InternalError("connecting image fails to vanish on subcomplex")
        out[rows[r]] = val
    return out


# ---------------------------------------------------------------------------
# subgroups (kernels of induced maps)
# ---------------------------------------------------------------------------

class Subgroup:
    """A subgroup of a presented group with its own presentation.

    `span` is None when the subgroup is the whole ambient group (generators
    the identity), in which case coordinates pass through unchanged.
    """

    def __init__(self, ambient: PresentedGroup, span, group: PresentedGroup):
        self.ambient = ambient
        self.span = span
        self.group = group

    def generators(self) -> list[list[int]]:
        if self.span is None:
            g = self.ambient.gens
            return [[1 if i == j else 0 for i in range(g)] for j in range(g)]
        return [list(v) for v in self.span]

    @cached_property
    def _solver(self) -> IntegerSolver:
        return IntegerSolver([*self.span, *self.ambient.relations], self.ambient.gens)

    def member_coords(self, ambient_coords) -> list[int] | None:
        """Subgroup coordinates of an ambient class, or None if outside: the
        span's entries of one solution over the span and the ambient
        relations."""
        ambient_coords = list(ambient_coords)
        if self.span is None:
            return ambient_coords
        x = self._solver.solve(ambient_coords)
        return None if x is None else x[:len(self.span)]


def kernel_subgroup(matrix, src: PresentedGroup, dst: PresentedGroup) -> Subgroup:
    """ker of a homomorphism between presented groups.

    `matrix` maps src coordinates to dst coordinates (it may be None when
    dst is trivial).  The kernel consists of the classes whose image lands
    in the relation lattice of dst.
    """
    gens = src.gens
    if gens == 0:
        return Subgroup(src, [], PresentedGroup(0, []))
    if dst.is_trivial():
        # Everything maps to zero: the kernel is the whole group, and the
        # whole group keeps its own presentation.
        return Subgroup(src, None, src)
    stacked = []
    for i in range(dst.gens):
        row = [matrix[i][j] for j in range(gens)]
        row += [rel[i] for rel in dst.relations]
        stacked.append(row)
    kernel = integer_kernel(stacked)
    span_vectors = [vec[:gens] for vec in kernel]
    # The kernel subgroup contains the ambient relation lattice; reduce the
    # combined generating set to a lattice basis to keep coordinates small.
    span_vectors += [list(rel) for rel in src.relations]
    span_vectors = lattice_basis(span_vectors, gens)
    span, presented = subgroup_presentation(span_vectors, src)
    return Subgroup(src, span, presented)
