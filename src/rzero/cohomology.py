"""Ordered simplicial cochain complexes and their cohomology.

Cochains are functions on sorted vertex tuples; the coboundary is the
alternating-sum dual of the face maps in the fixed vertex order.  Relative
cochains of a pair (X, A) are the cochains of X supported off A, with the
restricted coboundary; this computes the cohomology of the quotient without
any quotient-space machinery (excision).

Integral cohomology is presented as ker d_q / im d_{q-1}: a basis of the
saturated kernel lattice (from the Smith normal form of d_q) together with
the image generators rewritten in kernel coordinates.  With d_q = U^-1 S V^-1
and rank r, the kernel basis is the last columns V[:, r:], so the
coordinates of a cochain z are (V^-1 z)[r:], read from the V^-1 the Smith
form returns; the cocycle check comes free, as (V^-1 z)[:r] = 0.  Coordinates
of any cocycle in this presentation are well defined modulo the relations,
and the same data tensored with a field gives the field cohomology with
canonical quotient coordinates.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Complex, Simplex, Subcomplex
from .errors import InputError, InternalError
from .linalg import (
    PresentedGroup,
    QuotientSpace,
    SmithSolver,
    columns,
    field_kernel,
    field_solve,
    from_columns,
    integer_kernel,
    lattice_basis,
    mat_vec,
    smith_normal_form,
    subgroup_presentation,
    to_field_matrix,
)

Cochain = dict  # simplex tuple -> coefficient


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
        self._coboundaries: dict[int, list[list[int]]] = {}

    def simplices(self, q: int) -> list[Simplex]:
        return self._simplices.get(q, [])

    def size(self, q: int) -> int:
        return len(self.simplices(q))

    def coboundary(self, q: int) -> list[list[int]]:
        """Matrix of d_q : C^q -> C^{q+1} in the sorted-simplex bases."""
        if q not in self._coboundaries:
            rows = self.simplices(q + 1)
            cols_index = self._index.get(q, {})
            matrix = [[0] * len(cols_index) for _ in rows]
            for r, tau in enumerate(rows):
                for j in range(len(tau)):
                    face = tau[:j] + tau[j + 1:]
                    c = cols_index.get(face)
                    if c is not None:
                        matrix[r][c] = -1 if j % 2 else 1
            self._coboundaries[q] = matrix
        return self._coboundaries[q]

    def coboundary_columns(self, q: int) -> Iterator[list[int]]:
        """The nonzero columns of d_q in column order, as dense vectors.

        Built from the faces of the (q+1)-simplices, without the dense
        matrix: a column is nonzero iff its simplex has a coface.
        """
        cols_index = self._index.get(q, {})
        entries: list[list[tuple[int, int]]] = [[] for _ in cols_index]
        rows = self.simplices(q + 1)
        for r, tau in enumerate(rows):
            for j in range(len(tau)):
                c = cols_index.get(tau[:j] + tau[j + 1:])
                if c is not None:
                    entries[c].append((r, -1 if j % 2 else 1))
        for col_entries in entries:
            if col_entries:
                col = [0] * len(rows)
                for r, sign in col_entries:
                    col[r] = sign
                yield col

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
        return all(x == 0 for x in mat_vec(self.coboundary(q), list(vec)))


class IntCohomology:
    """H^q with integer coefficients, with a deterministic presentation.

    `kernel` is a basis of the saturated cocycle lattice; None stands for the
    identity basis (top degree, where every cochain is a cocycle), in which
    case coordinates are the cochain vectors themselves.  Otherwise
    `vinv_cols` are the columns of V^-1 from the Smith form of d_q, whose
    last columns V[:, rank:] are the kernel basis.
    """

    def __init__(self, cc: CochainComplex, q: int, kernel, group: PresentedGroup,
                 vinv_cols=None):
        self.cc = cc
        self.q = q
        self.kernel = kernel
        self.group = group
        self.vinv_cols = vinv_cols

    @property
    def gens(self) -> int:
        return self.group.gens

    @property
    def free_rank(self) -> int:
        return self.group.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.group.torsion

    def is_trivial(self) -> bool:
        return self.group.is_trivial()

    def coords(self, vec) -> list[int]:
        """Presentation coordinates of a cocycle (well defined mod relations)."""
        vec = [int(x) for x in vec]
        if self.kernel is None:
            return vec
        if len(vec) != len(self.vinv_cols):
            raise ValueError("cochain length mismatch")
        y = _apply_columns(self.vinv_cols, vec)
        rank = len(vec) - len(self.kernel)
        if any(y[:rank]):
            raise InternalError("not a cocycle")
        return y[rank:]

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

    def tensor(self, char: int) -> QuotientSpace:
        return self.group.tensor(char)


def cohomology(space: Complex, q: int, ring="z", rel: Subcomplex | None = None):
    """H^q of a complex or pair over Z ("z"), Q ("q"/0) or F_p ("fp"/p).

    Returns an IntCohomology or FieldCohomology with a deterministic basis.
    """
    cc = CochainComplex(space, rel)
    if ring in ("z", "Z", None):
        return integral_cohomology(cc, q)
    if isinstance(ring, str):
        ring = 0 if ring.lower() == "q" else int(ring.lower().lstrip("f"))
    return field_cohomology(cc, q, ring)


def class_coordinates(z, group):
    """Coordinates of a cocycle's class in a group or subgroup basis.

    For an IntCohomology the result is its presentation coordinates; for a
    Subgroup the result is subgroup coordinates, or None when the class
    lies outside the subgroup.
    """
    if isinstance(group, Subgroup):
        ambient = group.ambient
        vec = z if isinstance(z, list) else ambient.cc.vector(z, ambient.q)
        return group.member_coords(ambient.coords(vec))
    vec = z if isinstance(z, list) else group.cc.vector(z, group.q)
    return group.coords(vec)


def integral_cohomology(cc: CochainComplex, q: int) -> IntCohomology:
    """ker d_q / im d_{q-1} over the integers via Smith normal form."""
    n_q = cc.size(q)
    if n_q == 0:
        return IntCohomology(cc, q, [], PresentedGroup(0, []), [])
    if cc.size(q + 1) == 0:
        # Top degree: the kernel is everything; keep the identity implicit.
        relations = []
        if q >= 1:
            relations = list(cc.coboundary_columns(q - 1))
        return IntCohomology(cc, q, None, PresentedGroup(n_q, relations))
    snf = smith_normal_form(cc.coboundary(q))
    kernel = columns(snf.v)[snf.rank:]
    vinv_cols = columns(snf.vinv)
    group = _present_quotient(cc, q, snf.rank, vinv_cols)
    return IntCohomology(cc, q, kernel, group, vinv_cols)


def _apply_columns(cols, vec) -> list[int]:
    """The matrix with the given columns times vec (zero entries skipped)."""
    out = [0] * len(cols[0]) if cols else []
    for x, col in zip(vec, cols):
        if x:
            out = [o + x * c for o, c in zip(out, col)]
    return out


def _present_quotient(cc: CochainComplex, q: int, rank: int, vinv_cols) -> PresentedGroup:
    """Relations of ker d_q / im d_{q-1}: each nonzero column of d_{q-1} in
    kernel coordinates, (V^-1 col)[rank:]."""
    gens = len(vinv_cols) - rank
    if gens == 0:
        return PresentedGroup(0, [])
    relations = []
    if q >= 1:
        for image_col in cc.coboundary_columns(q - 1):
            y = _apply_columns(vinv_cols, image_col)
            if any(y[:rank]):
                raise InternalError("coboundary escapes the cocycle lattice")
            relations.append(y[rank:])
    return PresentedGroup(gens, relations)


@dataclass
class FieldCohomology:
    """H^q with coefficients in Q (char 0) or F_p (char p)."""

    cc: CochainComplex
    q: int
    char: int
    kernel: list[list]          # kernel basis over the field
    quotient: QuotientSpace     # kernel coords modulo image coords

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def coords(self, vec) -> list:
        vec = [_f(x, self.char) for x in vec]
        if not all(x == 0 for x in _field_mat_vec_plain(
                to_field_matrix(self.cc.coboundary(self.q), self.char), vec, self.char)):
            raise InternalError("not a cocycle")
        if not self.kernel:
            return []
        matrix = [[self.kernel[j][i] for j in range(len(self.kernel))]
                  for i in range(len(vec))]
        sol = field_solve(matrix, vec, self.char)
        if sol is None:
            raise InternalError("cocycle not in kernel span")
        return self.quotient.project(sol)


def _f(x, char):
    return Fraction(x) if char == 0 else int(x) % char


def _field_mat_vec_plain(a, v, char):
    return [_f(sum(x * y for x, y in zip(row, v)), char) for row in a]


def field_cohomology(cc: CochainComplex, q: int, char: int) -> FieldCohomology:
    d_q = to_field_matrix(cc.coboundary(q), char)
    n_q = cc.size(q)
    if n_q == 0:
        return FieldCohomology(cc, q, char, [], QuotientSpace(0, [], char))
    if cc.size(q + 1) == 0:
        kernel = [[_f(1 if i == j else 0, char) for i in range(n_q)] for j in range(n_q)]
    else:
        kernel = field_kernel(d_q, char)
    relations = []
    if q >= 1 and kernel:
        matrix = [[kernel[j][i] for j in range(len(kernel))] for i in range(n_q)]
        for image_col in cc.coboundary_columns(q - 1):
            sol = field_solve(matrix, image_col, char)
            if sol is None:
                raise InternalError("coboundary escapes cocycles over field")
            relations.append(sol)
    return FieldCohomology(cc, q, char, kernel, QuotientSpace(len(kernel), relations, char))


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


def induced_int_matrix(src: IntCohomology, dst: IntCohomology, transfer) -> list[list[int]]:
    """Matrix (dst coords per src generator) of a cochain-level map."""
    cols = []
    for j in range(src.gens):
        rep = src.represent([1 if i == j else 0 for i in range(src.gens)])
        cols.append(dst.coords(transfer(rep)))
    return [[cols[j][i] for j in range(src.gens)] for i in range(dst.gens)]


def restriction_map(src: IntCohomology, dst: IntCohomology) -> list[list[int]]:
    """Induced map on integral cohomology for nested supports.

    One support set must contain the other: restriction onto a smaller
    complex in the absolute case, extension by zero onto a larger relative
    support in the relative case.
    """
    q = src.q
    src_set = set(src.cc.simplices(q))
    dst_set = set(dst.cc.simplices(q))
    if not (dst_set <= src_set or src_set <= dst_set):
        raise InputError("restriction_map needs nested supports")
    transfer = restriction_transfer(src.cc, dst.cc, q)
    return induced_int_matrix(src, dst, transfer)


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
    extended = [0] * space_cc.size(q)
    idx = {s: i for i, s in enumerate(space_cc.simplices(q))}
    for s, val in zip(sub_cc.simplices(q), z_vec):
        if val:
            extended[idx[s]] = val
    image = mat_vec(space_cc.coboundary(q), extended)
    out: Cochain = {}
    for s, val in zip(space_cc.simplices(q + 1), image):
        if val == 0:
            continue
        if s not in rel_cc._index.get(q + 1, {}):
            raise InternalError("connecting image fails to vanish on subcomplex")
        out[s] = val
    return out


# ---------------------------------------------------------------------------
# subgroups (kernels of induced maps, images of delta)
# ---------------------------------------------------------------------------

class Subgroup:
    """A subgroup of an integral cohomology group with its own presentation.

    `span` is None when the subgroup is the whole ambient group (generators
    the identity), in which case coordinates pass through unchanged.
    """

    def __init__(self, ambient: IntCohomology, span, group: PresentedGroup):
        self.ambient = ambient
        self.span = span
        self.group = group
        self._solver = None

    @property
    def free_rank(self) -> int:
        return self.group.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.group.torsion

    def generators(self) -> list[list[int]]:
        if self.span is None:
            g = self.ambient.gens
            return [[1 if i == j else 0 for i in range(g)] for j in range(g)]
        return [list(v) for v in self.span]

    def member_coords(self, ambient_coords) -> list[int] | None:
        """Subgroup coordinates of an ambient class, or None if outside."""
        ambient_coords = list(ambient_coords)
        if self.span is None:
            return ambient_coords
        if not self.span:
            zero = self.ambient.group.is_zero_class(ambient_coords)
            return [] if zero else None
        if self._solver is None:
            cols = [list(v) for v in self.span]
            cols += [list(r) for r in self.ambient.group.relations]
            self._solver = SmithSolver(from_columns(cols, self.ambient.gens))
        sol = self._solver.solve(ambient_coords)
        if sol is None:
            return None
        return sol[: len(self.span)]


def kernel_subgroup(matrix, src: IntCohomology, dst: IntCohomology) -> Subgroup:
    """ker of an induced map between integral cohomology groups.

    `matrix` maps src presentation coordinates to dst presentation
    coordinates (it may be None when dst is trivial).  The kernel consists
    of the classes whose image lands in the relation lattice of dst.
    """
    gens = src.gens
    if gens == 0:
        return Subgroup(src, [], PresentedGroup(0, []))
    if dst.gens == 0 or dst.group.is_trivial():
        # Everything maps to zero: the kernel is the whole group, and the
        # whole group keeps its own presentation.
        return Subgroup(src, None, src.group)
    stacked = []
    for i in range(dst.gens):
        row = [matrix[i][j] for j in range(gens)]
        row += [rel[i] for rel in dst.group.relations]
        stacked.append(row)
    kernel = integer_kernel(stacked)
    span_vectors = [vec[:gens] for vec in kernel]
    # The kernel subgroup contains the ambient relation lattice; reduce the
    # combined generating set to a lattice basis to keep coordinates small.
    span_vectors += [list(rel) for rel in src.group.relations]
    span_vectors = lattice_basis(span_vectors, gens)
    span, presented = subgroup_presentation(span_vectors, src.group)
    return Subgroup(src, span, presented)


def image_subgroup(vectors, ambient: IntCohomology) -> Subgroup:
    """Subgroup generated by the given ambient-coordinate classes
    (together with the ambient relation lattice)."""
    span_vectors = [list(v) for v in vectors if any(x != 0 for x in v)]
    span_vectors += [list(rel) for rel in ambient.group.relations]
    span_vectors = lattice_basis(span_vectors, ambient.gens)
    span, presented = subgroup_presentation(span_vectors, ambient.group)
    return Subgroup(ambient, span, presented)
