"""Perturbation generation and end-to-end property checks.

Perturbations act on vertex values only: a simplexwise-affine difference
attains its max-norm over the complex at a vertex (the norm is convex), so
bounding every vertex offset bounds the function-space distance exactly.
Stability checks rerun the whole pipeline on the perturbed map, from the
filtration of the perturbed original complex onward (signs mode filters
that complex itself, circle and hopf mode its subdivision), and compare
barcodes and robust radii with exact arithmetic; there are no tolerances
anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .barcode import Interval, barcode
from .cohomology import (
    CochainComplex,
    coboundary_of,
    connecting_delta,
    filtration_field_dims,
    induced_columns,
    integral_cohomology,
    restriction_transfer,
)
from .complexes import PLMap
from .errors import InputError
from .exact import ExactRadius
from .filtration import Filtration
from .linalg import FieldEchelon, _sparse, field_mat_mul, mat_mul, to_field_matrix
from .matching import bottleneck
from .modes import Mode
from .normmin import _MEASURE
from .pipeline import (
    Analysis,
    _analyze_filtered,
    analyze,
    assemble_pointed_module,
    field_barcode,
)
from .rng import RationalSampler, child_seed

DEFAULT_FIELD = {Mode.SIGNS: "f2", Mode.CIRCLE: "q", Mode.HOPF: "q"}


@dataclass(frozen=True)
class PerturbSpec:
    """A seeded per-vertex rational perturbation bounded by `delta`."""

    delta: Fraction
    seed: int
    denominator: int = 1 << 16

    def __post_init__(self):
        if self.delta < 0:
            raise InputError("perturbation bound must be nonnegative")


def perturb(f: PLMap, spec: PerturbSpec) -> PLMap:
    """A map g with ||g - f|| <= delta in the run's norm, exactly.

    Each vertex offset is k/D times `scale`, for D = spec.denominator and
    seeded integers k in [-D, D]; `scale` is delta for linf and delta/n
    for l1 and l2 (the crude factor 1/n suffices).  The bound is verified
    exactly on every vertex's integers: max|k|·scale <= D·delta (linf),
    Σ|k|·scale <= D·delta (l1) and Σk²·scale² <= D²·delta² (l2).  g keeps
    records: a/d moves to (a·L/d + k·p·L/q) / L, L = lcm(d, q), reduced.
    """
    sampler = RationalSampler(spec.seed, spec.denominator)
    den, delta = spec.denominator, Fraction(spec.delta)
    scale = delta if f.norm == "linf" else delta / f.n
    power = 2 if f.norm == "l2" else 1
    # measure(k) * factor <= bound  <=>  measure(k) * scale^p <= (D delta)^p
    lhs, rhs = scale ** power, (den * delta) ** power
    factor, bound = lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator
    measure = _MEASURE[f.norm]
    p, q = (scale / den).as_integer_ratio()     # the step p/q = scale/D
    records = {}
    for v in f.complex.vertices:  # vertices are totally ordered
        ks = [sampler.integer(-den, den) for _ in range(f.n)]
        if measure(ks) * factor > bound:
            raise InputError("perturbation exceeded its bound")
        d, nums = f.scaled_values[v]
        common = lcm(d, q)
        moved = [x * (common // d) + k * p * (common // q) for x, k in zip(nums, ks)]
        g = gcd(common, *moved)
        records[v] = (common // g, [x // g for x in moved])
    return PLMap.from_records(f.complex, records, f.n, f.norm)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    seed: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "details": r.details}
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _pipeline_barcode(f: PLMap, mode: Mode, coefficients, seed: int):
    analysis = analyze(f, mode, seed)
    return field_barcode(analysis, coefficients), analysis.robust.radius


def check_stability(f: PLMap, mode: Mode, delta: Fraction, trials: int,
                    seed: int) -> Report:
    """Perturb `trials` times and verify the two stability inequalities:
    bottleneck(B_f, B_g) <= delta and |rho_f - rho_g| <= delta, with the
    barcodes over the mode's `DEFAULT_FIELD`."""
    if trials < 0:
        raise InputError("trials must be nonnegative")
    delta = Fraction(delta)
    if delta < 0:
        raise InputError("perturbation bound must be nonnegative")
    coefficients = DEFAULT_FIELD[mode]
    bound = ExactRadius.of(delta)
    base_bc, base_rho = _pipeline_barcode(f, mode, coefficients, child_seed(seed, 0))
    results = []
    failures = []
    for t in range(trials):
        trial_seed = child_seed(seed, t + 1)
        g = perturb(f, PerturbSpec(delta, trial_seed))
        try:
            g_bc, g_rho = _pipeline_barcode(g, mode, coefficients, trial_seed)
            dist = bottleneck(base_bc, g_bc)
            rho_gap = base_rho.gap(g_rho)
            checks = {
                "bottleneck_ok": dist.cmp(bound) <= 0,
                "radius_ok": rho_gap.cmp(bound) <= 0,
                "distinguished_ok": _distinguished_stable(base_bc, g_bc, bound),
            }
            if not all(checks.values()):
                failures.append({"trial": t, "seed": trial_seed, **checks})
        except MemoryError:
            raise
        except Exception as exc:  # pipeline errors count as failures
            failures.append({"trial": t, "seed": trial_seed, "error": repr(exc)})
    results.append(CheckResult(
        f"stability(delta={delta}, trials={trials})",
        not failures,
        {"failures": failures},
    ))
    return Report(seed, results)


def _distinguished_stable(left, right, bound) -> bool:
    """Distinguished bars either match within the tolerance or are both
    short enough to be unmatched (closed thresholds, exact)."""
    from .matching import interval_cost

    doubled = bound.scale(2)
    a, b = left.distinguished, right.distinguished
    if a is not None and b is not None:
        if interval_cost(a, b).cmp(bound) <= 0:
            return True
        return (a.length().cmp(doubled) <= 0 and b.length().cmp(doubled) <= 0)
    lone = a if a is not None else b
    return lone is None or lone.length().cmp(doubled) <= 0


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

ROTATE_90 = ((0, -1), (1, 0))
SCALES = (Fraction(2), Fraction(3), Fraction(7, 2))
RESAMPLES = 20
INDEPENDENCE = {Mode.CIRCLE: "ray independence", Mode.HOPF: "probe independence"}


def _scale_map(f: PLMap, c: Fraction) -> PLMap:
    return f.with_values({v: tuple(c * x for x in val) for v, val in f.values.items()})


def _rotate_map(f: PLMap) -> PLMap:
    return f.with_values({
        v: (sum(Fraction(r) * x for r, x in zip(ROTATE_90[0], val)),
            sum(Fraction(r) * x for r, x in zip(ROTATE_90[1], val)))
        for v, val in f.values.items()
    })


def _negate_map(f: PLMap) -> PLMap:
    return f.with_values({v: tuple(-x for x in val) for v, val in f.values.items()})


def check_invariances(f: PLMap, mode: Mode, seed: int) -> Report:
    """Scaling, rotation, negation, functoriality, probe/ray independence
    and the signs/hopf cross-check, each with exact assertions.

    Only the base map's module is assembled, over the mode's
    `DEFAULT_FIELD`, for the functoriality check; its barcode is compared
    with the barcodes of the scaled, rotated and negated maps, which
    `field_barcode` reads as the CLI does.  Those maps are filtered anew
    (and subdivided anew outside signs mode), as that is part of what their
    checks test; the probe/ray resamples share the base's filtration, which
    reads no seed, and each resample's class is compared in the base's
    groups."""
    coefficients = DEFAULT_FIELD[mode]
    results = []
    base = analyze(f, mode, seed)
    base_mod = assemble_pointed_module(base, coefficients)
    base_bc = barcode(base_mod, signs_robust_radius=base.robust.radius)

    results.append(_check_functoriality(base, base_mod))

    # Scaling equivariance: criticals, robust radius and bars all scale.
    ok = True
    detail = {}
    for c in SCALES:
        scaled = analyze(_scale_map(f, c), mode, seed)
        want = [r.scale(c) for r in base.criticals]
        if list(scaled.criticals) != want:
            ok, detail = False, {"scale": str(c), "what": "criticals"}
            break
        if scaled.robust.radius != base.robust.radius.scale(c):
            ok, detail = False, {"scale": str(c), "what": "robust radius"}
            break
        want = Counter({Interval(iv.birth.scale(c), iv.death.scale(c)): mult
                        for iv, mult in base_bc.bars})
        if field_barcode(scaled, coefficients).multiset() != want:
            ok, detail = False, {"scale": str(c), "what": "barcode"}
            break
    results.append(CheckResult("scaling equivariance", ok, detail))

    if f.n == 2:
        results.append(_check_rotation(f, mode, seed, coefficients, base, base_bc))

    if f.n == 1:
        negated = analyze(_negate_map(f), mode, seed)
        ok = (negated.robust.radius == base.robust.radius
              and field_barcode(negated, coefficients).multiset() == base_bc.multiset())
        results.append(CheckResult("negation invariance", ok))

    if f.n == 1 and f.complex.dim <= 1:
        hopf = analyze(f, Mode.HOPF, seed)
        ok = hopf.robust.radius == base.robust.radius
        results.append(CheckResult("signs/hopf cross-check", ok))

    name = INDEPENDENCE.get(mode)
    if name is not None:
        ok = True
        for i in range(RESAMPLES):
            other = _analyze_filtered(f, base.filtration, mode, child_seed(seed, 1000 + i))
            if not all(a.same_class(b) for a, b in zip(base.levels, other.levels)):
                ok = False
        results.append(CheckResult(name, ok, {"resamples": RESAMPLES}))

    return Report(seed, results)


def _check_rotation(f: PLMap, mode: Mode, seed: int, coefficients,
                    base: Analysis, base_bc) -> CheckResult:
    """A signed permutation of the target keeps |f|, so the barcode and the
    robust radius are unchanged.  The subdivision, and with it the critical
    set, may differ, so nothing is compared sample by sample; equal bar
    multisets give equal dims at every r."""
    rotated = analyze(_rotate_map(f), mode, seed)
    rbc = field_barcode(rotated, coefficients)
    ok = (rbc.multiset() == base_bc.multiset()
          and rotated.robust.radius == base.robust.radius
          and (rbc.distinguished is None) == (base_bc.distinguished is None))
    return CheckResult("rotation invariance", ok)


def _check_functoriality(analysis: Analysis, module) -> CheckResult:
    """Composites of consecutive transitions equal the direct maps.

    At the integral level equality holds as maps (columns agree modulo the
    target relations); after field reduction the canonical quotient
    coordinates make the matrix equality literal.
    """
    char = module.char
    ok = True
    levels = analysis.levels
    if char is not None:
        quotients = [level.group.tensor(char) for level in levels]
    for i in range(len(levels) - 2):
        direct = levels[i].transition(levels[i + 2])
        composed = mat_mul(analysis.transitions[i + 1], analysis.transitions[i])
        if not _matrices_equal_as_maps(levels[i + 2].group, direct, composed):
            ok = False
        if char is not None:
            fm_direct = quotients[i].induced_matrix(direct, quotients[i + 2])
            fm_comp = field_mat_mul(
                to_field_matrix(module.transitions[i + 1], char),
                to_field_matrix(module.transitions[i], char),
                char,
            )
            if fm_direct != fm_comp:
                ok = False
    return CheckResult("functoriality of transitions", ok)


def _matrices_equal_as_maps(group, m1, m2) -> bool:
    """Column-wise equality of two integral matrices as maps into `group`
    (equality of classes, i.e. modulo the target relations)."""
    if len(m1) != len(m2):
        return False
    cols = len(m1[0]) if m1 else 0
    if m1 and len(m2[0]) != cols:
        return False
    for j in range(cols):
        a = [m1[i][j] for i in range(len(m1))]
        b = [m2[i][j] for i in range(len(m2))]
        if not group.classes_equal(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# exactness regressions
# ---------------------------------------------------------------------------

def exactness_checks(f: PLMap, mode: Mode, seed: int) -> Report:
    """d^2 = 0, Im(delta) inside ker(j*) with equal rational ranks, and
    universal-coefficient consistency for F_2, F_3, F_5 and Q, on the
    cochain complexes of X, of every level A and of every pair (X, A).
    X is the complex the analysis filtered: the input complex in signs
    mode, its subdivision otherwise."""
    analysis = analyze(f, mode, seed)
    ccs = _all_cochain_complexes(analysis)
    dim = analysis.f.complex.dim
    # H^q(cc; Z) once per complex and degree, for the delta and UCT checks.
    integral = cache(integral_cohomology)
    results = [
        _check_d_squared(ccs, dim),
        _check_delta_kernel(ccs, analysis.f.n, integral),
        _check_uct(ccs, analysis.filtration, integral),
    ]
    return Report(seed, results)


def _all_cochain_complexes(analysis: Analysis) -> list[CochainComplex]:
    """X, then A and (X, A) for every level A in order, each built once."""
    space = analysis.f.complex
    ccs = [CochainComplex(space)]
    for level in analysis.filtration.levels:
        ccs.append(CochainComplex(level))
        ccs.append(CochainComplex(space, level))
    return ccs


def _check_d_squared(ccs: list[CochainComplex], dim: int) -> CheckResult:
    """d_{q+1} applied to every nonzero column of d_q is zero."""
    ok = all(not coboundary_of(cc.columns(q + 1), col)
             for cc in ccs for q in range(dim + 1) for col in cc.columns(q).values())
    return CheckResult("d^2 = 0", ok)


def _check_delta_kernel(ccs: list[CochainComplex], n: int, integral) -> CheckResult:
    """Im(delta) lands in ker(j*) and has the same rational rank.

    Membership is integral: j* of every delta class is a zero class of
    H^n(X).  The ranks are over Q, each read off a `FieldEchelon` that holds
    a group's relations: rank im delta is the rank the delta classes add to
    those of H^n(X, A) (`_kernel_rank` gives rank ker j*)."""
    ambient_cc = ccs[0]
    ambient_hn = integral(ambient_cc, n)
    ambient_relations = _echelon(map(_sparse, ambient_hn.group.relations))
    ok = True
    for sub_cc, rel_cc in zip(ccs[1::2], ccs[2::2]):
        sub_h = integral(sub_cc, n - 1)
        rel_h = integral(rel_cc, n)
        jstar = dict(enumerate(map(_sparse, induced_columns(
            rel_h, ambient_hn, restriction_transfer(rel_cc, ambient_cc, n)))))
        relations = _echelon(map(_sparse, rel_h.group.relations))
        # Read before the delta classes join the relations' echelon.
        kernel_rank = _kernel_rank(rel_h.gens, relations, jstar, ambient_relations)
        image_rank = 0
        for g in range(sub_h.gens):
            rep = sub_h.represent([1 if i == g else 0 for i in range(sub_h.gens)])
            delta_cochain = connecting_delta(
                ambient_cc, sub_cc, rel_cc, sub_cc.cochain(rep, n - 1), n - 1
            )
            coords = _sparse(rel_h.coords(rel_cc.vector(delta_cochain, n)))
            image = coboundary_of(jstar, coords)
            if not ambient_hn.group.is_zero_class(
                    [image.get(i, 0) for i in range(ambient_hn.gens)]):
                ok = False
            image_rank += relations.insert(coords) is not None
        if image_rank != kernel_rank:
            ok = False
    return CheckResult("im(delta) = ker(j*) (rational ranks)", ok)


def _echelon(columns) -> FieldEchelon:
    """One echelon over Q holding the given sparse columns."""
    echelon = FieldEchelon(0)
    for col in columns:
        echelon.insert(col)
    return echelon


def _kernel_rank(gens: int, relations: FieldEchelon, jstar: dict,
                 ambient_relations: FieldEchelon) -> int:
    """rank ker j* over Q: the free rank of H^n(X, A), its generators less
    its relations' rank, minus rank j*, the rank that the images of the
    generators add to the relations of H^n(X)."""
    images = ambient_relations.copy()
    rank = sum(images.insert(col) is not None for col in jstar.values())
    return gens - len(relations.pivots) - rank


def _check_uct(ccs: list[CochainComplex], filtration: Filtration, integral) -> CheckResult:
    """Field dimensions match the prediction from integral cohomology."""
    space = filtration.f.complex
    ok = True
    for p in (2, 3, 5, 0):
        dims = filtration_field_dims(space, filtration.entry, filtration.level_count(), p)
        for cc, cc_dims in zip(ccs, dims, strict=True):
            for q, got in enumerate(cc_dims):
                here = integral(cc, q)
                predicted = here.free_rank
                if p:
                    above = integral(cc, q + 1)
                    predicted += (sum(1 for d in here.torsion if d % p == 0)
                                  + sum(1 for d in above.torsion if d % p == 0))
                if got != predicted:
                    ok = False
    return CheckResult("universal coefficients", ok)
