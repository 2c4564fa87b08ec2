"""Exact persistence analysis of robust zero sets of simplexwise-linear maps.

Given a map into R^n with rational vertex values on a finite simplicial
complex, the package computes, entirely in exact arithmetic, the critical
values of |f|, the pointed persistence module of the obstruction classes on
the superlevel complexes {|f| >= r}, pointed barcodes over a field, the
robust-zero radius, and pointed bottleneck distances, in the regimes where
the obstruction reduces to computable cohomology (n = 1, n = 2, dim X <= n).
"""

from .barcode import Interval, PointedBarcode, barcode, decompose_oracle
from .cohomology import (
    CochainComplex,
    class_coordinates,
    connecting_delta,
    kernel_subgroup,
    restriction_map,
)
from .complexes import (
    Complex,
    PLMap,
    Subcomplex,
    connected_components,
    full_subcomplex,
    star_subdivide,
)
from .errors import InputError, InternalError, ModeError, RZeroError
from .exact import ExactRadius, cmp_radius, cmp_radius_diff
from .filtration import CriticalSet, Filtration, build_filtration, critical_values, sample_radii
from .harness import PerturbSpec, check_invariances, check_stability, exactness_checks, perturb
from .matching import Matching, bottleneck, feasible_matching
from .modes import Mode, degree_cocycle, sign_vector, winding_cocycle
from .normmin import NormMin, simplex_norm_min
from .pipeline import (
    Analysis,
    PointedModule,
    RobustResult,
    analyze,
    assemble_pointed_module,
    robust_radius,
)

__version__ = "0.1.0"
