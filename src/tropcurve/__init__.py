"""Exact max-plus machinery on metric graphs.

Scalars, slope germs, and tropical polynomials; curves with points at
infinity and parallel-ray classes; piecewise-linear rational functions
with chip firing and divisors; morphisms, weights, and localization;
realizations into Q^n with balancing checks and plane intersections.
"""

from .complexes import (BalanceReport, IntersectionPoint, PolyComplex1D, check_balanced,
                        intersect)
from .curve import INF, Curve, PointRef, canonical_model, disjoint_union
from .errors import FileFormatError, NonTransversalError, TropError
from .glue import GlueResult, glue, glue_function
from .hypersurface import plane_hypersurface
from .morphism import (LatticeReport, Localization, Morphism, compose, germ_bump, localize,
                       localization_surjectivity, pullback, validate_morphism, weight_check,
                       weight_from_generators, weighted_local_image)
from .plfunction import (Divisor, PLFunction, chip_fire, disconnection_witness, extend,
                         is_harmonic_at, module_degree, principal_divisor, pseudodirect_tuple,
                         rd_contains, restrict, restrict_whole, split_components,
                         witness_conditions)
from .realization import (BezoutReport, RealizationMap, bezout_check, check_realization,
                          curve_from_complex, fit_tropical_polynomial,
                          harmonic_balance_report, realize)
from .semifield import (NEG_INF, UNIT, Germ, TropPoly, TropValue, germ_generator_report, integer,
                        rat)
from .subgraph import Embedding, Subgraph, make_subgraph, point_subgraph, whole_subgraph

__all__ = [name for name in dir() if not name.startswith("_")]
