"""Exact max-plus machinery on metric graphs.

Scalars, slope germs, and tropical polynomials; curves with points at
infinity and parallel-ray classes; piecewise-linear rational functions
with chip firing and divisors; morphisms, weights, and localization;
realizations into Q^n with balancing checks and plane intersections.

``__all__`` names what a caller builds, calls or catches; a type that a caller
only receives (a point, a subgraph, a report) is reached through its module.
"""

from .complexes import PolyComplex1D, check_balanced, intersect
from .curve import INF, Curve, canonical_model, disjoint_union
from .errors import FileFormatError, NonTransversalError, TropError
from .gluing import glue, glue_function
from .hypersurface import plane_hypersurface
from .morphism import (Morphism, compose, germ_bump, localization_surjectivity, localize, pullback,
                       validate_morphism, weight_check, weight_from_generators,
                       weighted_local_image)
from .plfunction import (Divisor, PLFunction, chip_fire, disconnection_witness, extend,
                         is_harmonic_at, module_degree, principal_divisor, pseudodirect_tuple,
                         rd_contains, restrict, restrict_whole, split_components,
                         witness_conditions)
from .realization import (bezout_check, check_realization, curve_from_complex,
                          fit_tropical_polynomial, harmonic_balance_report, realize)
from .semifield import NEG_INF, UNIT, Germ, TropPoly, TropValue, germ_generator_report, integer, rat
from .subgraph import Embedding, make_subgraph, point_subgraph, whole_subgraph

__all__ = [
    "TropError", "FileFormatError", "NonTransversalError", "TropValue", "NEG_INF", "UNIT", "Germ",
    "TropPoly", "rat", "integer", "germ_generator_report", "Curve", "INF", "canonical_model",
    "disjoint_union", "make_subgraph", "whole_subgraph", "point_subgraph", "Embedding", "glue",
    "glue_function", "PLFunction", "Divisor", "principal_divisor", "chip_fire", "is_harmonic_at",
    "module_degree", "restrict", "restrict_whole", "extend", "split_components",
    "pseudodirect_tuple", "rd_contains", "witness_conditions", "disconnection_witness", "Morphism",
    "validate_morphism", "pullback", "compose", "weight_check", "weight_from_generators",
    "weighted_local_image", "germ_bump", "localize", "localization_surjectivity", "realize",
    "check_realization", "harmonic_balance_report", "curve_from_complex",
    "fit_tropical_polynomial", "bezout_check", "PolyComplex1D", "check_balanced", "intersect",
    "plane_hypersurface",
]
