"""Fibration structure of diagonal mixed polynomials and numerical
transversality of real polynomial maps."""

__version__ = "0.1.0"

from .fiber import fiber_compare, inflate_to_sphere, phase, rplus_flow, sample_fiber
from .mixed import (ComplexRational, DiagonalMixedPolynomial, MixedTerm,
                    complex_to_reals, reals_to_complex)
from .parsing import (ParseError, parse_mixed, parse_real_map, render_mixed,
                      render_real_map)
from .realpoly import RealPolynomialMap
from .structure import (DiscriminantComponent, RadialWeights, VerdictKind, analyze,
                        colinearity_classes, critical_indices, radial_weights,
                        special_family_form)
from .transversality import (TransversalityVerdict, falsify_transversality,
                             search_tangency_locus, special_family_claim_check,
                             special_family_minor, tangency_minors_exact)
