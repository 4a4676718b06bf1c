"""Fibration structure of diagonal mixed polynomials and numerical
transversality of real polynomial maps."""

__version__ = "0.1.0"

from .fiber import (FiberComparison, FiberSample, NewtonResult,
                    fiber_compare, inflate_to_sphere, newton_to_fiber, phase,
                    rplus_flow, sample_fiber)
from .mixed import (ComplexRational, DiagonalMixedPolynomial, MixedTerm,
                    complex_to_reals, reals_to_complex)
from .parsing import (ParseError, parse_mixed, parse_real_map, render_mixed,
                      render_real_map)
from .realpoly import RealPolynomialMap
from .structure import (ColinearityClass, CriticalIndexPartition,
                        CriticalSetDescription, CriticalSubspace,
                        DiscriminantComponent, DiscriminantGeometry,
                        FibrationVerdict, RadialWeights, SpecialFamilyForm,
                        StructureReport, VerdictKind, analyze,
                        colinearity_classes, critical_indices, critical_set,
                        discriminant, fibration_verdict, radial_weights,
                        sample_critical_subspace, sigma_cap_V_trivial,
                        special_family_form)
from .transversality import (ClaimCheckResult, LocusSearchResult,
                             TangencyWitness, TransversalityReport,
                             TransversalityVerdict, dependence_measure,
                             falsify_transversality, search_tangency_locus,
                             special_family_claim_check, special_family_minor,
                             tangency_matrix, tangency_minors_exact)

__all__ = [name for name in dir() if not name.startswith("_")]
