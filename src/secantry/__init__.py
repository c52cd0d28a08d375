"""secantry: exact randomized secant-variety analysis over prime fields.

Build projective varieties from composable constructors, sample points and
tangent frames on their affine cones over random 62-bit prime fields, and
measure secant dimensions, defects, tangential projections and degree-2
Hilbert functions - all with exact arithmetic, cross-checked under two
independent primes.
"""

from .catalog import (CatalogEntry, Expected, NotConstructible, VerifyResult,
                      build_family, verify_all, verify_family)
from .hilbert import (HilbertReport, MinimalDegreeViolated, castelnuovo_bound,
                      check_quadric_bounds, hilbert2, hilbert_report)
from .linalg import (PrimeContext, derive_rng, is_prime_u64, kernel_basis,
                     make_contexts, random_prime, rank, row_basis)
from .mpoly import MPoly, PolyMap, parse_poly, poly_str, random_poly
from .terracini import (ContactShape, SecantReport, TangentialReport,
                        contact_shape, expected_secant_dim, gauss_fiber_dim,
                        min_defective_scan, secant_dim, tangential_projection)
from .variety import (CenterContainsVariety, NoRootFound, NotParametric,
                      PointFrame, SampleExhausted, VarietySpec, center_in_span,
                      center_on_points, cone_over, cone_section, fibered_join,
                      hypersurface, join_linear, loads_spec, dumps_spec,
                      on_quadric, parametric, project_from, projective_space,
                      random_center, rational_normal_curve, ruled_join, scroll,
                      segre_pair, span_dim, spec_hash, veronese)

__version__ = "0.1.0"
