"""Potential theory on the log-torus for L_rho = Laplace + 2*rho*d/dx + rho^2.

Library layout:

  torus        grids, shape language, rasterized domains, spiral classes
  operators    discrete operators, sparse LU solves, harmonic measure,
               covering-window lifts
  pencil       quadratic eigenvalue problem, critical value, symmetries
  martin       growth estimators on the lift (five independent routes)
  fundsol      whole-torus fundamental solutions and potentials
  subfunc      subfunction certificates, Green function, Dirichlet
               problem, Riesz decomposition, sweeping, 1-D indicators
  subminorant  obstacle-type maximal subminorants, lambda, existence
               and minimality criteria
  oracles      closed-form strip/sector references
  verify       the acceptance suite
  fieldio      CSV import/export
  cli          batch front end
"""

from .torus import (TorusSpec, Grid, GridField, DomainMask, SpiralClass,
                    Strip, Band, Rect, Disc, Tube, Polygon, ShapeUnion,
                    ShapeDifference, build_domain, classify_spiral,
                    components, reflect_mask, translate_mask,
                    mask_from_inside, parse_shape_lines)
from .operators import (LogWindow, assemble, lift_window,
                        harmonic_measure, harmonic_measure_field)
from .pencil import (SpectrumResult, spectrum, rho_min,
                     check_spectrum_symmetries, check_monotonicity,
                     check_shrinking_limit, matsaev_probe)
from .martin import (MartinApprox, RhoEstimate, martin_function,
                     rho_from_growth, rho_from_hm_decay, rho_from_modulus,
                     rho_from_extremal, beta_functional, rho_estimates,
                     consistency_table)
from .fundsol import (GridMeasure, fourier_coefficient, fundsol_fourier,
                      fundsol_weierstrass, fundsol_generalized,
                      discrete_kernel, potential, representation_check)
from .subfunc import (SubfunctionCertificate, is_subfunction, lift_check,
                      mollify, green_lrho, dirichlet_lrho,
                      dirichlet_lrho_monotone, riesz_decompose, sweep,
                      TrigIndicator, tc_majorant,
                      fundamental_relation_residual)
from .subminorant import (SubminorantResult, maximal_subminorant,
                          LambdaValue, lambda_value, existence_test,
                          integral_condition, minimality_test)

__version__ = "0.1.0"
