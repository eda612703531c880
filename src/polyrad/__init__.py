"""polyrad: verification and computation toolkit for the weighted radial
polyharmonic calculus.

The package verifies, symbolically and numerically, the structure around the
weighted radial Laplacian Delta_alpha u = u'' + (alpha/r) u':

- :mod:`polyrad.radial` - exact term algebra closed under Delta_alpha, d/dr;
- :mod:`polyrad.coefficients` - the expansion coefficient system and its
  induction identities;
- :mod:`polyrad.constants` - gamma-function machinery and closed-form best
  embedding constants;
- :mod:`polyrad.functionals` - weighted norms, Rayleigh quotients and the
  extremal dilation family;
- :mod:`polyrad.iteration` - the inverse-operator regularity chain on
  geometric grids;
- :mod:`polyrad.ode` - the singular initial value problem and its
  classification against the dilation family;
- :mod:`polyrad.suite` / :mod:`polyrad.cli` - the acceptance suite and the
  command-line front end.
"""

from .coefficients import (
    CoeffTable,
    d_factor,
    g_row,
    h_row,
    k_factor,
    p_constant,
    verify_expansion,
)
from .constants import (
    BestConstantResult,
    best_constant,
    beta_integral,
    critical_exponent,
)
from .functionals import (
    NormReport,
    RadialProfile,
    bliss_profile,
    gradient_seminorm,
    improper_integral,
    rayleigh_quotient,
    weighted_lebesgue_norm,
)
from .iteration import (
    IterationChain,
    RadialGrid,
    decay_report,
    fixed_point_residual,
    iterate_chain,
    origin_behavior,
    verify_inverse,
)
from .ode import (
    IVPSpec,
    SolveResult,
    classification_check,
    family_state,
    integrate,
    match_epsilon,
    series_start,
)
from .radial import (
    AlphaPoly,
    ExponentAffine,
    RadialExpr,
    RadialTerm,
    abc_coefficients,
    apply_laplacian,
    apply_polyharmonic,
    differentiate,
    nabla_m,
)

__version__ = "0.1.0"
