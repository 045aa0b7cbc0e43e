"""Desk-scale numerical laboratory for immediate blow-up in the radially
symmetric parabolic-elliptic Keller-Segel system with singular external
signal production.

The package solves the mass-function formulation of the system on a graded
mesh with cutoff regularization, certifies the comparison-test-function
inequalities numerically, and detects the blow-up mechanism through its
indicators (sup W/s^beta, Lipschitz estimates, Riccati comparison).
"""

from .analysis import (BlowupReport, BlowupSelection, IntegralBoundReport,
                       OdeMarginReport, RiccatiSolution, TestFunction,
                       YFunctionalReport, blowup_indicator, build_testfunction,
                       integral_phi_linear, integral_phi_total, riccati,
                       select_blowup_params, verify_integral_bound,
                       verify_ode_inequality, y_functional)
from .config import SolverSection
from .errors import ConfigError, KsblowError, ParameterError, SelectionError, SolverError
from .params import (SystemParams, default_delta, delta_lower_bound, delta_quadratic,
                     f0_threshold, h_value, validate, validate_testfn)
from .signal import SignalProfile, chi_eval
from .solver import (SweepReport, Trajectory, build_mesh, measured_c_sub, proper_sweep,
                     solve_regularized)
from .transform import w0_from_density, write_csv
from .weakform import (BumpFactor, ResidualReport, StepDownFactor, TestField,
                       field_library, weak_residual)

__version__ = "0.1.0"
