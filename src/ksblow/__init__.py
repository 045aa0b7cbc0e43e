"""Desk-scale numerical laboratory for immediate blow-up in the radially
symmetric parabolic-elliptic Keller-Segel system with singular external
signal production.

The package solves the mass-function formulation of the system on a graded
mesh with cutoff regularization, certifies the comparison-test-function
inequalities numerically, and detects the blow-up mechanism through its
indicators (sup W/s^beta, Lipschitz estimates, origin atoms, Riccati
comparison).
"""

from .analysis import (BlowupReport, BlowupSelection, IntegralBoundReport,
                       OdeMarginReport, RiccatiSolution, TestFunction,
                       YFunctionalReport, blowup_indicator, build_testfunction,
                       integral_phi_linear, integral_phi_total, phi_eval, riccati,
                       select_blowup_params, verify_integral_bound,
                       verify_ode_inequality, y_functional)
from .errors import (ConfigError, KsblowError, NumericalError, ParameterError,
                     SelectionError, SolverError)
from .params import (SystemParams, TestFnParams, default_testfn_params,
                     delta_lower_bound, delta_quadratic, f0_threshold, h_value,
                     sphere_area, validate)
from .signal import SignalProfile, chi_eval
from .solver import (ComparisonReport, Mesh, SolverConfig, SweepReport, Trajectory,
                     build_mesh, comparison_check, measured_c_sub, proper_sweep,
                     solve_regularized, subsolution_candidate)
from .transform import MassFunction, estimate_origin_limit, w0_from_density, write_csv
from .weakform import (BumpFactor, ResidualReport, StepDownFactor, TestField,
                       field_library, weak_residual)

__version__ = "0.1.0"
