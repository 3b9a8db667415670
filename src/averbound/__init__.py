"""Certified error bounds for the one-frequency averaging method.

Given a perturbed system dI/dt = eps*f(I, theta), dtheta/dt = omega(I) +
eps*g(I, theta), this package computes a function n(tau) on the slow time
tau = eps*t with the guarantee |I(t) - J(eps*t)| <= eps * n(eps*t), where J
solves the averaged system.  The bound comes from slow-time differential
equations only, so it costs a factor ~eps less than integrating the
perturbed system; a direct fast-time run is included for validation.
"""
from .model import (AuxiliaryBundle, BoundBundle, SystemSpec, frobenius,
                    growth_value, offset_value)
from .ode import IvpProblem, Status, Trajectory, integrate
from .estimator import (ContractionWindow, EstimatorStatus,
                        EstimatorTrajectory, ViolationKind, auto_window,
                        find_fixed_point, run_averaged, run_estimator)
from .direct import DirectTrajectory, envelope, run_direct
from .examples import (ExampleDefinition, FigurePreset, figure_ids,
                       figure_preset, make_action_freq, make_euler_top,
                       make_example, make_resonant, make_vdp, register_system)
from .validation import (ValidationReport, analytic_crosscheck,
                         verify_bound_domination, verify_headline_bound,
                         verify_identities, verify_integral_identity)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryBundle", "BoundBundle", "SystemSpec",
    "frobenius", "growth_value", "offset_value",
    "IvpProblem", "Status", "Trajectory", "integrate",
    "ContractionWindow", "EstimatorStatus", "EstimatorTrajectory",
    "ViolationKind", "analytic_crosscheck", "auto_window",
    "find_fixed_point", "run_averaged", "run_estimator",
    "DirectTrajectory", "envelope", "run_direct",
    "ExampleDefinition", "FigurePreset", "figure_ids",
    "figure_preset", "make_action_freq", "make_euler_top", "make_example",
    "make_resonant", "make_vdp", "register_system",
    "ValidationReport", "verify_bound_domination", "verify_headline_bound",
    "verify_identities", "verify_integral_identity",
    "__version__",
]
