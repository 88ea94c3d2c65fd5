"""Robust control of bounded jump-diffusion population dynamics.

Solves the worst-case (ambiguity-distorted) dynamic-programming equation with
a monotone implicit finite-difference scheme, extracts the optimal
intervention and distortion fields, estimates the long-run effective
Hamiltonian, and cross-validates values against direct Monte Carlo simulation
of the distorted dynamics.
"""

from .grid import Mesh, TimeGrid, build_mesh, build_time_grid
from .jump_ops import (JumpQuadrature, apply_expectation, apply_nonlocal,
                       build_jump_quadrature, entropy_penalty)
from .local_ops import lambda_field, q_field
from .mc import (JumpSampler, PathBatch, SimConfig, ValueEstimate,
                 make_jump_sampler, simulate_paths, simulate_value)
from .model import (JumpDensity, ProblemSpec, TabulatedFunction,
                    make_paper_spec, tabulated, tabulated_density,
                    uniform_density, validate_spec)
from .solver import (ControlField, ControlTable, ErgodicReport, PolicyConfig,
                     PolicyIterationError, SchemeError, SingularSystemError,
                     Snapshot, SolveResult, TridiagonalSystem,
                     assemble_system, build_scheme, ergodic_estimate,
                     solve_backward, solve_many, step_backward,
                     switching_points, thomas_solve)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "TimeGrid", "build_mesh", "build_time_grid",
    "JumpQuadrature", "apply_expectation", "apply_nonlocal",
    "build_jump_quadrature", "entropy_penalty",
    "lambda_field", "q_field",
    "JumpSampler", "PathBatch", "SimConfig", "ValueEstimate",
    "make_jump_sampler", "simulate_paths", "simulate_value",
    "JumpDensity", "ProblemSpec", "TabulatedFunction", "make_paper_spec",
    "tabulated", "tabulated_density", "uniform_density", "validate_spec",
    "ControlField", "ControlTable", "ErgodicReport", "PolicyConfig",
    "PolicyIterationError", "SchemeError", "SingularSystemError", "Snapshot",
    "SolveResult", "TridiagonalSystem", "assemble_system",
    "build_scheme", "ergodic_estimate", "solve_backward", "solve_many",
    "step_backward", "switching_points", "thomas_solve",
]
