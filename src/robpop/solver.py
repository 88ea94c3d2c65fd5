"""Fully implicit backward marching for the robust-control HJBI equation.

One backward step solves, by policy iteration, the discrete equation

    phi/dt - D phi_xx - b(controls) phi_x + (nu1 th1 + nu2 th2) phi
        = phi_next/dt + c(controls) + nu1 th1 (W1 phi_lag) + nu2 th2 (W2 phi_lag)

where D = sigma^2 a^2 / 2, b = gamma1 - (gamma0+gamma1)x + (r(q) + sigma
lambda) a (`controlled_drift`), c is the running cost (`running_cost`), and
W1, W2 are the jump-expectation quadratures. Control extraction builds the
rows b and c once per iterate and the `ControlField` carries them to
assembly, to the next iterate's slope stencil and, through a recorded
`ControlTable`, to the Monte Carlo oracle. The drift is
discretized centrally wherever 2D/dx >= |b| and upwind along b otherwise, so
every assembled row is an M-matrix row. The nodes x = 0 and x = 1 take the
upwind row like any other node and no boundary condition is imposed: a
vanishes there, so D = 0 and the drift b(0) = gamma1 >= 0, b(1) = -gamma0 <= 0
points inward. Assembly checks the M-matrix structure of every row, the
couplings past both ends included. The jump expectations are lagged at
the current policy iterate, which keeps every linear solve tridiagonal; the
local parts nu theta phi stay implicit.

In the ergodic regime Phi(t, x) = w(x) + E (T - t) up to a vanishing error,
so once the per-node estimate of E has settled every further step only adds
E dt. The march then stops at that level t* and writes the rest of the
horizon as Phi(t*) + E (t* - t) (relative value iteration).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .grid import Mesh, TimeGrid
from .jump_ops import (N_QUAD, JumpQuadrature, apply_nonlocal,
                       build_jump_quadrature, entropy_penalty)
from .local_ops import lambda_field, q_candidates, q_field
from .model import ProblemSpec, validate_spec


# ergodic exit: the march stops once E_spread <= ERGODIC_EXIT_SPREAD *
# max(1, |E_mean|) has held for ERGODIC_EXIT_STEPS consecutive steps
ERGODIC_EXIT_SPREAD = 1e-10
ERGODIC_EXIT_STEPS = 10


class SchemeError(RuntimeError):
    """An assembled row violated the M-matrix structure or is not finite."""


class SingularSystemError(RuntimeError):
    """Tridiagonal elimination hit a zero pivot."""


class PolicyIterationError(RuntimeError):
    def __init__(self, message: str, residual: float, time_label: float):
        super().__init__(message)
        self.residual = residual
        self.time_label = time_label


# ---------------------------------------------------------------------------
# fields and reports
# ---------------------------------------------------------------------------

@dataclass
class ControlField:
    """Optimal controls at the nodes and the node rows they give: the drift
    b (`controlled_drift`) and the running cost c (`running_cost`)."""

    q_star: np.ndarray
    lambda_star: np.ndarray
    theta1_star: np.ndarray
    theta2_star: np.ndarray
    drift: np.ndarray
    cost: np.ndarray


@dataclass
class TridiagonalSystem:
    lower: np.ndarray   # subdiagonal, length n-1
    diag: np.ndarray    # length n
    upper: np.ndarray   # superdiagonal, length n-1
    rhs: np.ndarray


@dataclass
class ErgodicReport:
    E_mean: float
    E_spread: float


@dataclass
class Snapshot:
    time: float
    values: np.ndarray


@dataclass
class ControlTable:
    """Control fields of a solve (the Monte Carlo oracle's input).

    `levels[m]` holds time level m of `time_grid`, m < n_steps (the terminal
    level has none); the levels below an ergodic exit share step m*'s object.
    """

    time_grid: TimeGrid
    mesh: Mesh
    levels: list[ControlField]


@dataclass
class SolveResult:
    final_value: np.ndarray     # Phi(0, .) on the mesh nodes
    final_controls: ControlField
    ergodic: ErgodicReport
    iteration_stats: np.ndarray  # per marched level, m* .. n_steps - 1
    snapshots: list[Snapshot]
    exit_time: float            # t* = m* dt of the ergodic exit, or 0.0
    control_table: ControlTable | None = None


@dataclass(frozen=True)
class PolicyConfig:
    tol: float = 1e-9
    max_iter: int = 50

    def __post_init__(self):
        # written so that a NaN tolerance fails
        if not self.tol > 0.0:
            raise ValueError(f"policy tol must be > 0, got {self.tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"policy max_iter must be >= 1, got {self.max_iter}")


# ---------------------------------------------------------------------------
# discretized operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SchemeOperators:
    spec: ProblemSpec
    mesh: Mesh
    quad_down: JumpQuadrature
    quad_up: JumpQuadrature
    a_vals: np.ndarray
    f_vals: np.ndarray
    base_drift: np.ndarray      # gamma1 - (gamma0 + gamma1) x
    diffusion: np.ndarray       # sigma^2 a^2 / 2
    q_table: tuple              # (q_k, r(q_k), h(q_k)), see q_candidates
    first_drift: np.ndarray     # uncontrolled drift (q = 0, lambda = 0)


def controlled_drift(spec: ProblemSpec, base_drift: np.ndarray,
                     a: np.ndarray, r_of_q: np.ndarray,
                     lam: np.ndarray) -> np.ndarray:
    """The drift b = base + (r(q) + sigma lambda) a at the nodes."""
    return base_drift + (r_of_q + spec.sigma * lam) * a


def running_cost(spec: ProblemSpec, f: np.ndarray, h_of_q: np.ndarray,
                 lam: np.ndarray, th1: np.ndarray,
                 th2: np.ndarray) -> np.ndarray:
    """The running cost at the nodes: f + h(q) - lambda^2/(2 psi0)
    - sum_i (nu_i/psi_i) (theta_i ln theta_i + 1 - theta_i)."""
    return (f + h_of_q
            - lam ** 2 / (2.0 * spec.psi0)
            - (spec.nu1 / spec.psi1) * entropy_penalty(th1)
            - (spec.nu2 / spec.psi2) * entropy_penalty(th2))


def build_scheme(spec: ProblemSpec, mesh: Mesh,
                 n_quad: int = N_QUAD) -> SchemeOperators:
    x = mesh.nodes
    a_vals = np.asarray(spec.growth_a(x), dtype=float)
    base_drift = spec.gamma1 - (spec.gamma0 + spec.gamma1) * x
    r0 = float(np.asarray(spec.growth_rate_r(0.0), dtype=float))
    return SchemeOperators(
        spec=spec,
        mesh=mesh,
        quad_down=build_jump_quadrature(mesh, spec.jump_density_1, "down", n_quad),
        quad_up=build_jump_quadrature(mesh, spec.jump_density_2, "up", n_quad),
        a_vals=a_vals,
        f_vals=np.asarray(spec.disutility_f(x), dtype=float),
        base_drift=base_drift,
        diffusion=0.5 * spec.sigma ** 2 * a_vals ** 2,
        q_table=q_candidates(spec),
        first_drift=controlled_drift(spec, base_drift, a_vals, r0, 0.0),
    )


def _central_mask(ops: SchemeOperators, drift: np.ndarray) -> np.ndarray:
    central = 2.0 * ops.diffusion / ops.mesh.dx >= np.abs(drift)
    central[0] = False
    central[-1] = False
    return central


def _gradient(ops: SchemeOperators, phi: np.ndarray,
              drift: np.ndarray) -> np.ndarray:
    """Slope field using the same central/upwind stencil as the assembly."""
    dx = ops.mesh.dx
    fwd = np.empty_like(phi)
    bwd = np.empty_like(phi)
    diffs = np.diff(phi) / dx
    fwd[:-1] = diffs
    fwd[-1] = diffs[-1]
    bwd[1:] = diffs
    bwd[0] = diffs[0]
    cen = 0.5 * (fwd + bwd)
    return np.where(_central_mask(ops, drift), cen,
                    np.where(drift > 0.0, fwd, bwd))


def assemble_system(ops: SchemeOperators, dt: float, controls: ControlField,
                    phi_next: np.ndarray,
                    expectations: tuple[np.ndarray, np.ndarray]
                    ) -> TridiagonalSystem:
    """One implicit backward-Euler system at fixed controls.

    Reads the drift and running-cost rows the controls carry and takes the
    jump expectations (W1 phi, W2 phi) that control extraction computed at
    the lagged iterate phi, so it evaluates no spec coefficient and no
    quadrature. Checks every row.
    """
    spec = ops.spec
    dx = ops.mesh.dx
    drift = controls.drift
    th1 = controls.theta1_star
    th2 = controls.theta2_star

    central = _central_mask(ops, drift)
    Dxx = ops.diffusion / dx ** 2
    # full-length rows: row_low[0] and row_up[-1] couple past x = 0 and x = 1
    # and drop out of the system, but the M-matrix check still bounds them
    row_low = np.where(central, -(Dxx - drift / (2.0 * dx)),
                       -Dxx + np.minimum(drift, 0.0) / dx)
    row_up = np.where(central, -(Dxx + drift / (2.0 * dx)),
                      -Dxx - np.maximum(drift, 0.0) / dx)
    row_diag = np.where(central, 2.0 * Dxx, 2.0 * Dxx + np.abs(drift) / dx)
    diag = 1.0 / dt + spec.nu1 * th1 + spec.nu2 * th2 + row_diag

    slack = 1e-9 * max(float(np.max(diag)), 1.0)
    # written as "not all within bound" so that a NaN entry fails the check
    if not (np.all(row_low <= slack) and np.all(row_up <= slack)):
        raise SchemeError("positive off-diagonal entry in assembled system")
    if not (np.all(diag >= 1.0 / dt - slack)
            and np.all(diag >= np.abs(row_low) + np.abs(row_up) - slack)):
        raise SchemeError("assembled system lost diagonal dominance")

    w1, w2 = expectations
    rhs = (phi_next / dt + controls.cost
           + spec.nu1 * th1 * w1 + spec.nu2 * th2 * w2)
    return TridiagonalSystem(lower=row_low[1:], diag=diag, upper=row_up[:-1],
                             rhs=rhs)


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Solve the tridiagonal system by pivot-free elimination.

    Diagonal dominance of the scheme rows makes partial pivoting a no-op, so
    the LAPACK gtsv elimination reduces to the classical forward/backward
    Thomas sweep.
    """
    n = sys.diag.size
    if sys.lower.size != n - 1 or sys.upper.size != n - 1 or sys.rhs.size != n:
        raise ValueError("inconsistent tridiagonal system shapes")
    if n == 1:
        if sys.diag[0] == 0.0:
            raise SingularSystemError("zero pivot in 1x1 system")
        return sys.rhs / sys.diag
    _, _, _, x, info = lapack.dgtsv(sys.lower, sys.diag, sys.upper, sys.rhs)
    if info > 0:
        raise SingularSystemError(f"zero pivot at row {info - 1}")
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to tridiagonal solve")
    return x


# ---------------------------------------------------------------------------
# policy iteration and the time march
# ---------------------------------------------------------------------------

def _extract_controls(ops: SchemeOperators, phi: np.ndarray,
                      stencil_drift: np.ndarray):
    """Pointwise optimizers at the current iterate.

    Returns (controls, expectations) as `assemble_system` takes them; the
    controls carry their drift and running-cost rows. The jump expectations
    also give theta*, and the drift also picks the next iterate's slope
    stencil.
    """
    spec = ops.spec
    p = _gradient(ops, phi, stencil_drift)
    lam, _ = lambda_field(spec, ops.a_vals, p)
    q, _, r_q, h_q = q_field(ops.q_table, ops.a_vals, p)
    _, delta1, th1 = apply_nonlocal(ops.quad_down, phi, spec.nu1, spec.psi1,
                                    spec.theta_max)
    _, delta2, th2 = apply_nonlocal(ops.quad_up, phi, spec.nu2, spec.psi2,
                                    spec.theta_max)
    controls = ControlField(
        q_star=q, lambda_star=lam, theta1_star=th1, theta2_star=th2,
        drift=controlled_drift(spec, ops.base_drift, ops.a_vals, r_q, lam),
        cost=running_cost(spec, ops.f_vals, h_q, lam, th1, th2))
    return controls, (phi - delta1, phi - delta2)


def step_backward(ops: SchemeOperators, dt: float, phi_next: np.ndarray,
                  t: float, policy: PolicyConfig = PolicyConfig()):
    """One implicit step from the slice phi_next at t + dt down to t.

    Policy iteration alternates control extraction on the current iterate
    with one tridiagonal solve until the slice stops moving in max norm.
    Returns (values, controls, n_iterations). A non-finite change stops the
    iteration at once; t only names the step in the error.
    """
    phi = phi_next
    drift = ops.first_drift     # first slope stencil: the uncontrolled drift

    change, iteration = np.inf, 0
    for iteration in range(1, policy.max_iter + 1):
        controls, w = _extract_controls(ops, phi, drift)
        drift = controls.drift
        sys = assemble_system(ops, dt, controls, phi_next, w)
        phi_new = thomas_solve(sys)
        change = float(np.max(np.abs(phi_new - phi)))
        phi = phi_new
        if change <= policy.tol or not math.isfinite(change):
            break
    if not change <= policy.tol:
        raise PolicyIterationError(
            f"policy iteration stalled at t={t:.6g} "
            f"(residual {change:.3e} after {iteration} iterations)",
            residual=change, time_label=t)

    # re-extract so the reported controls are consistent with the converged slice
    controls = _extract_controls(ops, phi, drift)[0]
    return phi, controls, iteration


def ergodic_estimate(earlier: np.ndarray, later: np.ndarray,
                     dt: float) -> ErgodicReport:
    """Backward-difference estimate of -dPhi/dt from the slices at t, t + dt."""
    if earlier.shape != later.shape:
        raise ValueError("ergodic estimate needs slices on the same mesh")
    per_node = (earlier - later) / dt
    mean = float(np.mean(per_node))
    spread = float(np.max(np.abs(per_node - mean)))
    return ErgodicReport(E_mean=mean, E_spread=spread)


def switching_points(q_field_values: np.ndarray, mesh: Mesh,
                     q_threshold: float = 0.5) -> list[tuple[float, float]]:
    """Maximal node intervals where the intervention exceeds the threshold."""
    mask = np.asarray(q_field_values) > q_threshold
    padded = np.concatenate(([False], mask, [False])).astype(int)
    edges = np.flatnonzero(np.diff(padded))
    starts, stops = edges[::2], edges[1::2]
    return [(float(mesh.nodes[i]), float(mesh.nodes[j - 1]))
            for i, j in zip(starts, stops)]


def solve_backward(spec: ProblemSpec, mesh: Mesh, time_grid: TimeGrid,
                   policy: PolicyConfig = PolicyConfig(),
                   snapshot_times: tuple[float, ...] = (),
                   n_quad: int = N_QUAD,
                   record_controls: bool = False,
                   validate: bool = True) -> SolveResult:
    """March the terminal condition Phi(T, .) = 0 back to t = 0.

    T is `spec.horizon`, and `time_grid` must end there. After each step the
    last two slices give the ergodic estimate of the effective Hamiltonian E.
    Once its per-node spread has settled (see ERGODIC_EXIT_SPREAD) at a level
    m* > 0, the march stops there: every level m < m* is Phi(m*) + E (m* - m)
    dt, holds the controls of step m*, and `final_controls` are those of step
    m*. The ergodic report always comes from the last two marched slices.
    `record_controls` keeps the control fields of every level (memory scales
    with n_steps; intended for short horizons, e.g. the Monte Carlo
    cross-check). `validate=False` admits deliberately degenerate
    configurations (such as zero growth everywhere) used as analytic checks.
    """
    if validate:
        violations = validate_spec(spec)
        if violations:
            raise ValueError("invalid problem spec:\n" + "\n".join(violations))
    if not time_grid.ends_at(spec.horizon):
        raise ValueError(f"time grid horizon {time_grid.horizon} differs from "
                         f"the spec horizon {spec.horizon}")
    ops = build_scheme(spec, mesh, n_quad=n_quad)
    dt = time_grid.dt
    n_steps = time_grid.n_steps

    snap_levels = {}
    for t in snapshot_times:
        snap_levels.setdefault(time_grid.level(t), float(t))

    phi = np.zeros(mesh.n_nodes)
    snapshots: list[Snapshot] = []
    if n_steps in snap_levels:
        snapshots.append(Snapshot(time=snap_levels[n_steps], values=phi))
    iteration_counts = np.zeros(n_steps, dtype=int)
    recorded: list[ControlField] = []
    settled_steps = 0
    for m in range(n_steps - 1, -1, -1):
        previous = phi
        phi, controls, iters = step_backward(ops, dt, phi, m * dt, policy)
        iteration_counts[m] = iters
        if record_controls:
            recorded.append(controls)
        if m in snap_levels:
            snapshots.append(Snapshot(time=snap_levels[m], values=phi))
        ergodic = ergodic_estimate(phi, previous, dt)
        bound = ERGODIC_EXIT_SPREAD * max(1.0, abs(ergodic.E_mean))
        # written as "within bound" so that a NaN spread never exits
        settled_steps = settled_steps + 1 if ergodic.E_spread <= bound else 0
        if settled_steps >= ERGODIC_EXIT_STEPS:
            break
    m_exit = m

    def unmarched(level: int) -> np.ndarray:
        return phi + ergodic.E_mean * (m_exit - level) * dt

    snapshots += [Snapshot(time=t, values=unmarched(level))
                  for level, t in snap_levels.items() if level < m_exit]
    final_value = unmarched(0) if m_exit else phi
    table = (ControlTable(time_grid=time_grid, mesh=mesh,
                          levels=[controls] * m_exit + recorded[::-1])
             if record_controls else None)
    snapshots.sort(key=lambda s: s.time)
    return SolveResult(final_value=final_value, final_controls=controls,
                       ergodic=ergodic,
                       iteration_stats=iteration_counts[m_exit:],
                       snapshots=snapshots, exit_time=m_exit * dt,
                       control_table=table)


# ---------------------------------------------------------------------------
# concurrent parameter sweeps
# ---------------------------------------------------------------------------

def _solve_job(args) -> SolveResult:
    spec, mesh, time_grid, policy, n_quad = args
    return solve_backward(spec, mesh, time_grid, policy=policy, n_quad=n_quad)


def solve_many(specs, mesh: Mesh, time_grid: TimeGrid,
               policy: PolicyConfig = PolicyConfig(),
               n_quad: int = N_QUAD, workers: int = 1) -> list[SolveResult]:
    """Independent solves, optionally dispatched over a process pool."""
    jobs = [(spec, mesh, time_grid, policy, n_quad) for spec in specs]
    if workers <= 1 or len(jobs) <= 1:
        return [_solve_job(job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(_solve_job, jobs))
