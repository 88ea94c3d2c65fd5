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

The step works on a batch of k specs that share the mesh, the time grid and
both jump quadratures: each node row is a (k, n) array, one row per spec.
One policy iteration serves all k, with one mat-vec per spec with the one
stacked W (W1's rows, then W2's) and one tridiagonal solve of the k systems
laid end to end. A spec leaves the iteration once its slice has converged
and leaves the march at its ergodic exit, so every result is bitwise what
solving its spec alone gives; `solve_backward(spec)` is the batch of one.

In the ergodic regime Phi(t, x) = w(x) + E (T - t) up to a vanishing error,
so once the per-node estimate of E has settled every further step only adds
E dt. The march then stops at that level t* and writes the rest of the
horizon as Phi(t*) + E (t* - t) (relative value iteration). The controls are
extracted at the converged slices only where they are used: after every step
when they are recorded, else once, at the exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp
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

    def __init__(self, message: str, spec_index: int):
        super().__init__(message)
        self.spec_index = spec_index


class SingularSystemError(RuntimeError):
    """Tridiagonal elimination hit a zero pivot."""


class PolicyIterationError(RuntimeError):
    def __init__(self, message: str, residual: float, time_label: float,
                 spec_index: int):
        super().__init__(message)
        self.residual = residual
        self.time_label = time_label
        self.spec_index = spec_index


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
    """The discretized operators of a batch of k specs on one mesh.

    Every per-spec entry is stacked over the specs on its second-to-last
    axis, whether or not the specs agree on it: a node row is (k, n), a
    scalar a (k, 1) column, a scalar per jump kind (2, k, 1) and a q
    candidate table (k, m) per part, so `subset` slices them all alike. The
    rows the step reads on every iterate are built here, once per solve.
    The one jump matrix `jumps` is not stacked: every spec's field gets its
    own mat-vec with it, and every subset shares it.
    """

    index: tuple[int, ...]      # each spec's position in the batch built
    batch_size: int             # the number of specs in the batch built
    mesh: Mesh
    jumps: JumpQuadrature       # W1's rows, then W2's: (2n, n)
    a_vals: np.ndarray
    f_vals: np.ndarray
    base_drift: np.ndarray      # gamma1 - (gamma0 + gamma1) x
    q_table: tuple              # (q_k, r(q_k), h(q_k)), see q_field
    first_stencil: tuple        # (drift, central mask) at q = 0, lambda = 0
    lambda_scale: np.ndarray    # psi0 sigma a
    sigma: np.ndarray
    psi0: np.ndarray
    lambda_max: np.ndarray
    theta_max: np.ndarray
    nu: np.ndarray              # (nu1, nu2) per jump kind
    psi: np.ndarray             # (psi1, psi2)
    entropy_weight: np.ndarray  # (nu1 / psi1, nu2 / psi2)
    d_dx2: np.ndarray           # D / dx^2, with D = sigma^2 a^2 / 2
    neg_d_dx2: np.ndarray       # -D / dx^2
    two_d_dx2: np.ndarray       # 2 D / dx^2
    two_d_dx: np.ndarray        # 2 D / dx, the central-stencil bound on |b|

    def subset(self, positions) -> SchemeOperators:
        """The operators of the specs at `positions` of this batch."""
        return replace(self, index=tuple(self.index[p] for p in positions),
                       **{f.name: _take(getattr(self, f.name), positions)
                          for f in fields(self) if f.name not in _SHARED})


# the fields of SchemeOperators that are not stacked over the specs
_SHARED = ("index", "batch_size", "mesh", "jumps")


def _take(value, positions):
    """The rows at `positions` of a per-spec entry, a tuple entry by entry."""
    if isinstance(value, tuple):
        return tuple(v[..., positions, :] for v in value)
    return value[..., positions, :]


def _stacked(values) -> np.ndarray:
    """Per-spec scalars as a (k, 1) column, per-spec pairs of them (one per
    jump kind) as a (2, k, 1) stack."""
    return np.asarray(values, dtype=float).T[..., None]


def _q_tables(tables: list[tuple]) -> tuple:
    """The specs' candidate tables, one row per spec, shape (k, m); shorter
    tables repeat their last candidate, which never wins a tie."""
    m = max(len(t[0]) for t in tables)
    return tuple(np.stack([np.pad(part, (0, m - len(part)), mode="edge")
                           for part in parts]) for parts in zip(*tables))


def controlled_drift(sigma, base_drift: np.ndarray, a: np.ndarray,
                     r_of_q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The drift b = base + (r(q) + sigma lambda) a at the nodes."""
    return base_drift + (r_of_q + sigma * lam) * a


def running_cost(psi0, entropy_weight, f: np.ndarray, h_of_q: np.ndarray,
                 lam: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The running cost at the nodes: f + h(q) - lambda^2/(2 psi0)
    - sum_i (nu_i/psi_i) (theta_i ln theta_i + 1 - theta_i).

    `theta` stacks theta1 and theta2 on its first axis, and
    `entropy_weight` (nu1/psi1, nu2/psi2) broadcasts against it.
    """
    penalty = entropy_weight * entropy_penalty(theta)
    return f + h_of_q - lam ** 2 / (2.0 * psi0) - penalty[0] - penalty[1]


def build_scheme(specs, mesh: Mesh, n_quad: int = N_QUAD) -> SchemeOperators:
    """The operators of one spec, or of a batch of specs on one mesh.

    The specs of a batch share both jump quadratures, so their jump
    densities must be equal; a ValueError names the first that is not.
    """
    specs = (specs,) if isinstance(specs, ProblemSpec) else tuple(specs)
    for i, spec in enumerate(specs[1:], 1):
        for name in ("jump_density_1", "jump_density_2"):
            mine, first = getattr(spec, name), getattr(specs[0], name)
            if not (np.array_equal(mine.xs, first.xs)
                    and np.array_equal(mine.ys, first.ys)):
                raise ValueError(f"the specs of one batch must share their "
                                 f"jump densities: {name} of spec {i} "
                                 f"differs from that of spec 0")
    x = mesh.nodes
    dx = mesh.dx
    a_vals = [np.asarray(s.growth_a(x), dtype=float) for s in specs]
    base_drift = [s.gamma1 - (s.gamma0 + s.gamma1) * x for s in specs]
    diffusion = np.stack([0.5 * s.sigma ** 2 * a ** 2
                          for s, a in zip(specs, a_vals)])
    first_drift = np.stack([
        controlled_drift(s.sigma, b, a,
                         float(np.asarray(s.growth_rate_r(0.0), dtype=float)),
                         0.0)
        for s, b, a in zip(specs, base_drift, a_vals)])
    d_dx2 = diffusion / dx ** 2
    quad_down = build_jump_quadrature(mesh, specs[0].jump_density_1, "down",
                                      n_quad)
    quad_up = build_jump_quadrature(mesh, specs[0].jump_density_2, "up",
                                    n_quad)
    two_d_dx = 2.0 * diffusion / dx
    return SchemeOperators(
        index=tuple(range(len(specs))),
        batch_size=len(specs),
        mesh=mesh,
        jumps=JumpQuadrature(weights=sp.vstack(
            (quad_down.weights, quad_up.weights), format="csr")),
        a_vals=np.stack(a_vals),
        f_vals=np.stack([np.asarray(s.disutility_f(x), dtype=float)
                         for s in specs]),
        base_drift=np.stack(base_drift),
        q_table=_q_tables([q_candidates(s) for s in specs]),
        first_stencil=(first_drift, _central_mask(two_d_dx, first_drift)),
        lambda_scale=np.stack([s.psi0 * s.sigma * a
                               for s, a in zip(specs, a_vals)]),
        sigma=_stacked([s.sigma for s in specs]),
        psi0=_stacked([s.psi0 for s in specs]),
        lambda_max=_stacked([s.lambda_max for s in specs]),
        theta_max=_stacked([s.theta_max for s in specs]),
        nu=_stacked([(s.nu1, s.nu2) for s in specs]),
        psi=_stacked([(s.psi1, s.psi2) for s in specs]),
        entropy_weight=_stacked([(s.nu1 / s.psi1, s.nu2 / s.psi2)
                                 for s in specs]),
        d_dx2=d_dx2,
        neg_d_dx2=-d_dx2,
        two_d_dx2=2.0 * d_dx2,
        two_d_dx=two_d_dx,
    )


def _central_mask(two_d_dx: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """Where the central stencil keeps the row an M-matrix row: 2D/dx >= |b|,
    never at the end nodes."""
    central = two_d_dx >= np.abs(drift)
    central[..., 0] = False
    central[..., -1] = False
    return central


def _gradient(ops: SchemeOperators, phi: np.ndarray, stencil) -> np.ndarray:
    """Slope rows on the stencil (drift, central mask) of the assembly."""
    drift, central = stencil
    diffs = (phi[:, 1:] - phi[:, :-1]) / ops.mesh.dx
    fwd = np.empty_like(phi)
    bwd = np.empty_like(phi)
    fwd[:, :-1] = diffs
    fwd[:, -1] = diffs[:, -1]
    bwd[:, 1:] = diffs
    bwd[:, 0] = diffs[:, 0]
    cen = 0.5 * (fwd + bwd)
    return np.where(central, cen, np.where(drift > 0.0, fwd, bwd))


def _spec_label(ops: SchemeOperators, j: int) -> str:
    return f" of spec {ops.index[j]}" if ops.batch_size > 1 else ""


def assemble_system(ops: SchemeOperators, dt: float, controls: ControlField,
                    central: np.ndarray, jumps: tuple[np.ndarray, np.ndarray],
                    rhs_next: np.ndarray) -> tuple[np.ndarray, ...]:
    """One implicit backward-Euler system per spec at fixed controls, as the
    (k, n) arrays (lower, diag, upper, rhs) that `thomas_solve` takes.

    Reads the drift and running-cost rows the controls carry, the central
    mask of that drift, and `jumps` = (theta, expectations): theta* and the
    jump expectations (W1 phi, W2 phi) that control extraction computed at
    the lagged iterate phi, stacked by jump kind. `rhs_next` is phi_next /
    dt. Evaluates no spec coefficient and no quadrature. Checks every row;
    a SchemeError names the first spec whose rows fail.
    """
    dx = ops.mesh.dx
    drift = controls.drift
    theta, expectations = jumps

    # drift / (2 dx) is half of drift / dx, exactly
    b_dx = drift / dx
    half = 0.5 * b_dx
    # full-length rows: row_low[:, 0] and row_up[:, -1] couple past x = 0
    # and x = 1 and drop out of the system, but the M-matrix check still
    # bounds them
    row_low = np.where(central, -(ops.d_dx2 - half),
                       ops.neg_d_dx2 + np.minimum(b_dx, 0.0))
    row_up = np.where(central, -(ops.d_dx2 + half),
                      ops.neg_d_dx2 - np.maximum(b_dx, 0.0))
    row_diag = np.where(central, ops.two_d_dx2, ops.two_d_dx2 + np.abs(b_dx))
    nu_theta = ops.nu * theta
    diag = 1.0 / dt + nu_theta[0] + nu_theta[1] + row_diag

    slack = 1e-9 * np.maximum(diag.max(axis=1), 1.0)[:, None]
    # written as "not all within bound" so that a NaN entry fails the check
    ok = np.maximum(row_low, row_up) <= slack
    if not ok.all():
        raise _scheme_error(ops, ok, "has a positive off-diagonal entry")
    ok = diag >= np.maximum(np.abs(row_low) + np.abs(row_up), 1.0 / dt) - slack
    if not ok.all():
        raise _scheme_error(ops, ok, "lost diagonal dominance")

    nu_theta_w = nu_theta * expectations
    rhs = rhs_next + controls.cost + nu_theta_w[0] + nu_theta_w[1]
    row_low[:, 0] = 0.0
    row_up[:, -1] = 0.0
    return row_low, diag, row_up, rhs


def _scheme_error(ops: SchemeOperators, ok: np.ndarray,
                  what: str) -> SchemeError:
    """The error for the first spec whose row check `ok` fails somewhere."""
    j = int(np.flatnonzero(~ok.all(axis=1))[0])
    return SchemeError(f"the assembled system{_spec_label(ops, j)} {what}",
                       ops.index[j])


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve k tridiagonal systems of n >= 2 nodes, one per row of the four
    (k, n) arrays, by pivot-free elimination.

    The couplings are full length: lower[:, i] couples node i to node i - 1
    and upper[:, i] to node i + 1, so lower[:, 0] and upper[:, -1] couple
    past the ends and must be zero. Diagonal dominance of the scheme rows
    makes partial pivoting a no-op, so the LAPACK gtsv elimination reduces
    to the classical forward/backward Thomas sweep. The systems, laid end to
    end with their zero couplings past the ends between them, are one system
    for one gtsv call, and each solution is bitwise what solving its system
    alone gives. Should the joint solution not be finite, each system is
    solved alone, so one that overflows does not spread into the others.
    """
    shape = diag.shape
    if len(shape) != 2 or shape[1] < 2 or any(
            part.shape != shape for part in (lower, upper, rhs)):
        raise ValueError(f"tridiagonal systems must be four (k, n) arrays "
                         f"with n >= 2, got shapes {lower.shape}, {shape}, "
                         f"{upper.shape}, {rhs.shape}")
    _, _, _, x, info = lapack.dgtsv(lower.ravel()[1:], diag.ravel(),
                                    upper.ravel()[:-1], rhs.ravel())
    if info > 0:
        system, row = divmod(info - 1, shape[1])
        raise SingularSystemError(f"zero pivot at row {row} of system {system}")
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to tridiagonal solve")
    x = x.reshape(shape)
    if len(x) > 1 and not np.isfinite(x).all():
        x = np.concatenate([thomas_solve(lower[j:j + 1], diag[j:j + 1],
                                         upper[j:j + 1], rhs[j:j + 1])
                            for j in range(len(x))])
    return x


# ---------------------------------------------------------------------------
# policy iteration and the time march
# ---------------------------------------------------------------------------

def _extract_controls(ops: SchemeOperators, phi: np.ndarray, stencil):
    """Pointwise optimizers at the current iterates phi, shape (k, n).

    `stencil` is the (drift, central mask) pair the slopes are taken on.
    Returns (controls, jumps, stencil) as `assemble_system` takes them: the
    controls carry their drift and running-cost rows, jumps = (theta*,
    expectations) stacked by jump kind, and the new stencil is the controls'
    drift with its central mask, which assembly and the next iterate share.
    """
    p = _gradient(ops, phi, stencil)
    lam = lambda_field(ops.lambda_scale, ops.lambda_max, p)
    q, r_q, h_q = q_field(ops.q_table, ops.a_vals, p)
    delta, theta = apply_nonlocal(ops.jumps, phi, ops.psi, ops.theta_max)
    drift = controlled_drift(ops.sigma, ops.base_drift, ops.a_vals, r_q, lam)
    controls = ControlField(
        q_star=q, lambda_star=lam, theta1_star=theta[0], theta2_star=theta[1],
        drift=drift,
        cost=running_cost(ops.psi0, ops.entropy_weight, ops.f_vals, h_q, lam,
                          theta))
    return (controls, (theta, phi - delta),
            (drift, _central_mask(ops.two_d_dx, drift)))


def step_backward(ops: SchemeOperators, dt: float, phi_next: np.ndarray,
                  t: float, policy: PolicyConfig = PolicyConfig(),
                  counts: np.ndarray | None = None):
    """One implicit step of each spec, from its slice at t + dt (a row of
    phi_next, shape (k, n)) down to t.

    Policy iteration alternates control extraction on the current iterates
    with one tridiagonal solve of all the systems until each slice stops
    moving in max norm; a spec whose slice has stopped leaves the iteration,
    so its slice is what stepping it alone gives. A non-finite change stops
    the iteration at once; t only names the step in the error, and the error
    names the spec. Returns (values, stencil, iterations): the slices at t,
    each spec's last (drift, central mask), which is the slope stencil of an
    extraction at these slices, and the iterations the step ran (the most
    any spec took). `counts`, if given, receives each spec's own.
    """
    rhs_next = phi_next / dt
    phi, stencil, sub = phi_next, ops.first_stencil, ops
    rows = np.arange(len(phi_next))     # the specs still iterating
    values, drift = np.empty_like(phi_next), np.empty_like(phi_next)
    central = np.empty(phi_next.shape, dtype=bool)
    for iteration in range(1, policy.max_iter + 1):
        controls, jumps, stencil = _extract_controls(sub, phi, stencil)
        phi_new = thomas_solve(*assemble_system(sub, dt, controls, stencil[1],
                                                jumps, rhs_next))
        change = np.abs(phi_new - phi).max(axis=1)
        settled = change <= policy.tol
        # written as "not within bound" so that a NaN change stops at once
        if ((iteration == policy.max_iter and not settled.all())
                or not change.max() < np.inf):
            finite = change < np.inf
            j = np.flatnonzero(~settled if finite.all() else ~finite)[0]
            raise PolicyIterationError(
                f"policy iteration{_spec_label(sub, j)} stalled at t={t:.6g} "
                f"(residual {change[j]:.3e} after {iteration} iterations)",
                residual=float(change[j]), time_label=t,
                spec_index=sub.index[j])
        if settled.any():
            done, keep = rows[settled], ~settled
            values[done] = phi_new[settled]
            drift[done], central[done] = stencil[0][settled], stencil[1][settled]
            if counts is not None:
                counts[done] = iteration
            if not keep.any():
                return values, (drift, central), iteration
            rows = rows[keep]
            sub = sub.subset(np.flatnonzero(keep))
            phi_new, rhs_next = phi_new[keep], rhs_next[keep]
            stencil = (stencil[0][keep], stencil[1][keep])
        phi = phi_new


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


def _control_row(c: ControlField, j: int) -> ControlField:
    """Spec j's controls out of a batch's (k, n) rows."""
    return ControlField(c.q_star[j], c.lambda_star[j], c.theta1_star[j],
                        c.theta2_star[j], c.drift[j], c.cost[j])


@dataclass
class _March:
    """The state of one spec's march."""

    iterations: np.ndarray
    snapshots: list[Snapshot]
    recorded: list[ControlField] = field(default_factory=list)
    settled_steps: int = 0
    ergodic: ErgodicReport | None = None


def solve_many(specs, mesh: Mesh, time_grid: TimeGrid,
               policy: PolicyConfig = PolicyConfig(),
               snapshot_times: tuple[float, ...] = (),
               n_quad: int = N_QUAD,
               record_controls: bool = False) -> list[SolveResult]:
    """March the terminal condition Phi(T, .) = 0 of every spec back to t = 0,
    as one batch in this process.

    T is each spec's `horizon`, and `time_grid` must end there. The specs
    share the mesh, the time grid and both jump quadratures, so their jump
    densities must be equal (see `build_scheme`). After each step the last
    two slices of a spec give its ergodic estimate of the effective
    Hamiltonian E. Once its per-node spread has settled (see
    ERGODIC_EXIT_SPREAD) at a level m* > 0, the spec's march stops there and
    it leaves the batch: every level m < m* is Phi(m*) + E (m* - m) dt, holds
    the controls of step m*, and `final_controls` are those of step m*. The
    ergodic report always comes from the last two marched slices. Each
    result is bitwise what solving its spec alone gives. `record_controls`
    keeps the control fields of every level (memory scales with n_steps;
    intended for short horizons, e.g. the Monte Carlo cross-check). Every
    spec must pass `validate_spec`. A failure names the spec by its index in
    `specs` (`spec_index` of the error).
    """
    specs = tuple(specs)
    if not specs:
        return []
    for i, spec in enumerate(specs):
        which = f" {i}" if len(specs) > 1 else ""
        violations = validate_spec(spec)
        if violations:
            raise ValueError(f"invalid problem spec{which}:\n"
                             + "\n".join(violations))
        if not time_grid.ends_at(spec.horizon):
            raise ValueError(f"time grid horizon {time_grid.horizon} differs "
                             f"from the horizon {spec.horizon} of spec{which}")
    ops = build_scheme(specs, mesh, n_quad=n_quad)
    dt = time_grid.dt
    n_steps = time_grid.n_steps

    snap_levels = {}
    for t in snapshot_times:
        snap_levels.setdefault(time_grid.level(t), float(t))

    phi = np.zeros((len(specs), mesh.n_nodes))
    marches = [_March(iterations=np.zeros(n_steps, dtype=int),
                      snapshots=[Snapshot(time=snap_levels[n_steps],
                                          values=row)]
                      if n_steps in snap_levels else [])
               for row in phi]
    results: list[SolveResult | None] = [None] * len(specs)
    active = np.arange(len(specs))      # the specs still marching
    sub = ops
    for m in range(n_steps - 1, -1, -1):
        previous = phi
        counts = np.zeros(len(active), dtype=int)
        phi, stencil, _ = step_backward(sub, dt, phi, m * dt, policy, counts)
        level = (_extract_controls(sub, phi, stencil)[0]
                 if record_controls else None)
        exiting = []
        for j, i in enumerate(active):
            march = marches[i]
            march.iterations[m] = counts[j]
            if record_controls:
                march.recorded.append(_control_row(level, j))
            if m in snap_levels:
                march.snapshots.append(Snapshot(time=snap_levels[m],
                                                values=phi[j]))
            march.ergodic = ergodic_estimate(phi[j], previous[j], dt)
            bound = ERGODIC_EXIT_SPREAD * max(1.0, abs(march.ergodic.E_mean))
            # written as "within bound" so that a NaN spread never exits
            march.settled_steps = (march.settled_steps + 1
                                   if march.ergodic.E_spread <= bound else 0)
            if march.settled_steps >= ERGODIC_EXIT_STEPS or m == 0:
                exiting.append(j)
        if not exiting:
            continue
        if not record_controls:
            level = _extract_controls(sub, phi, stencil)[0]
        for j in exiting:
            i = active[j]
            controls = (marches[i].recorded[-1] if record_controls
                        else _control_row(level, j))
            results[i] = _finish(marches[i], phi[j], controls, m, time_grid,
                                 mesh, snap_levels, record_controls)
        keep = np.ones(len(active), dtype=bool)
        keep[exiting] = False
        if not keep.any():
            break
        active, phi = active[keep], phi[keep]
        sub = ops.subset(active)
    return results


def _finish(march: _March, phi: np.ndarray, controls: ControlField,
            m_exit: int, time_grid: TimeGrid, mesh: Mesh, snap_levels: dict,
            record_controls: bool) -> SolveResult:
    """The result of a spec whose march stopped at level m_exit."""
    dt = time_grid.dt
    ergodic = march.ergodic

    def unmarched(level: int) -> np.ndarray:
        return phi + ergodic.E_mean * (m_exit - level) * dt

    snapshots = march.snapshots + [
        Snapshot(time=t, values=unmarched(level))
        for level, t in snap_levels.items() if level < m_exit]
    snapshots.sort(key=lambda s: s.time)
    table = (ControlTable(time_grid=time_grid, mesh=mesh,
                          levels=[controls] * m_exit + march.recorded[::-1])
             if record_controls else None)
    return SolveResult(final_value=unmarched(0) if m_exit else phi,
                       final_controls=controls, ergodic=ergodic,
                       iteration_stats=march.iterations[m_exit:],
                       snapshots=snapshots, exit_time=m_exit * dt,
                       control_table=table)


def solve_backward(spec: ProblemSpec, mesh: Mesh, time_grid: TimeGrid,
                   policy: PolicyConfig = PolicyConfig(),
                   snapshot_times: tuple[float, ...] = (),
                   n_quad: int = N_QUAD,
                   record_controls: bool = False) -> SolveResult:
    """One spec's solve: `solve_many` on the batch of one."""
    return solve_many([spec], mesh, time_grid, policy=policy,
                      snapshot_times=snapshot_times, n_quad=n_quad,
                      record_controls=record_controls)[0]
