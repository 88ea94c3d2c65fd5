"""Shared fixtures. The benchmark-resolution solves are session-scoped so the
acceptance criteria can share them; they are built lazily, so unit-test-only
runs never pay for them."""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import pytest

import robpop as rp
from robpop.jump_ops import apply_nonlocal
from robpop.local_ops import lambda_field, q_field
from robpop.solver import (_central_mask, assemble_system, controlled_drift,
                           running_cost)

BENCH_N_CELLS = 500
BENCH_DT = 0.005
BENCH_SNAPSHOT_TIMES = (5.0, 15.0, 25.0, 35.0, 45.0)


@pytest.fixture(scope="session")
def bench_mesh():
    return rp.build_mesh(BENCH_N_CELLS)


@pytest.fixture(scope="session")
def bench_time_grid():
    return rp.build_time_grid(50.0, BENCH_DT)


@pytest.fixture(scope="session")
def bench_solve_uncontrolled(bench_mesh, bench_time_grid):
    spec = rp.make_paper_spec(with_control=False)
    return rp.solve_backward(spec, bench_mesh, bench_time_grid,
                             snapshot_times=BENCH_SNAPSHOT_TIMES)


@pytest.fixture(scope="session")
def bench_solve_controlled(bench_mesh, bench_time_grid):
    spec = rp.make_paper_spec(with_control=True)
    return rp.solve_backward(spec, bench_mesh, bench_time_grid,
                             snapshot_times=BENCH_SNAPSHOT_TIMES)


@pytest.fixture(scope="session")
def small_mesh():
    return rp.build_mesh(60)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def entropy_weight(spec):
    """(nu1/psi1, nu2/psi2) as a column against stacked (theta1, theta2)."""
    return np.asarray([[spec.nu1 / spec.psi1], [spec.nu2 / spec.psi2]])


def controls_at(spec, mesh, q, lam, th1, th2):
    """A ControlField at the given controls, its drift and running-cost rows
    evaluated from the spec's own coefficients at the mesh nodes."""
    x = mesh.nodes
    base_drift = spec.gamma1 - (spec.gamma0 + spec.gamma1) * x
    drift = controlled_drift(spec.sigma, base_drift,
                             np.asarray(spec.growth_a(x), dtype=float),
                             spec.growth_rate_r(q), lam)
    cost = running_cost(spec.psi0, entropy_weight(spec),
                        np.asarray(spec.disutility_f(x), dtype=float),
                        spec.cost_h(q), lam, np.stack((th1, th2)))
    return rp.ControlField(q_star=q, lambda_star=lam, theta1_star=th1,
                           theta2_star=th2, drift=drift, cost=cost)


def reference_handoff(spec, ops, controls, phi):
    """What assembly takes at the controls and lagged iterate phi, evaluated
    from the spec's coefficients and the quadrature matrices of its
    operators `ops`: the controls with their drift and running-cost rows,
    and the jumps (theta*, (W1 phi, W2 phi)), stacked by jump kind."""
    return (controls_at(spec, ops.mesh, controls.q_star, controls.lambda_star,
                        controls.theta1_star, controls.theta2_star),
            (np.stack((controls.theta1_star, controls.theta2_star)),
             np.stack([w @ phi for w in jump_matrices(ops)])))


def jump_matrices(ops):
    """(W1, W2): the two halves of the operators' one jump matrix."""
    weights, n = ops.jumps.weights, ops.mesh.n_nodes
    return weights[:n], weights[n:]


# the system `assemble_at` returns, with 1-D node rows
System = namedtuple("System", "lower diag upper rhs")


def assemble_at(spec, ops, dt, controls, phi_next, phi_lagged):
    """The system `assemble_system` builds for the batch of one spec at the
    controls and the lagged iterate, from what `reference_handoff`
    evaluates; node rows in and out are 1-D."""
    reference, (theta, expectations) = reference_handoff(spec, ops, controls,
                                                         phi_lagged)
    batch = rp.ControlField(*(row[None] for row in vars(reference).values()))
    rows = assemble_system(ops, dt, batch,
                           _central_mask(ops.two_d_dx, batch.drift),
                           (theta[:, None], expectations[:, None]),
                           phi_next[None] / dt)
    return System(*(row[0] for row in rows))


# The objective values the optimizers attain, which the step never reads:
# the closed forms are checked against brute force through these.

def lambda_at(spec, a, p):
    """lambda_field at the spec's scalars, and the objective value
    -sigma lambda a p + lambda^2 / (2 psi0) it attains."""
    lam = lambda_field(spec.psi0 * spec.sigma * a, spec.lambda_max, p)
    return lam, -spec.sigma * lam * a * p + lam ** 2 / (2.0 * spec.psi0)


def q_at(table, a, p):
    """q_field's (q*, r(q*), h(q*)) on one spec's table and node arrays (a
    batch of one), and the objective -r(q*) a p - h(q*) it attains, as (q*,
    value, r(q*), h(q*))."""
    q, r, h = (row[0] for row in q_field(tuple(part[None] for part in table),
                                         a[None], p[None]))
    return q, -r * (a * p) - h, r, h


def nonlocal_at(quad, phi, nu, psi, theta_max):
    """apply_nonlocal on one quadrature and one field, with the distorted
    operator value (nu/psi)(1 - exp(-psi delta)) it attains, as (values,
    delta, theta*)."""
    delta, theta = apply_nonlocal(quad, phi, psi, theta_max)
    delta, theta = delta[0], theta[0]
    return (nu / psi) * (-np.expm1(-psi * delta)), delta, theta
