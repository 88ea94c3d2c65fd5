"""Shared fixtures. The benchmark-resolution solves are session-scoped so the
acceptance criteria can share them; they are built lazily, so unit-test-only
runs never pay for them."""

from __future__ import annotations

import numpy as np
import pytest

import robpop as rp
from robpop.solver import controlled_drift, running_cost

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


def controls_at(ops, q, lam, th1, th2):
    """A ControlField at the given controls, its drift and running-cost rows
    evaluated from the spec's own coefficients at the nodes."""
    spec = ops.spec
    x = ops.mesh.nodes
    base_drift = spec.gamma1 - (spec.gamma0 + spec.gamma1) * x
    drift = controlled_drift(spec, base_drift,
                             np.asarray(spec.growth_a(x), dtype=float),
                             spec.growth_rate_r(q), lam)
    cost = running_cost(spec, np.asarray(spec.disutility_f(x), dtype=float),
                        spec.cost_h(q), lam, th1, th2)
    return rp.ControlField(q_star=q, lambda_star=lam, theta1_star=th1,
                           theta2_star=th2, drift=drift, cost=cost)


def reference_handoff(ops, controls, phi):
    """What assembly takes at the controls and lagged iterate phi, evaluated
    from the spec's coefficients and the quadrature matrices: the controls
    with their drift and running-cost rows, and the jump expectations
    (W1 phi, W2 phi)."""
    return (controls_at(ops, controls.q_star, controls.lambda_star,
                        controls.theta1_star, controls.theta2_star),
            (ops.quad_down.weights @ phi, ops.quad_up.weights @ phi))
