import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

import robpop as rp
from robpop.model import tabulated, zero_rate
from robpop.solver import (ControlField, PolicyConfig, PolicyIterationError,
                           SchemeError, SingularSystemError, TridiagonalSystem,
                           _extract_controls, _gradient,
                           assemble_system, build_scheme, ergodic_estimate,
                           step_backward, switching_points, thomas_solve)

from conftest import reference_handoff

ZERO_FN = tabulated([[0.0, 0.0], [1.0, 0.0]])


def neutral_controls(n):
    return ControlField(q_star=np.zeros(n), lambda_star=np.zeros(n),
                        theta1_star=np.ones(n), theta2_star=np.ones(n))


def assemble_at(ops, dt, controls, phi_next, phi_lagged):
    return assemble_system(ops, dt, controls, phi_next,
                           *reference_handoff(ops, controls, phi_lagged))


# ---------------------------------------------------------------------------
# tridiagonal solves
# ---------------------------------------------------------------------------

def test_thomas_identity():
    rhs = np.asarray([3.0, -1.0, 4.5])
    sys = TridiagonalSystem(lower=np.zeros(2), diag=np.ones(3),
                            upper=np.zeros(2), rhs=rhs.copy())
    np.testing.assert_allclose(thomas_solve(sys), rhs)


def test_thomas_hand_solved_3x3():
    sys = TridiagonalSystem(lower=np.asarray([-1.0, -1.0]),
                            diag=np.asarray([2.0, 2.0, 2.0]),
                            upper=np.asarray([-1.0, -1.0]),
                            rhs=np.asarray([1.0, 0.0, 1.0]))
    np.testing.assert_allclose(thomas_solve(sys), [1.0, 1.0, 1.0], atol=1e-14)


def test_thomas_scalar_system():
    sys = TridiagonalSystem(lower=np.zeros(0), diag=np.asarray([4.0]),
                            upper=np.zeros(0), rhs=np.asarray([8.0]))
    np.testing.assert_allclose(thomas_solve(sys), [2.0])


def test_thomas_zero_pivot_raises():
    sys = TridiagonalSystem(lower=np.zeros(0), diag=np.asarray([0.0]),
                            upper=np.zeros(0), rhs=np.asarray([1.0]))
    with pytest.raises(SingularSystemError):
        thomas_solve(sys)
    sys2 = TridiagonalSystem(lower=np.asarray([0.0]),
                             diag=np.asarray([1.0, 0.0]),
                             upper=np.asarray([0.0]),
                             rhs=np.asarray([1.0, 1.0]))
    with pytest.raises(SingularSystemError):
        thomas_solve(sys2)


def test_thomas_shape_mismatch():
    with pytest.raises(ValueError):
        thomas_solve(TridiagonalSystem(lower=np.zeros(3), diag=np.ones(3),
                                       upper=np.zeros(2), rhs=np.ones(3)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**31))
def test_thomas_residual_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.0, 1.0, n - 1)
    upper = -rng.uniform(0.0, 1.0, n - 1)
    diag = rng.uniform(0.1, 2.0, n)
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    rhs = rng.uniform(-10.0, 10.0, n)
    x = thomas_solve(TridiagonalSystem(lower, diag, upper, rhs))
    residual = diag * x
    residual[:-1] += upper * x[1:]
    residual[1:] += lower * x[:-1]
    assert np.max(np.abs(residual - rhs)) <= 1e-10 * (np.max(np.abs(rhs)) + 1.0)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def pure_drift_ops(a_level, r_level, sigma):
    spec = replace(rp.make_paper_spec(False),
                   sigma=sigma, gamma0=0.0, gamma1=0.0, nu1=0.0, nu2=0.0,
                   growth_a=tabulated([[0.0, a_level], [1.0, a_level]]),
                   growth_rate_r=tabulated([[0.0, r_level], [1.0, r_level]]))
    return build_scheme(spec, rp.build_mesh(10))


def test_assemble_upwind_row_from_pure_drift():
    # D=0, b=0.5, dx=0.1, dt=0.005: upwind puts -b/dx above the diagonal
    ops = pure_drift_ops(a_level=0.5, r_level=1.0, sigma=0.0)
    n = ops.mesh.n_nodes
    sys = assemble_at(ops, 0.005, neutral_controls(n), np.zeros(n), np.zeros(n))
    i = 5
    assert sys.lower[i - 1] == pytest.approx(0.0)
    assert sys.upper[i] == pytest.approx(-5.0)
    assert sys.diag[i] == pytest.approx(205.0)


def test_assemble_central_row_when_diffusion_dominates():
    # D=1, b=0.5, dx=0.1: central is admissible since 2D/dx = 20 >= 0.5
    ops = pure_drift_ops(a_level=1.0, r_level=0.5, sigma=np.sqrt(2.0))
    n = ops.mesh.n_nodes
    sys = assemble_at(ops, 0.005, neutral_controls(n), np.zeros(n), np.zeros(n))
    i = 5
    assert sys.lower[i - 1] == pytest.approx(-97.5)
    assert sys.upper[i] == pytest.approx(-102.5)


def test_assemble_zero_data_gives_zero_solution():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN)
    mesh = rp.build_mesh(30)
    ops = build_scheme(spec, mesh)
    n = mesh.n_nodes
    sys = assemble_at(ops, 0.005, neutral_controls(n), np.zeros(n), np.zeros(n))
    np.testing.assert_allclose(sys.rhs, 0.0, atol=1e-14)
    np.testing.assert_allclose(thomas_solve(sys), 0.0, atol=1e-14)


def test_assembled_rows_are_m_matrix_rows():
    spec = rp.make_paper_spec(True)
    mesh = rp.build_mesh(80)
    ops = build_scheme(spec, mesh)
    n = mesh.n_nodes
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0, n)
    controls = ControlField(q_star=rng.choice([0.0, 1.0], n),
                            lambda_star=rng.uniform(-1.0, 1.0, n),
                            theta1_star=rng.uniform(0.2, 2.0, n),
                            theta2_star=rng.uniform(0.2, 2.0, n))
    dt = 0.005
    sys = assemble_at(ops, dt, controls, phi, phi)
    assert np.all(sys.lower <= 1e-12)
    assert np.all(sys.upper <= 1e-12)
    off = np.zeros(n)
    off[1:] += np.abs(sys.lower)
    off[:-1] += np.abs(sys.upper)
    assert np.all(sys.diag >= 1.0 / dt - 1e-9)
    assert np.all(sys.diag >= off - 1e-9)


def test_end_rows_hold_only_the_inward_drift():
    # a vanishes at x = 0 and x = 1, so the upwind end rows carry no
    # diffusion and couple only along b(0) = gamma1, b(1) = -gamma0
    spec = rp.make_paper_spec(True)
    mesh = rp.build_mesh(80)
    ops = build_scheme(spec, mesh)
    n, dx = mesh.n_nodes, mesh.dx
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0, n)
    controls = ControlField(q_star=rng.choice([0.0, 1.0], n),
                            lambda_star=rng.uniform(-1.0, 1.0, n),
                            theta1_star=rng.uniform(0.2, 2.0, n),
                            theta2_star=rng.uniform(0.2, 2.0, n))
    dt = 0.005
    b, h_q, w = reference_handoff(ops, controls, phi)
    sys = assemble_system(ops, dt, controls, phi, b, h_q, w)
    th1, th2 = controls.theta1_star, controls.theta2_star
    assert b[0] > 0.0 > b[-1]
    assert sys.upper[0] == -b[0] / dx
    assert sys.diag[0] == (1.0 / dt + spec.nu1 * th1[0] + spec.nu2 * th2[0]
                           + b[0] / dx)
    assert sys.lower[-1] == b[-1] / dx
    assert sys.diag[-1] == (1.0 / dt + spec.nu1 * th1[-1] + spec.nu2 * th2[-1]
                            - b[-1] / dx)


@pytest.mark.parametrize("end_drift", [1.0, -1.0])
def test_end_slopes_are_one_sided(end_drift):
    ops = build_scheme(rp.make_paper_spec(True), rp.build_mesh(40))
    x, dx = ops.mesh.nodes, ops.mesh.dx
    phi = np.sin(7.0 * x) + x ** 2
    p = _gradient(ops, phi, np.full(x.size, end_drift))
    assert p[0] == (phi[1] - phi[0]) / dx
    assert p[-1] == (phi[-1] - phi[-2]) / dx


def test_m_matrix_check_rejects_nan_entries():
    ops = build_scheme(rp.make_paper_spec(False), rp.build_mesh(20))
    n = ops.mesh.n_nodes
    controls = neutral_controls(n)
    controls.theta1_star[7] = np.nan
    with pytest.raises(SchemeError):
        assemble_at(ops, 0.005, controls, np.zeros(n), np.zeros(n))


def test_extraction_hands_assembly_what_it_would_evaluate():
    # three candidates with a convex r, so q* takes all of 0, 0.5 and 1
    spec = replace(rp.make_paper_spec(True), q_grid_size=3,
                   growth_rate_r=tabulated([[0.0, 1.0], [0.5, 0.4], [1.0, 0.0]]))
    ops = build_scheme(spec, rp.build_mesh(200))
    x = ops.mesh.nodes
    phi = 4.0 * (x - 0.5) ** 2 + 0.1 * np.sin(9.0 * x)
    controls, drift, h_q, (w1, w2) = _extract_controls(ops, phi, ops.first_drift)
    assert set(controls.q_star.tolist()) == {0.0, 0.5, 1.0}
    ref_drift, ref_h, (ref_w1, ref_w2) = reference_handoff(ops, controls, phi)
    assert np.array_equal(drift, ref_drift)
    assert np.array_equal(h_q, ref_h)
    np.testing.assert_allclose(w1, ref_w1, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(w2, ref_w2, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def degenerate_spec(f_fn):
    # no growth, no migration, no jumps: the equation reduces to -phi_t = f
    return replace(rp.make_paper_spec(False), gamma0=0.0, gamma1=0.0,
                   nu1=0.0, nu2=0.0, growth_a=ZERO_FN, disutility_f=f_fn)


def test_step_backward_degenerate_analytic():
    spec = degenerate_spec(rp.make_paper_spec(False).disutility_f)
    mesh = rp.build_mesh(50)
    ops = build_scheme(spec, mesh)
    dt = 0.01
    phi_next = np.linspace(0.0, 1.0, mesh.n_nodes)
    expected = phi_next + dt * np.asarray(spec.disutility_f(mesh.nodes))
    phi, _, _ = step_backward(ops, dt, phi_next, 0.99)
    np.testing.assert_allclose(phi, expected, atol=1e-12)


def test_step_backward_zero_is_fixed_point():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN)
    mesh = rp.build_mesh(40)
    ops = build_scheme(spec, mesh)
    phi, controls, n_iters = step_backward(ops, 0.005, np.zeros(mesh.n_nodes),
                                           0.995)
    np.testing.assert_allclose(phi, 0.0, atol=1e-14)
    np.testing.assert_allclose(controls.lambda_star, 0.0, atol=1e-14)
    np.testing.assert_allclose(controls.theta1_star, 1.0, atol=1e-14)
    np.testing.assert_allclose(controls.theta2_star, 1.0, atol=1e-14)
    assert n_iters == 1


def test_step_backward_nonconvergence_raises():
    spec = rp.make_paper_spec(False)
    mesh = rp.build_mesh(30)
    ops = build_scheme(spec, mesh)
    with pytest.raises(PolicyIterationError) as err:
        step_backward(ops, 0.005, np.zeros(mesh.n_nodes), 0.495,
                      PolicyConfig(tol=1e-30, max_iter=1))
    assert err.value.residual > 0.0
    assert err.value.time_label == 0.495


def test_step_backward_stops_on_first_nonfinite_change():
    # phi_next / dt overflows the right-hand side on the first solve
    mesh = rp.build_mesh(30)
    ops = build_scheme(rp.make_paper_spec(False), mesh)
    with (pytest.raises(PolicyIterationError, match="after 1 iterations") as err,
          np.errstate(over="ignore")):
        step_backward(ops, 0.005, np.full(mesh.n_nodes, 1e308), 0.495)
    assert not np.isfinite(err.value.residual)


def test_solve_backward_single_step_constant_cost():
    const_f = tabulated([[0.0, 2.0], [1.0, 2.0]])
    spec = replace(degenerate_spec(const_f), horizon=0.005)
    mesh = rp.build_mesh(20)
    tg = rp.build_time_grid(0.005, 0.005)
    result = rp.solve_backward(spec, mesh, tg, validate=False)
    np.testing.assert_allclose(result.final_value, 2.0 * 0.005,
                               atol=1e-14)
    assert result.ergodic.E_mean == pytest.approx(2.0, abs=1e-10)


def test_solve_backward_zero_cost_everything_zero():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN,
                   horizon=0.5)
    mesh = rp.build_mesh(40)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(0.5, 0.01))
    np.testing.assert_allclose(result.final_value, 0.0, atol=1e-12)
    assert result.ergodic.E_mean == pytest.approx(0.0, abs=1e-12)


def test_solve_backward_validates_spec():
    bad = replace(rp.make_paper_spec(False), psi0=-1.0)
    mesh = rp.build_mesh(10)
    with pytest.raises(ValueError, match="psi0"):
        rp.solve_backward(bad, mesh, rp.build_time_grid(0.1, 0.01))


def test_solve_backward_rejects_grid_of_another_horizon():
    # the march ends where the time grid ends; the oracle checks spec.horizon
    spec = rp.make_paper_spec(True)
    with pytest.raises(ValueError, match="horizon"):
        rp.solve_backward(spec, rp.build_mesh(10), rp.build_time_grid(2.0, 0.5))


def test_solve_backward_records_snapshots():
    spec = replace(rp.make_paper_spec(False), horizon=1.0)
    mesh = rp.build_mesh(30)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(1.0, 0.01),
                               snapshot_times=(0.5, 1.0))
    assert [s.time for s in result.snapshots] == [0.5, 1.0]
    terminal = result.snapshots[-1]
    np.testing.assert_allclose(terminal.values, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # NaN cast to a level
@pytest.mark.parametrize("t", [0.505, -0.1, 1.1, float("nan")])
def test_snapshot_time_off_the_time_levels_raises(t):
    spec = replace(rp.make_paper_spec(False), horizon=1.0)
    with pytest.raises(ValueError, match=f"time {t} is not a level"):
        rp.solve_backward(spec, rp.build_mesh(10),
                          rp.build_time_grid(1.0, 0.1), snapshot_times=(t,))


def test_value_bounds_on_benchmark_shape_problem():
    spec = replace(rp.make_paper_spec(False), horizon=2.0)
    mesh = rp.build_mesh(80)
    tg = rp.build_time_grid(2.0, 0.01)
    result = rp.solve_backward(spec, mesh, tg,
                               snapshot_times=(0.0, 0.5, 1.0, 1.5))
    f_max = float(np.max(spec.disutility_f(mesh.nodes)))
    eps = 1e-8 * f_max * spec.horizon
    slices = ([(s.time, s.values) for s in result.snapshots]
              + [(0.0, result.final_value)])
    for t, values in slices:
        upper = (spec.horizon - t) * f_max + eps
        assert values.min() >= -eps
        assert values.max() <= upper


def test_iteration_stats_counted_per_step():
    spec = replace(rp.make_paper_spec(False), horizon=0.1)
    mesh = rp.build_mesh(30)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(0.1, 0.01))
    assert result.iteration_stats.shape == (10,)
    assert np.all(result.iteration_stats >= 1)
    assert np.all(result.iteration_stats <= PolicyConfig().max_iter)


# ---------------------------------------------------------------------------
# scheme-level comparison principles (small scale; benchmark scale lives in
# the acceptance suite)
# ---------------------------------------------------------------------------

def test_discrete_comparison_in_f():
    lower_f = rp.make_paper_spec(False).disutility_f
    higher_f = tabulated([[0.0, 1.5], [0.5, 0.5], [1.0, 1.5]])
    mesh = rp.build_mesh(50)
    tg = rp.build_time_grid(1.0, 0.01)
    phi = []
    for f_fn in (lower_f, higher_f):
        spec = replace(rp.make_paper_spec(False), disutility_f=f_fn,
                       horizon=1.0)
        phi.append(rp.solve_backward(spec, mesh, tg).final_value)
    assert np.all(phi[0] <= phi[1] + 1e-8)


@pytest.mark.parametrize("axis", ["psi0", "psi"])
def test_value_nondecreasing_in_ambiguity_aversion(axis):
    mesh = rp.build_mesh(50)
    tg = rp.build_time_grid(2.0, 0.01)
    values, means = [], []
    for level in (0.25, 0.5, 1.0):
        fields = ("psi1", "psi2") if axis == "psi" else (axis,)
        spec = replace(rp.make_paper_spec(False), horizon=2.0,
                       **dict.fromkeys(fields, level))
        res = rp.solve_backward(spec, mesh, tg)
        values.append(res.final_value)
        means.append(res.ergodic.E_mean)
    assert np.all(values[0] <= values[1] + 1e-8)
    assert np.all(values[1] <= values[2] + 1e-8)
    assert means[0] <= means[1] + 1e-8 <= means[2] + 2e-8


def test_mirror_symmetry_without_growth_drift():
    spec = replace(rp.make_paper_spec(False), growth_rate_r=zero_rate,
                   horizon=2.0)
    mesh = rp.build_mesh(100)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(2.0, 0.01))
    phi = result.final_value
    ctrl = result.final_controls
    scale = np.max(np.abs(phi))
    assert np.max(np.abs(phi - phi[::-1])) <= 1e-6 * scale
    assert np.max(np.abs(ctrl.lambda_star + ctrl.lambda_star[::-1])) <= 1e-6
    assert np.max(np.abs(ctrl.theta1_star - ctrl.theta2_star[::-1])) <= 1e-6


def test_intervention_reduces_value():
    mesh = rp.build_mesh(60)
    tg = rp.build_time_grid(2.0, 0.01)
    phi_no = rp.solve_backward(replace(rp.make_paper_spec(False), horizon=2.0),
                               mesh, tg).final_value
    phi_with = rp.solve_backward(replace(rp.make_paper_spec(True), horizon=2.0),
                                 mesh, tg).final_value
    assert np.all(phi_with <= phi_no + 1e-8)


# ---------------------------------------------------------------------------
# ergodic estimate and switching intervals
# ---------------------------------------------------------------------------

def test_ergodic_estimate_uniform_translation():
    values = np.linspace(0.0, 1.0, 11)
    report = ergodic_estimate(values + 3.0 * 0.01, values, 0.01)
    assert report.E_mean == pytest.approx(3.0)
    assert report.E_spread == pytest.approx(0.0, abs=1e-12)


def test_ergodic_estimate_stationary():
    values = np.linspace(0.0, 1.0, 11)
    report = ergodic_estimate(values, values.copy(), 0.01)
    assert report.E_mean == 0.0


def test_ergodic_estimate_rejects_bad_labels():
    with pytest.raises(ValueError):
        ergodic_estimate(np.zeros(5), np.zeros(7), 0.01)


def test_switching_points_empty():
    mesh = rp.build_mesh(5)
    assert switching_points(np.zeros(6), mesh, 0.5) == []


def test_switching_points_single_block():
    mesh = rp.build_mesh(5)
    q = np.asarray([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    assert switching_points(q, mesh, 0.5) == [(0.4, 0.8)]


def test_switching_points_multiple_blocks_and_edges():
    mesh = rp.build_mesh(7)
    q = np.asarray([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    intervals = switching_points(q, mesh, 0.5)
    assert len(intervals) == 3
    assert intervals[0][0] == 0.0
    assert intervals[-1][1] == 1.0
