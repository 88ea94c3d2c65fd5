import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robpop as rp
from robpop.model import tabulated, zero_rate
from robpop.solver import (PolicyConfig, PolicyIterationError, SchemeError,
                           SingularSystemError, _central_mask,
                           _extract_controls, _gradient, build_scheme,
                           ergodic_estimate, step_backward, switching_points,
                           thomas_solve)

from conftest import assemble_at, controls_at, reference_handoff

ZERO_FN = tabulated([[0.0, 0.0], [1.0, 0.0]])


def neutral_controls(spec, mesh):
    n = mesh.n_nodes
    return controls_at(spec, mesh, np.zeros(n), np.zeros(n), np.ones(n),
                       np.ones(n))


# ---------------------------------------------------------------------------
# tridiagonal solves
# ---------------------------------------------------------------------------

def rows(*parts):
    """Node rows as the (1, n) arrays of a batch of one system."""
    return [np.asarray(part, dtype=float)[None] for part in parts]


def test_thomas_identity():
    rhs = np.asarray([3.0, -1.0, 4.5])
    x = thomas_solve(*rows(np.zeros(3), np.ones(3), np.zeros(3), rhs))
    np.testing.assert_allclose(x, [rhs])


def test_thomas_hand_solved_3x3():
    x = thomas_solve(*rows([0.0, -1.0, -1.0], [2.0, 2.0, 2.0],
                           [-1.0, -1.0, 0.0], [1.0, 0.0, 1.0]))
    np.testing.assert_allclose(x, [[1.0, 1.0, 1.0]], atol=1e-14)


def test_thomas_zero_pivot_raises():
    with pytest.raises(SingularSystemError):
        thomas_solve(*rows(np.zeros(2), [1.0, 0.0], np.zeros(2), [1.0, 1.0]))


def test_thomas_shape_mismatch():
    with pytest.raises(ValueError):
        thomas_solve(*rows(np.zeros(3), np.ones(3), np.zeros(2), np.ones(3)))


def test_thomas_takes_four_equal_batches_of_two_or_more_nodes():
    one_d = (np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))
    one_by_one = rows([0.0], [4.0], [0.0], [8.0])
    mismatched = (np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3)),
                  np.ones((3, 2)))
    for system in (one_d, one_by_one, mismatched):
        with pytest.raises(ValueError, match=r"four \(k, n\) arrays"):
            thomas_solve(*system)


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
    x = thomas_solve(*rows(np.append(0.0, lower), diag, np.append(upper, 0.0),
                           rhs))[0]
    residual = diag * x
    residual[:-1] += upper * x[1:]
    residual[1:] += lower * x[:-1]
    assert np.max(np.abs(residual - rhs)) <= 1e-10 * (np.max(np.abs(rhs)) + 1.0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), n=st.integers(2, 40), seed=st.integers(0, 2**31))
def test_joint_solve_is_each_system_alone_bitwise(k, n, seed):
    rng = np.random.default_rng(seed)
    lower, upper = -rng.uniform(0.0, 1.0, (2, k, n))
    lower[:, 0] = upper[:, -1] = 0.0
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, (k, n))
    rhs = rng.uniform(-10.0, 10.0, (k, n))
    joint = thomas_solve(lower, diag, upper, rhs)
    for j in range(k):
        alone = thomas_solve(lower[j:j + 1], diag[j:j + 1], upper[j:j + 1],
                             rhs[j:j + 1])
        assert np.array_equal(joint[j:j + 1], alone)


# ---------------------------------------------------------------------------
# scheme operators
# ---------------------------------------------------------------------------

def test_build_scheme_peak_stays_near_its_jump_matrix():
    # the stacked jump matrix is built in place: the traced peak of a
    # 500-cell build stays below 2.5 times the bytes of the matrix it keeps
    spec, mesh = rp.make_paper_spec(True), rp.build_mesh(500)
    build_scheme(spec, mesh)        # imports and caches out of the trace
    tracemalloc.start()
    try:
        ops = build_scheme(spec, mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    weights = ops.jumps.weights
    kept = weights.data.nbytes + weights.indices.nbytes + weights.indptr.nbytes
    assert peak < 2.5 * kept


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def pure_drift(a_level, r_level, sigma):
    """A spec with growth a_level on [0.1, 0.9] (a vanishes at 0 and 1),
    a constant rate, no migration and no jumps, and its operators on 10
    cells."""
    spec = replace(rp.make_paper_spec(False),
                   sigma=sigma, gamma0=0.0, gamma1=0.0, nu1=0.0, nu2=0.0,
                   growth_a=tabulated([[0.0, 0.0], [0.1, a_level],
                                       [0.9, a_level], [1.0, 0.0]]),
                   growth_rate_r=tabulated([[0.0, r_level], [1.0, r_level]]))
    return spec, build_scheme(spec, rp.build_mesh(10))


def test_assemble_upwind_row_from_pure_drift():
    # D=0, b=0.5, dx=0.1, dt=0.005: upwind puts -b/dx above the diagonal
    spec, ops = pure_drift(a_level=0.5, r_level=1.0, sigma=0.0)
    n = ops.mesh.n_nodes
    sys = assemble_at(spec, ops, 0.005, neutral_controls(spec, ops.mesh),
                      np.zeros(n), np.zeros(n))
    i = 5
    assert sys.lower[i] == pytest.approx(0.0)
    assert sys.upper[i] == pytest.approx(-5.0)
    assert sys.diag[i] == pytest.approx(205.0)


def test_assemble_central_row_when_diffusion_dominates():
    # D=1, b=0.5, dx=0.1: central is admissible since 2D/dx = 20 >= 0.5
    spec, ops = pure_drift(a_level=1.0, r_level=0.5, sigma=np.sqrt(2.0))
    n = ops.mesh.n_nodes
    sys = assemble_at(spec, ops, 0.005, neutral_controls(spec, ops.mesh),
                      np.zeros(n), np.zeros(n))
    i = 5
    assert sys.lower[i] == pytest.approx(-97.5)
    assert sys.upper[i] == pytest.approx(-102.5)


def test_assemble_zero_data_gives_zero_solution():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN)
    mesh = rp.build_mesh(30)
    ops = build_scheme(spec, mesh)
    n = mesh.n_nodes
    sys = assemble_at(spec, ops, 0.005, neutral_controls(spec, mesh),
                      np.zeros(n), np.zeros(n))
    np.testing.assert_allclose(sys.rhs, 0.0, atol=1e-14)
    np.testing.assert_allclose(thomas_solve(*rows(*sys)), 0.0, atol=1e-14)


def test_assembled_rows_are_m_matrix_rows():
    spec = rp.make_paper_spec(True)
    mesh = rp.build_mesh(80)
    ops = build_scheme(spec, mesh)
    n = mesh.n_nodes
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0, n)
    controls = controls_at(spec, mesh, rng.choice([0.0, 1.0], n),
                           rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 2.0, n),
                           rng.uniform(0.2, 2.0, n))
    dt = 0.005
    sys = assemble_at(spec, ops, dt, controls, phi, phi)
    assert np.all(sys.lower <= 1e-12)
    assert np.all(sys.upper <= 1e-12)
    # the couplings past both ends are zero in the system
    assert sys.lower[0] == 0.0 and sys.upper[-1] == 0.0
    off = np.abs(sys.lower) + np.abs(sys.upper)
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
    controls = controls_at(spec, mesh, rng.choice([0.0, 1.0], n),
                           rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 2.0, n),
                           rng.uniform(0.2, 2.0, n))
    dt = 0.005
    sys = assemble_at(spec, ops, dt, controls, phi, phi)
    b = controls.drift
    th1, th2 = controls.theta_star
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
    drift = np.full((1, x.size), end_drift)
    p = _gradient(ops, phi[None], (drift, _central_mask(ops.two_d_dx, drift)))[0]
    assert p[0] == (phi[1] - phi[0]) / dx
    assert p[-1] == (phi[-1] - phi[-2]) / dx


def test_m_matrix_check_rejects_nan_entries():
    spec = rp.make_paper_spec(False)
    ops = build_scheme(spec, rp.build_mesh(20))
    n = ops.mesh.n_nodes
    controls = neutral_controls(spec, ops.mesh)
    controls.theta_star[0, 7] = np.nan
    with pytest.raises(SchemeError):
        assemble_at(spec, ops, 0.005, controls, np.zeros(n), np.zeros(n))


def test_extraction_hands_assembly_what_it_would_evaluate():
    # three candidates with a convex r, so q* takes all of 0, 0.5 and 1
    spec = replace(rp.make_paper_spec(True), q_grid_size=3,
                   growth_rate_r=tabulated([[0.0, 1.0], [0.5, 0.4], [1.0, 0.0]]))
    ops = build_scheme(spec, rp.build_mesh(200))
    x = ops.mesh.nodes
    phi = 4.0 * (x - 0.5) ** 2 + 0.1 * np.sin(9.0 * x)
    stencil = (ops.first_drift, ops.first_central)
    batch, w, _ = _extract_controls(ops, phi[None], stencil)
    controls = batch.row(0)
    assert set(controls.q_star.tolist()) == {0.0, 0.5, 1.0}
    reference, ref_w = reference_handoff(spec, ops, controls, phi)
    assert np.array_equal(controls.drift, reference.drift)
    assert np.array_equal(controls.cost, reference.cost)
    np.testing.assert_allclose(w[:, 0], ref_w, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def degenerate_spec(f_fn):
    # no noise, growth rate, migration or jumps: D = 0 and b = 0, so the
    # equation reduces to -phi_t = f, and the spec still validates
    return replace(rp.make_paper_spec(False), sigma=0.0, gamma0=0.0,
                   gamma1=0.0, nu1=0.0, nu2=0.0, growth_rate_r=zero_rate,
                   disutility_f=f_fn)


def test_step_backward_degenerate_analytic():
    spec = degenerate_spec(rp.make_paper_spec(False).disutility_f)
    mesh = rp.build_mesh(50)
    ops = build_scheme(spec, mesh)
    dt = 0.01
    phi_next = np.linspace(0.0, 1.0, mesh.n_nodes)
    expected = phi_next + dt * np.asarray(spec.disutility_f(mesh.nodes))
    phi, _, _ = step_backward(ops, dt, phi_next[None], 0.99)
    np.testing.assert_allclose(phi[0], expected, atol=1e-12)


def test_step_backward_zero_is_fixed_point():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN)
    mesh = rp.build_mesh(40)
    ops = build_scheme(spec, mesh)
    phi, stencil, n_iters = step_backward(ops, 0.005,
                                          np.zeros((1, mesh.n_nodes)), 0.995)
    controls = _extract_controls(ops, phi, stencil)[0]
    np.testing.assert_allclose(phi, 0.0, atol=1e-14)
    np.testing.assert_allclose(controls.lambda_star, 0.0, atol=1e-14)
    np.testing.assert_allclose(controls.theta_star, 1.0, atol=1e-14)
    assert n_iters == 1


def test_step_backward_nonconvergence_raises():
    spec = rp.make_paper_spec(False)
    mesh = rp.build_mesh(30)
    ops = build_scheme(spec, mesh)
    with pytest.raises(PolicyIterationError) as err:
        step_backward(ops, 0.005, np.zeros((1, mesh.n_nodes)), 0.495,
                      PolicyConfig(tol=1e-30, max_iter=1))
    assert err.value.residual > 0.0
    assert err.value.time_label == 0.495


def test_step_backward_stops_on_first_nonfinite_change():
    # phi_next / dt overflows the right-hand side on the first solve
    mesh = rp.build_mesh(30)
    ops = build_scheme(rp.make_paper_spec(False), mesh)
    with (pytest.raises(PolicyIterationError, match="after 1 iterations") as err,
          np.errstate(over="ignore")):
        step_backward(ops, 0.005, np.full((1, mesh.n_nodes), 1e308), 0.495)
    assert not np.isfinite(err.value.residual)


def test_solve_backward_single_step_constant_cost():
    const_f = tabulated([[0.0, 2.0], [1.0, 2.0]])
    spec = replace(degenerate_spec(const_f), horizon=0.005)
    mesh = rp.build_mesh(20)
    tg = rp.build_time_grid(0.005, 0.005)
    result = rp.solve_backward(spec, mesh, tg)
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
    # the spec checks itself when it is built, so no solve is handed it
    with pytest.raises(ValueError, match="psi0"):
        replace(rp.make_paper_spec(False), psi0=-1.0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")   # NaN raises, unwarned
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

@settings(max_examples=25, deadline=None)
@given(tables=st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k),
    st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))))
@example(tables=([1.0, 0.0, 1.0], [0.5, 0.5, 0.5]))     # the tent and tent + 0.5
def test_discrete_comparison_in_f(tables):
    # f1 <= f2 at every even knot, so everywhere: the values keep the order
    lower, gap = (np.asarray(values) for values in tables)
    knots = np.linspace(0.0, 1.0, lower.size)
    base = replace(rp.make_paper_spec(False), horizon=0.5)
    specs = [replace(base, disutility_f=tabulated(np.column_stack((knots, f))))
             for f in (lower, lower + gap)]
    phi = [r.final_value for r in rp.solve_many(
        specs, rp.build_mesh(20), rp.build_time_grid(0.5, 0.05))]
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
    th1, th2 = ctrl.theta_star
    assert np.max(np.abs(th1 - th2[::-1])) <= 1e-6


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


def test_ergodic_estimate_of_rows_is_each_row_alone():
    rows = np.random.default_rng(5).uniform(0.0, 1.0, (2, 3, 41))
    report = ergodic_estimate(rows[0], rows[1], 0.01)
    for j in range(3):
        alone = ergodic_estimate(rows[0, j], rows[1, j], 0.01)
        assert report.E_mean[j] == alone.E_mean
        assert report.E_spread[j] == alone.E_spread


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


# ---------------------------------------------------------------------------
# ergodic exit
# ---------------------------------------------------------------------------

def same_controls(a, b):
    """Every field of two `ControlField`s, bit for bit."""
    return all(np.array_equal(v, getattr(b, k)) for k, v in vars(a).items())


def plain_march(spec, mesh, time_grid):
    """The reference: every level marched by `step_backward`, no exit."""
    ops = build_scheme(spec, mesh)
    dt = time_grid.dt
    slices = {time_grid.n_steps: np.zeros(mesh.n_nodes)}
    controls = {}
    for m in range(time_grid.n_steps - 1, -1, -1):
        values, stencil, _ = step_backward(ops, dt, slices[m + 1][None],
                                           m * dt)
        level = _extract_controls(ops, values, stencil)[0]
        slices[m] = values[0]
        controls[m] = level.row(0)
    return slices, controls, ergodic_estimate(slices[0], slices[1], dt)


@pytest.mark.parametrize("with_control", [False, True])
def test_ergodic_exit_agrees_with_the_plain_march(with_control):
    spec = rp.make_paper_spec(with_control)
    mesh = rp.build_mesh(50)
    tg = rp.build_time_grid(50.0, 0.1)
    result = rp.solve_backward(spec, mesh, tg, snapshot_times=(5.0, 45.0),
                               record_controls=True)
    slices, controls, ergodic = plain_march(spec, mesh, tg)
    assert result.exit_time > 5.0
    m_exit = tg.level(result.exit_time)
    assert result.iteration_stats.size == tg.n_steps - m_exit

    np.testing.assert_allclose(result.final_value, slices[0], rtol=0.0,
                               atol=1e-8)
    assert abs(result.ergodic.E_mean - ergodic.E_mean) <= 1e-9
    # the report comes from the last two marched slices
    assert result.ergodic == ergodic_estimate(slices[m_exit],
                                              slices[m_exit + 1], tg.dt)
    early, late = result.snapshots
    np.testing.assert_allclose(early.values, slices[tg.level(5.0)], rtol=0.0,
                               atol=1e-8)
    # a marched level is the plain march's, bit for bit
    assert np.array_equal(late.values, slices[tg.level(45.0)])

    levels = result.control_table.levels
    assert len(levels) == tg.n_steps
    for m in range(m_exit, tg.n_steps):
        assert same_controls(levels[m], controls[m])
    # the unmarched levels share step m*'s controls
    assert all(levels[m] is levels[m_exit] for m in range(m_exit))
    assert result.final_controls is levels[m_exit]


def test_short_horizon_is_the_plain_march_bitwise():
    spec = replace(rp.make_paper_spec(True), horizon=1.0)
    mesh = rp.build_mesh(50)
    tg = rp.build_time_grid(1.0, 0.1)
    result = rp.solve_backward(spec, mesh, tg)
    slices, controls, ergodic = plain_march(spec, mesh, tg)
    assert result.exit_time == 0.0
    assert result.iteration_stats.size == tg.n_steps
    assert np.array_equal(result.final_value, slices[0])
    assert result.ergodic == ergodic
    assert same_controls(result.final_controls, controls[0])


def test_degenerate_spec_marches_to_zero():
    # -phi_t = f: the per-node E is f itself, so its spread never settles
    f_fn = rp.make_paper_spec(False).disutility_f
    spec = replace(degenerate_spec(f_fn), horizon=50.0)
    mesh = rp.build_mesh(50)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(50.0, 0.5))
    f = np.asarray(f_fn(mesh.nodes), dtype=float)
    assert result.exit_time == 0.0
    assert result.iteration_stats.size == 100
    np.testing.assert_allclose(result.final_value, 50.0 * f, rtol=0.0,
                               atol=1e-10 * 50.0)
    assert result.ergodic.E_spread == pytest.approx(
        np.max(np.abs(f - f.mean())))


# ---------------------------------------------------------------------------
# the batch
# ---------------------------------------------------------------------------

def batch_specs():
    """Three controlled specs whose scalars and q tables differ; the third
    has smaller jump intensities, so its policy iteration converges in fewer
    iterations and it exits much earlier."""
    base = replace(rp.make_paper_spec(True), horizon=40.0)
    return [replace(base, psi0=0.25),
            replace(base, sigma=0.7, q_max=0.5),
            replace(base, psi0=2.0, q_max=0.8, nu1=0.5, nu2=0.5)]


def assert_batch_is_each_spec_alone(specs, record_controls):
    """Solve `specs` as one batch and each spec alone (30 cells, T = 40, dt
    = 0.2) and compare every result bit for bit; returns the batch's."""
    mesh, tg = rp.build_mesh(30), rp.build_time_grid(40.0, 0.2)
    times = (0.0, 1.0, 30.0, 40.0)
    batch = rp.solve_many(specs, mesh, tg, snapshot_times=times,
                          record_controls=record_controls)
    for spec, got in zip(specs, batch):
        alone = rp.solve_backward(spec, mesh, tg, snapshot_times=times,
                                  record_controls=record_controls)
        assert np.array_equal(got.final_value, alone.final_value)
        assert same_controls(got.final_controls, alone.final_controls)
        assert np.array_equal(got.iteration_stats, alone.iteration_stats)
        assert got.exit_time == alone.exit_time
        assert got.ergodic == alone.ergodic
        assert [s.time for s in got.snapshots] == [s.time
                                                  for s in alone.snapshots]
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(got.snapshots, alone.snapshots))
        if record_controls:
            levels = got.control_table.levels
            assert len(levels) == len(alone.control_table.levels)
            assert all(same_controls(a, b) for a, b in
                       zip(levels, alone.control_table.levels))
    return batch


@pytest.mark.parametrize("record_controls", [False, True])
def test_batch_is_each_spec_alone_bitwise(record_controls):
    batch = assert_batch_is_each_spec_alone(batch_specs(), record_controls)
    # specs leave the batch within a step and at different exits
    assert len({r.exit_time for r in batch}) == 3
    assert len({int(r.iteration_stats[-1]) for r in batch}) == 2


def ragged_q_specs():
    """Two controlled specs whose q tables have three and five candidates."""
    base = replace(rp.make_paper_spec(True), horizon=40.0)
    return [replace(base, psi0=0.25, q_grid_size=3, growth_rate_r=tabulated(
                [[0.0, 1.0], [0.5, 0.4], [1.0, 0.0]])),
            replace(base, q_grid_size=5, q_max=0.8)]


@pytest.mark.parametrize("record_controls", [False, True])
def test_batch_of_q_tables_of_different_lengths(record_controls):
    # the three-candidate table is padded to five by repeating q = 1
    batch = assert_batch_is_each_spec_alone(ragged_q_specs(), record_controls)
    assert 0.5 in batch[0].final_controls.q_star


# the fields of SchemeOperators that are not stacked over the specs
SHARED_FIELDS = ("index", "batch_size", "mesh", "jumps")


def test_a_subset_is_the_batch_of_its_specs():
    specs = batch_specs()
    mesh = rp.build_mesh(30)
    ops = build_scheme(specs, mesh)
    per_spec = [f.name for f in fields(ops) if f.name not in SHARED_FIELDS]
    # one layout rule: every per-spec entry is an array whose axis -2 runs
    # over the specs, q tables of 3, 5 and 2 candidates included
    ragged = build_scheme(ragged_q_specs() + specs[2:], mesh)
    for name in per_spec:
        value = getattr(ragged, name)
        assert isinstance(value, np.ndarray), name
        assert value.shape[-2] == 3, name
    for size in range(1, len(specs) + 1):
        for positions in itertools.combinations(range(len(specs)), size):
            got = ops.subset(positions)
            assert got.jumps is ops.jumps
            fresh = build_scheme([specs[i] for i in positions], mesh)
            for name in per_spec:
                mine, theirs = getattr(got, name), getattr(fresh, name)
                assert mine.shape == theirs.shape, (positions, name)
                assert np.array_equal(mine, theirs), (positions, name)
            w, w_fresh = got.jumps.weights, fresh.jumps.weights
            assert w.shape == w_fresh.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(w, part), getattr(w_fresh, part))


def test_operators_are_freed_without_the_cycle_collector():
    ops = build_scheme(batch_specs(), rp.build_mesh(30))
    sub = ops.subset((0, 2))
    refs = (weakref.ref(ops), weakref.ref(sub))
    gc.disable()
    try:
        del ops, sub
        assert [ref() is None for ref in refs] == [True, True]
    finally:
        gc.enable()


def test_empty_batch_solves_nothing():
    assert rp.solve_many([], rp.build_mesh(10),
                         rp.build_time_grid(40.0, 1.0)) == []


def test_batch_rejects_specs_with_other_jump_densities():
    specs = batch_specs()
    specs[2] = replace(specs[2], jump_density_2=rp.uniform_density(0.2, 0.9))
    with pytest.raises(ValueError, match="jump_density_2 of spec 2"):
        rp.solve_many(specs, rp.build_mesh(10), rp.build_time_grid(40.0, 1.0))


def test_batch_failure_names_the_spec():
    specs = batch_specs()
    specs[1] = replace(specs[1], disutility_f=ZERO_FN)
    # the zero-cost spec settles on the first iterate; the others stall
    with pytest.raises(PolicyIterationError, match="of spec 0 stalled") as err:
        rp.solve_many(specs, rp.build_mesh(10), rp.build_time_grid(40.0, 1.0),
                      policy=PolicyConfig(max_iter=2))
    assert err.value.spec_index == 0
    with pytest.raises(PolicyIterationError) as err:
        rp.solve_many(specs[1:], rp.build_mesh(10),
                      rp.build_time_grid(40.0, 1.0),
                      policy=PolicyConfig(max_iter=2))
    assert err.value.spec_index == 1


@pytest.mark.parametrize("overflowing", [0, 1])
def test_an_overflowing_spec_is_named(overflowing):
    # phi_next / dt overflows one spec's right-hand side on the first solve
    specs = batch_specs()[:2]
    mesh = rp.build_mesh(30)
    ops = build_scheme(specs, mesh)
    phi_next = np.zeros((2, mesh.n_nodes))
    phi_next[overflowing] = 1e308
    with (pytest.raises(PolicyIterationError, match="after 1 iterations") as err,
          np.errstate(over="ignore")):
        step_backward(ops, 0.005, phi_next, 0.495)
    assert err.value.spec_index == overflowing


def test_systems_laid_end_to_end_are_each_solved_alone():
    rng = np.random.default_rng(11)
    n = 12
    lower, upper = -rng.uniform(0.0, 1.0, (2, 3, n))
    lower[:, 0] = upper[:, -1] = 0.0
    diag = 2.5 + rng.uniform(0.0, 1.0, (3, n))
    rhs = rng.uniform(-5.0, 5.0, (3, n))
    rhs[1, 4] = np.inf      # the middle system overflows

    def alone(j):
        return thomas_solve(lower[j:j + 1], diag[j:j + 1], upper[j:j + 1],
                            rhs[j:j + 1])[0]

    with np.errstate(invalid="ignore"):
        joint = thomas_solve(lower, diag, upper, rhs)
        middle = alone(1)
    assert np.array_equal(joint[0], alone(0))
    assert np.array_equal(joint[2], alone(2))
    assert np.array_equal(joint[1], middle, equal_nan=True)


def test_batch_scheme_error_names_the_spec():
    specs = batch_specs()[:2]
    specs[1] = replace(specs[1], growth_a=tabulated(
        [[0.0, 0.0], [0.5, 1e300], [1.0, 0.0]]))
    with (pytest.raises(SchemeError, match="system of spec 1") as err,
          np.errstate(all="ignore")):
        rp.solve_many(specs, rp.build_mesh(10), rp.build_time_grid(40.0, 1.0))
    assert err.value.spec_index == 1
