import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

import robpop as rp
from robpop.jump_ops import entropy_penalty
from robpop.mc import SimConfig, make_jump_sampler
from robpop.model import (tabulated, tabulated_density, tent_disutility,
                          uniform_density)
from robpop.solver import ControlTable, running_cost

from conftest import controls_at, entropy_weight

ZERO_FN = tabulated([[0.0, 0.0], [1.0, 0.0]])
ONE_FN = tabulated([[0.0, 1.0], [1.0, 1.0]])


def constant_table(spec, q=0.0, lam=0.0, th1=1.0, th2=1.0):
    """One control slice held over the whole horizon: a one-step time grid.
    Its drift and running-cost rows come from the spec's coefficients."""
    mesh = rp.build_mesh(10)
    one = np.ones(mesh.n_nodes)
    grid = rp.build_time_grid(spec.horizon, spec.horizon)
    return ControlTable(time_grid=grid, mesh=mesh,
                        levels=[controls_at(spec, mesh, q * one, lam * one,
                                            th1 * one, th2 * one)])


# ---------------------------------------------------------------------------
# jump-size sampling
# ---------------------------------------------------------------------------

def test_uniform_jump_sample_mean(rng):
    sampler = make_jump_sampler(uniform_density(0.1, 0.9))
    draws = sampler.sample(rng, 1_000_000)
    # CLT bound: 4 * (0.8 / sqrt(12)) / 1e3
    assert abs(draws.mean() - 0.5) <= 4.0 * (0.8 / np.sqrt(12.0)) / 1e3
    assert draws.min() >= 0.1 and draws.max() <= 0.9


def test_samples_respect_support(rng):
    for lo, hi in ((0.05, 0.2), (0.4, 0.9), (0.3, 0.35)):
        sampler = make_jump_sampler(uniform_density(lo, hi))
        draws = sampler.sample(rng, 10_000)
        assert draws.min() >= lo and draws.max() <= hi


def test_tabulated_density_sampling_mean(rng):
    # symmetric triangle on [0.2, 0.8] has mean 0.5
    density = tabulated_density([[0.2, 0.0], [0.5, 1.0], [0.8, 0.0]])
    draws = make_jump_sampler(density).sample(rng, 200_000)
    assert draws.mean() == pytest.approx(0.5, abs=2e-3)


# the sampler and both quadratures: every reader of a jump density
EACH_DENSITY_READER = pytest.mark.parametrize("build", [
    make_jump_sampler,
    lambda density: rp.build_jump_quadrature(rp.build_mesh(10), density,
                                             "down"),
    lambda density: rp.build_jump_quadrature(rp.build_mesh(10), density, "up"),
], ids=["sampler", "down", "up"])


@pytest.mark.parametrize("ys", [[np.nan, 5.0], [5.0, np.inf]])
@EACH_DENSITY_READER
def test_nonfinite_jump_density_is_rejected(ys, build):
    # the table raises when it is built, so neither the sampler nor a
    # quadrature is ever handed it
    with pytest.raises(ValueError, match="finite nonnegative knot values"):
        build(rp.JumpDensity(xs=np.asarray([0.2, 0.4]), ys=np.asarray(ys)))


@EACH_DENSITY_READER
def test_a_grid_that_misses_the_density_is_rejected(build):
    # a valid density whose mass lies in [0.50005, 0.50015]: between two
    # nodes of the sampler's CDF grid (spacing 0.8/4096, nodes at 0.5 and
    # 0.50020) and between two of the 64 quadrature points (0.49375, 0.50625)
    density = tabulated_density([[0.1, 0.0], [0.50005, 0.0], [0.5001, 1.0],
                                 [0.50015, 0.0], [0.9, 0.0]])
    assert rp.validate_spec(replace(rp.make_paper_spec(False),
                                    jump_density_1=density)) == []
    with pytest.raises(ValueError, match="carr(y|ies) no mass"):
        build(density)


# ---------------------------------------------------------------------------
# value estimation
# ---------------------------------------------------------------------------

def test_zero_cost_zero_distortion_is_exactly_zero():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN,
                   horizon=0.25)
    est = rp.simulate_value(spec, constant_table(spec),
                            SimConfig(dt_sim=0.005, n_paths=64, master_seed=1))
    assert est.mean == 0.0
    assert est.std_err == 0.0


def test_constant_rate_integral_is_exact():
    # frozen state, unit disutility: the left-endpoint rule integrates to
    # exactly T with a dyadic step
    spec = replace(rp.make_paper_spec(False), sigma=0.0, nu1=0.0, nu2=0.0,
                   gamma0=0.0, gamma1=0.0, growth_a=ZERO_FN,
                   disutility_f=ONE_FN, horizon=2.0)
    est = rp.simulate_value(spec, constant_table(spec),
                            SimConfig(dt_sim=2.0 ** -11, n_paths=8,
                                      master_seed=3))
    assert est.mean == 2.0
    assert est.std_err == 0.0


def test_bitwise_reproducibility():
    spec = replace(rp.make_paper_spec(False), horizon=0.5)
    cfg = SimConfig(dt_sim=0.002, n_paths=3_000, master_seed=11)
    table = constant_table(spec, lam=0.2, th1=0.8, th2=1.2)
    a = rp.simulate_value(spec, table, cfg)
    b = rp.simulate_value(spec, table, cfg)
    assert (a.mean, a.std_err, a.n_paths) == (b.mean, b.std_err, b.n_paths)


def test_chunking_covers_all_paths(monkeypatch):
    monkeypatch.setattr(rp.mc, "CHUNK_PATHS", 128)
    spec = replace(rp.make_paper_spec(False), horizon=0.1)
    cfg = SimConfig(dt_sim=0.005, n_paths=1_000, master_seed=5)
    batch = rp.simulate_paths(spec, constant_table(spec), cfg)
    assert batch.total.size == 1_000


def test_states_stay_in_unit_interval():
    spec = replace(rp.make_paper_spec(False), sigma=2.0, horizon=1.0)
    cfg = SimConfig(dt_sim=0.001, n_paths=2_000, master_seed=9, start_x=0.9)
    batch = rp.simulate_paths(spec, constant_table(spec, th1=1.5,
                                              th2=1.5), cfg)
    assert batch.x_min.min() >= 0.0
    assert batch.x_max.max() <= 1.0


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.0])
def test_thinning_matches_poisson_rate(theta):
    # a constant row is its own bound: every candidate is a jump, and a zero
    # row proposes none
    spec = replace(rp.make_paper_spec(False), theta_max=4.0, horizon=2.0)
    cfg = SimConfig(dt_sim=0.001, n_paths=4_000, master_seed=17)
    batch = rp.simulate_paths(spec, constant_table(spec, th1=theta,
                                              th2=theta), cfg)
    expected = cfg.n_paths * spec.nu1 * theta * spec.horizon
    tolerance = 4.0 * np.sqrt(expected)
    assert abs(batch.jumps_down.sum() - expected) <= tolerance
    assert abs(batch.jumps_up.sum() - expected) <= tolerance
    assert (abs(batch.thin_candidates.sum() - 2.0 * expected)
            <= 4.0 * np.sqrt(2.0 * expected))


def test_thinning_at_the_row_bound_with_theta_varying_in_x():
    # at x = 0 the growth a, the drift (gamma1 = 0) and the diffusion vanish
    # and a down jump maps 0 to 0, so paths never move; theta runs from 0.3
    # at x = 0 to 3.0 at x = 1, so candidates arrive at nu1 * 3.0 and one in
    # ten is accepted
    spec = replace(rp.make_paper_spec(False), nu2=0.0, gamma1=0.0,
                   horizon=2.0)
    table = constant_table(spec, th1=np.linspace(0.3, 3.0, 11))
    cfg = SimConfig(dt_sim=0.001, n_paths=4_000, master_seed=31, start_x=0.0)
    batch = rp.simulate_paths(spec, table, cfg)
    assert batch.x_max.max() == 0.0
    assert batch.jumps_up.sum() == 0
    jump_rate = spec.nu1 * 0.3 * spec.horizon
    assert (abs(batch.jumps_down.mean() - jump_rate)
            <= 4.0 * np.sqrt(jump_rate / cfg.n_paths))
    candidates = spec.nu1 * 3.0 * spec.horizon * cfg.n_paths
    assert (abs(batch.thin_candidates.sum() - candidates)
            <= 4.0 * np.sqrt(candidates))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-100.0, 100.0),
                          st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
                min_size=1, max_size=20),
       st.floats(0.0, 10.0))
def test_penalty_part_never_positive(controls, h):
    # the distortion penalty -lambda^2/(2 psi0) - sum (nu/psi)(theta ln theta
    # + 1 - theta) is never positive, so the running cost never exceeds f + h
    spec = rp.make_paper_spec(True)
    lam, th1, th2 = (np.asarray(c, dtype=float) for c in zip(*controls))
    f = np.linspace(0.0, 1.0, lam.size)
    cost = running_cost(spec.psi0, entropy_weight(spec), f,
                        np.full(lam.size, h), lam, np.stack((th1, th2)))
    assert np.all(cost <= f + h)


def test_estimate_agrees_with_solver_at_desk_scale():
    spec = replace(rp.make_paper_spec(False), horizon=1.0)
    mesh = rp.build_mesh(60)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(1.0, 0.005),
                               record_controls=True)
    pde_value = float(np.interp(0.5, mesh.nodes, result.final_value))
    est = rp.simulate_value(spec, result.control_table,
                            SimConfig(dt_sim=0.002, n_paths=4_000,
                                      master_seed=29))
    assert abs(est.mean - pde_value) <= 3.0 * est.std_err + 0.02


# ---------------------------------------------------------------------------
# node rows: the oracle's shortcut against the per-path composition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_control", [False, True])
def test_node_rows_match_the_per_path_composition(with_control):
    # the oracle interpolates node rows of cost, drift and diffusion; the
    # plain path interpolates the controls and composes the coefficients at
    # each point. They differ by the interpolation error of the composed
    # functions: sigma a(x) is quadratic, so the diffusion gap is at most
    # sigma dx^2 / 4, and the bang-bang q* switch smears the controlled drift
    # across one cell (measured: cost 1.06e-5 on both presets, drift 1.2e-5
    # uncontrolled and 9.7e-4 controlled)
    spec = replace(rp.make_paper_spec(with_control), horizon=2.0)
    mesh = rp.build_mesh(200)
    table = rp.solve_backward(spec, mesh, rp.build_time_grid(2.0, 0.005),
                              record_controls=True).control_table
    xs = np.linspace(0.0, 1.0, 20_001)
    idx, w = mesh.locate(xs)
    nodes = mesh.nodes
    a_xs = spec.growth_a(xs)
    diffusion = rp.mc._row("diffusion", spec.sigma * spec.growth_a(nodes))
    assert (np.abs(rp.mc._lerp(diffusion, idx, w) - spec.sigma * a_xs).max()
            <= spec.sigma * mesh.dx ** 2 / 4.0 + 1e-12)

    cost_gap = drift_gap = 0.0
    for level in {id(lv): lv for lv in table.levels}.values():
        cost_row, drift_row, _, _ = rp.mc._level_rows(level)
        q, lam, th1, th2 = (np.interp(xs, nodes, row) for row in (
            level.q_star, level.lambda_star, level.theta1_star,
            level.theta2_star))
        cost = (spec.disutility_f(xs) + spec.cost_h(q)
                - lam ** 2 / (2.0 * spec.psi0)
                - (spec.nu1 / spec.psi1) * entropy_penalty(th1)
                - (spec.nu2 / spec.psi2) * entropy_penalty(th2))
        plain_drift = (a_xs * spec.growth_rate_r(q) + spec.sigma * lam * a_xs
                       + spec.gamma1 - (spec.gamma0 + spec.gamma1) * xs)
        cost_gap = max(cost_gap,
                       np.abs(rp.mc._lerp(cost_row, idx, w) - cost).max())
        drift_gap = max(drift_gap, np.abs(rp.mc._lerp(drift_row, idx, w)
                                          - plain_drift).max())
    assert cost_gap <= 5e-5
    assert drift_gap <= 2e-3


class CallCounter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_coefficient_calls_do_not_depend_on_paths_or_steps_per_level():
    spec = replace(rp.make_paper_spec(True), horizon=0.1)
    table = rp.solve_backward(spec, rp.build_mesh(20),
                              rp.build_time_grid(0.1, 0.01),
                              record_controls=True).control_table
    names = ("growth_a", "growth_rate_r", "cost_h", "disutility_f")
    calls = []
    # every run fits in one chunk; dt_sim = table dt / 4 gives four steps
    # per level
    for n_paths, dt_sim in ((50, 0.01), (500, 0.01), (50, 0.0025)):
        counters = {name: CallCounter(getattr(spec, name)) for name in names}
        rp.simulate_paths(replace(spec, **counters), table,
                          SimConfig(dt_sim=dt_sim, n_paths=n_paths,
                                    master_seed=7))
        calls.append({name: c.calls for name, c in counters.items()})
    assert calls[0] == calls[1] == calls[2]
    # a once per call for the diffusion row; the table carries the rest
    assert calls[0] == {"growth_a": 1, "disutility_f": 0,
                        "growth_rate_r": 0, "cost_h": 0}


def nan_at_half(fn):
    def coefficient(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.5, np.nan, fn(x))
    return coefficient


@pytest.mark.parametrize("name, override, controls", [
    ("running cost", {"disutility_f": nan_at_half(tent_disutility)}, {}),
    ("running cost", {"cost_h": nan_at_half(rp.model.tenth_cost)},
     {"q": np.linspace(0.0, 1.0, 11)}),
    ("running cost", {}, {"th1": np.where(np.linspace(0.0, 1.0, 11) == 0.5,
                                          np.nan, 1.0)}),
    ("drift", {"growth_rate_r": nan_at_half(rp.model.declining_rate)},
     {"q": np.linspace(0.0, 1.0, 11)}),
    ("diffusion", {"growth_a": nan_at_half(rp.model.logistic_growth)}, {}),
], ids=lambda v: v.replace(" ", "_") if isinstance(v, str) else None)
def test_non_finite_row_fails_fast(name, override, controls):
    # a NaN at one node used to reach the path state and surface as a
    # misleading "interpolation points must lie in [0, 1]"
    spec = replace(rp.make_paper_spec(False), horizon=0.1, **override)
    with pytest.raises(ValueError, match=f"{name} row is not finite at node 5"):
        rp.simulate_paths(spec, constant_table(spec, **controls),
                          SimConfig(dt_sim=0.01, n_paths=16))


# ---------------------------------------------------------------------------
# argument validation and table lookup
# ---------------------------------------------------------------------------

def test_rejects_horizon_not_covered_by_controls():
    spec = replace(rp.make_paper_spec(False), horizon=1.0)
    mesh = rp.build_mesh(20)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(1.0, 0.01),
                               record_controls=True)
    longer = replace(spec, horizon=2.0)
    with pytest.raises(ValueError, match="cover"):
        rp.simulate_value(longer, result.control_table,
                          SimConfig(dt_sim=0.005, n_paths=4))
    # a table from a longer solve: its rows carry the wrong time-to-go
    long_table = rp.solve_backward(longer, mesh, rp.build_time_grid(2.0, 0.01),
                                   record_controls=True).control_table
    with pytest.raises(ValueError, match="cover"):
        rp.simulate_value(spec, long_table, SimConfig(dt_sim=0.005, n_paths=4))


def test_rejects_dt_sim_coarser_than_table():
    spec = replace(rp.make_paper_spec(False), horizon=0.5)
    mesh = rp.build_mesh(20)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(0.5, 0.01),
                               record_controls=True)
    with pytest.raises(ValueError, match="dt_sim"):
        rp.simulate_value(spec, result.control_table,
                          SimConfig(dt_sim=0.02, n_paths=4))


def test_rejects_bad_config():
    spec = replace(rp.make_paper_spec(False), horizon=0.5)
    table = constant_table(spec)
    with pytest.raises(ValueError):
        rp.simulate_value(spec, table, SimConfig(dt_sim=-0.1, n_paths=4))
    with pytest.raises(ValueError):
        rp.simulate_value(spec, table, SimConfig(dt_sim=0.001, n_paths=4,
                                                 start_x=1.5))
    with pytest.raises(ValueError):
        rp.simulate_value(spec, table, SimConfig(dt_sim=0.001, n_paths=4,
                                                 start_t=0.5))


def test_control_table_nearest_lookup():
    grid = rp.build_time_grid(0.02, 0.01)
    # the lookup simulate_paths uses to pick a control slice per time step
    levels = grid.nearest([0.004, 0.006, 0.015, 0.3])
    assert levels[0] == 0
    assert levels[1] == 1
    assert levels[2] == 1  # ties resolve to the earlier level
    assert levels[3] == 2
    assert levels[1] * grid.dt == pytest.approx(0.01)
