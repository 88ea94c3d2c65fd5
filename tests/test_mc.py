import numpy as np
import pytest
from dataclasses import replace

import robpop as rp
from robpop.mc import SimConfig, make_jump_sampler
from robpop.model import tabulated, tabulated_density, uniform_density
from robpop.solver import ControlTable

ZERO_FN = tabulated([[0.0, 0.0], [1.0, 0.0]])
ONE_FN = tabulated([[0.0, 1.0], [1.0, 1.0]])


def constant_table(horizon, q=0.0, lam=0.0, th1=1.0, th2=1.0):
    """One control slice held over the whole horizon: a one-step time grid."""
    mesh = rp.build_mesh(10)
    one = np.ones((1, mesh.n_nodes))
    return ControlTable(time_grid=rp.build_time_grid(horizon, horizon),
                        mesh=mesh, q=q * one, lam=lam * one, theta1=th1 * one,
                        theta2=th2 * one)


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


# ---------------------------------------------------------------------------
# value estimation
# ---------------------------------------------------------------------------

def test_zero_cost_zero_distortion_is_exactly_zero():
    spec = replace(rp.make_paper_spec(False), disutility_f=ZERO_FN,
                   horizon=0.25)
    est = rp.simulate_value(spec, constant_table(spec.horizon),
                            SimConfig(dt_sim=0.005, n_paths=64, master_seed=1))
    assert est.mean == 0.0
    assert est.std_err == 0.0


def test_constant_rate_integral_is_exact():
    # frozen state, unit disutility: the left-endpoint rule integrates to
    # exactly T with a dyadic step
    spec = replace(rp.make_paper_spec(False), sigma=0.0, nu1=0.0, nu2=0.0,
                   gamma0=0.0, gamma1=0.0, growth_a=ZERO_FN,
                   disutility_f=ONE_FN, horizon=2.0)
    est = rp.simulate_value(spec, constant_table(spec.horizon),
                            SimConfig(dt_sim=2.0 ** -11, n_paths=8,
                                      master_seed=3))
    assert est.mean == 2.0
    assert est.std_err == 0.0


def test_bitwise_reproducibility():
    spec = replace(rp.make_paper_spec(False), horizon=0.5)
    cfg = SimConfig(dt_sim=0.002, n_paths=3_000, master_seed=11)
    table = constant_table(spec.horizon, lam=0.2, th1=0.8, th2=1.2)
    a = rp.simulate_value(spec, table, cfg)
    b = rp.simulate_value(spec, table, cfg)
    assert (a.mean, a.std_err, a.n_paths) == (b.mean, b.std_err, b.n_paths)


def test_chunking_covers_all_paths():
    spec = replace(rp.make_paper_spec(False), horizon=0.1)
    cfg = SimConfig(dt_sim=0.005, n_paths=1_000, master_seed=5, chunk_size=128)
    batch = rp.simulate_paths(spec, constant_table(spec.horizon), cfg)
    assert batch.total.size == 1_000


def test_states_stay_in_unit_interval():
    spec = replace(rp.make_paper_spec(False), sigma=2.0, horizon=1.0)
    cfg = SimConfig(dt_sim=0.001, n_paths=2_000, master_seed=9, start_x=0.9)
    batch = rp.simulate_paths(spec, constant_table(spec.horizon, th1=1.5,
                                                   th2=1.5), cfg)
    assert batch.x_min.min() >= 0.0
    assert batch.x_max.max() <= 1.0


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_thinning_matches_poisson_rate(theta):
    spec = replace(rp.make_paper_spec(False), theta_max=4.0, horizon=2.0)
    cfg = SimConfig(dt_sim=0.001, n_paths=4_000, master_seed=17)
    batch = rp.simulate_paths(spec, constant_table(spec.horizon, th1=theta,
                                                   th2=theta), cfg)
    expected = cfg.n_paths * spec.nu1 * theta * spec.horizon
    tolerance = 4.0 * np.sqrt(expected)
    assert abs(batch.jumps_down.sum() - expected) <= tolerance
    assert abs(batch.jumps_up.sum() - expected) <= tolerance


def test_penalty_part_never_positive():
    spec = replace(rp.make_paper_spec(False), horizon=0.5)
    cfg = SimConfig(dt_sim=0.002, n_paths=500, master_seed=23)
    batch = rp.simulate_paths(
        spec, constant_table(spec.horizon, lam=0.4, th1=0.6, th2=1.7), cfg)
    assert batch.penalty.max() <= 0.0
    assert np.all(batch.total <= batch.disutility)


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
    table = constant_table(spec.horizon)
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
