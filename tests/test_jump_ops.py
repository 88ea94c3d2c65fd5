import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from robpop.grid import build_mesh
from robpop.jump_ops import (JumpQuadrature, apply_nonlocal,
                             build_jump_quadrature, entropy_penalty)
from robpop.model import tabulated_density, uniform_density

from conftest import nonlocal_at


def brute_force_distorted_jump(delta, nu, psi, theta_grid):
    """Direct minimization of nu*theta*delta + (nu/psi)(theta ln theta + 1 - theta)."""
    penalty = xlogy(theta_grid, theta_grid) + 1.0 - theta_grid
    objective = (nu * theta_grid[:, None] * delta[None, :]
                 + (nu / psi) * penalty[:, None])
    return objective.min(axis=0)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(100)


def test_down_transform_pins_origin(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "down")
    row = quad.weights.getrow(0).toarray().ravel()
    assert row[0] == pytest.approx(1.0, abs=1e-12)
    assert row[1:].sum() == pytest.approx(0.0, abs=1e-12)


def test_up_transform_pins_right_endpoint(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "up")
    row = quad.weights.getrow(-1).toarray().ravel()
    assert row[-1] == pytest.approx(1.0, abs=1e-12)


def test_down_expectation_matches_analytic_integral(mesh):
    # int (1-z) dz / 0.2 over [0.2, 0.4] = 0.7 for phi(x) = x at x = 1
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "down",
                                 n_quad=64)
    result = quad.weights @ mesh.nodes
    assert result[-1] == pytest.approx(0.7, abs=2e-3)


def test_up_expectation_matches_analytic_integral(mesh):
    # int z dz / 0.2 over [0.2, 0.4] = 0.3 for phi(x) = x at x = 0
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "up",
                                 n_quad=64)
    result = quad.weights @ mesh.nodes
    assert result[0] == pytest.approx(0.3, abs=2e-3)


def test_constant_field_passes_through(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "down")
    out = quad.weights @ np.full(mesh.n_nodes, 3.25)
    np.testing.assert_allclose(out, 3.25, atol=1e-12)


def test_expectation_rejects_mismatched_field(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "down")
    with pytest.raises(ValueError):
        apply_nonlocal(quad, np.zeros(7), psi=0.5, theta_max=100.0)


def test_build_rejects_bad_arguments(mesh):
    with pytest.raises(ValueError):
        build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "down", n_quad=1)
    with pytest.raises(ValueError):
        build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "sideways")


def test_nonlocal_constant_field(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "down")
    values, delta, theta = nonlocal_at(quad, np.full(mesh.n_nodes, 2.0),
                                          nu=1.0, psi=0.5, theta_max=100.0)
    np.testing.assert_allclose(delta, 0.0, atol=1e-12)
    np.testing.assert_allclose(values, 0.0, atol=1e-12)
    np.testing.assert_allclose(theta, 1.0, atol=1e-12)


def test_nonlocal_closed_form_hand_value(mesh):
    # phi(x)=x, uniform g on [0.2, 0.4], down transform, node x=1:
    # delta = 0.3, value = 2(1 - exp(-0.15)), theta* = exp(-0.15)
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "down",
                                 n_quad=64)
    values, delta, theta = nonlocal_at(quad, mesh.nodes.copy(), nu=1.0,
                                          psi=0.5, theta_max=100.0)
    assert delta[-1] == pytest.approx(0.3, abs=2e-3)
    assert values[-1] == pytest.approx(0.2785840471498844, abs=2e-3)
    assert theta[-1] == pytest.approx(0.8607079764250578, abs=2e-3)


def test_theta_star_half_at_two_log_two():
    # engineered gap: jump size 0.5 with certainty puts the down expectation
    # of the node x=1 entirely on x=0.5
    quad = JumpQuadrature(weights=sp.csr_matrix([[1.0, 0.0, 0.0],
                                                 [0.5, 0.5, 0.0],
                                                 [0.0, 1.0, 0.0]]))
    phi = np.asarray([0.0, 0.0, 2.0 * np.log(2.0)])
    _, delta, theta = nonlocal_at(quad, phi, nu=1.0, psi=0.5,
                                     theta_max=100.0)
    assert delta[-1] == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
    assert theta[-1] == pytest.approx(0.5, abs=1e-12)


def test_theta_star_clamped_to_theta_max(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "down")
    phi = -50.0 * mesh.nodes  # strongly negative delta, exp(-psi delta) huge
    _, _, theta = nonlocal_at(quad, phi, nu=1.0, psi=0.5, theta_max=3.0)
    assert theta.max() <= 3.0


def test_nonlocal_rejects_bad_psi(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.2, 0.4), "down")
    with pytest.raises(ValueError):
        apply_nonlocal(quad, np.zeros(mesh.n_nodes), psi=0.0,
                       theta_max=100.0)


def test_apply_nonlocal_on_a_batch_is_each_field_alone(mesh):
    # rows of W are not sorted by column; stacking keeps their order, so
    # every field of a batch gets bitwise what it gets alone and each jump
    # kind's gap is bitwise its own quadrature's
    quads = [build_jump_quadrature(mesh, uniform_density(0.1, 0.9), kind)
             for kind in ("down", "up")]
    assert not quads[0].weights.has_sorted_indices
    jumps = JumpQuadrature(weights=sp.vstack([q.weights for q in quads],
                                             format="csr"))
    phi = np.random.default_rng(5).uniform(0.0, 3.0, (3, mesh.n_nodes))
    psi = np.asarray([[[0.5], [1.0], [2.0]], [[1.0], [0.25], [0.5]]])
    theta_max = np.asarray([[100.0], [1.5], [50.0]])
    delta, theta = apply_nonlocal(jumps, phi, psi, theta_max)
    assert delta.shape == theta.shape == (2, 3, mesh.n_nodes)
    for j in range(3):
        alone = apply_nonlocal(jumps, phi[j], psi[:, j], theta_max[j])
        assert alone[0].shape == (2, mesh.n_nodes)
        assert np.array_equal(delta[:, j], alone[0])
        assert np.array_equal(theta[:, j], alone[1])
        one = apply_nonlocal(jumps, phi[j:j + 1], psi[:, j:j + 1],
                             theta_max[j:j + 1])
        assert np.array_equal(delta[:, j:j + 1], one[0])
        assert np.array_equal(theta[:, j:j + 1], one[1])
        for kind, quad in enumerate(quads):
            assert np.array_equal(delta[kind, j],
                                  phi[j] - quad.weights @ phi[j])


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(0.05, 0.6), width=st.floats(0.01, 0.35),
       kind=st.sampled_from(["down", "up"]), n_cells=st.integers(5, 120))
def test_rows_nonnegative_and_sum_to_one(lo, width, kind, n_cells):
    mesh = build_mesh(n_cells)
    quad = build_jump_quadrature(mesh, uniform_density(lo, min(lo + width, 0.95)),
                                 kind, n_quad=32)
    dense = quad.weights.toarray()
    assert dense.min() >= 0.0
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_cells=st.integers(2, 150), n_quad=st.integers(2, 96),
       kind=st.sampled_from(["down", "up"]),
       knots=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6,
                      unique=True),
       weights=st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
       c=st.floats(-1e3, 1e3))
def test_constants_pass_through_random_densities(n_cells, n_quad, kind, knots,
                                                 weights, c):
    try:
        density = tabulated_density(list(zip(knots, weights)))
        quad = build_jump_quadrature(build_mesh(n_cells), density, kind,
                                     n_quad=n_quad)
    except ValueError:
        reject()        # no mass, or none of it at the quadrature points
    out = quad.weights @ np.full(quad.weights.shape[1], c)
    np.testing.assert_allclose(out, c, rtol=0.0, atol=1e-12 * max(1.0, abs(c)))


@settings(max_examples=30, deadline=None)
@given(shift=st.floats(-40.0, 40.0), seed=st.integers(0, 2**31))
def test_nonlocal_invariant_under_constant_shift(shift, seed):
    mesh = build_mesh(50)
    quad = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "up")
    phi = np.random.default_rng(seed).uniform(0.0, 5.0, mesh.n_nodes)
    base = nonlocal_at(quad, phi, nu=1.0, psi=0.5, theta_max=100.0)
    moved = nonlocal_at(quad, phi + shift, nu=1.0, psi=0.5, theta_max=100.0)
    for a, b in zip(base, moved):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_values_stay_below_asymptote(mesh):
    quad = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "down")
    rng = np.random.default_rng(7)
    for _ in range(10):
        phi = rng.uniform(-3.0, 3.0, mesh.n_nodes)
        for nu, psi in ((1.0, 0.5), (2.0, 1.5)):
            values, _, _ = nonlocal_at(quad, phi, nu, psi, theta_max=1e6)
            assert values.max() < nu / psi


def test_closed_form_matches_brute_force_minimization(mesh):
    quad_down = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "down")
    quad_up = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "up")
    theta_grid = np.linspace(0.0, 3.0, 10_000)
    rng = np.random.default_rng(42)
    phi = rng.uniform(0.0, 1.0, mesh.n_nodes)
    for quad in (quad_down, quad_up):
        for nu, psi in ((1.0, 0.5), (0.5, 1.0), (2.0, 0.5)):
            values, delta, _ = nonlocal_at(quad, phi, nu, psi,
                                              theta_max=100.0)
            brute = brute_force_distorted_jump(delta, nu, psi, theta_grid)
            np.testing.assert_allclose(values, brute, atol=1e-6)


def test_operator_vanishes_at_fixed_points():
    # the down-jump cannot move x=0 and the up-jump cannot move x=1, so the
    # distorted operators vanish there for every field
    mesh = build_mesh(40)
    quad_down = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "down")
    quad_up = build_jump_quadrature(mesh, uniform_density(0.1, 0.9), "up")
    phi = np.sin(3.0 * mesh.nodes) + 2.0
    down_vals, _, _ = nonlocal_at(quad_down, phi, 1.0, 0.5, 100.0)
    up_vals, _, _ = nonlocal_at(quad_up, phi, 1.0, 0.5, 100.0)
    assert down_vals[0] == pytest.approx(0.0, abs=1e-12)
    assert up_vals[-1] == pytest.approx(0.0, abs=1e-12)


def test_entropy_penalty_convention():
    assert entropy_penalty(0.0) == pytest.approx(1.0)  # 0 ln 0 = 0
    assert entropy_penalty(1.0) == pytest.approx(0.0)
    assert float(entropy_penalty(2.0)) > 0.0


def test_entropy_penalty_matches_xlogy():
    theta = np.concatenate(([0.0, 1e-300, 1.0, 100.0],
                            np.random.default_rng(7).uniform(0.0, 100.0, 1000),
                            np.random.default_rng(8).uniform(0.9, 1.1, 1000)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = entropy_penalty(theta)
        assert entropy_penalty(0.0) == 1.0
    assert np.all(np.isfinite(got))
    assert got[0] == 1.0
    np.testing.assert_allclose(got, xlogy(theta, theta) + 1.0 - theta,
                               rtol=1e-15, atol=1e-15)
