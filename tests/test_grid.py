import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robpop.grid import build_mesh, build_time_grid


def test_build_mesh_benchmark_resolution():
    mesh = build_mesh(500)
    assert mesh.n_nodes == 501
    assert mesh.dx == pytest.approx(0.002, abs=0.0)
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0


def test_build_mesh_two_cells():
    mesh = build_mesh(2)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0], atol=0.0)


def test_build_mesh_rejects_single_cell():
    with pytest.raises(ValueError):
        build_mesh(1)


def test_mesh_nodes_equally_spaced():
    mesh = build_mesh(37)
    np.testing.assert_allclose(np.diff(mesh.nodes), mesh.dx, atol=1e-14)


def test_interp_weights_hand_example():
    # 0.37 = 0.3 * 0.3 + 0.7 * 0.4 on the ten-cell mesh
    mesh = build_mesh(10)
    idx, w = mesh.locate([0.37])
    assert idx[0] == 3
    assert 1.0 - w[0] == pytest.approx(0.3, abs=1e-12)
    assert w[0] == pytest.approx(0.7, abs=1e-12)


def test_interp_weights_left_endpoint():
    mesh = build_mesh(10)
    idx, w = mesh.locate([0.0])
    assert (idx[0], w[0]) == (0, 0.0)


def test_interp_weights_right_endpoint_convention():
    mesh = build_mesh(10)
    idx, w = mesh.locate([1.0])
    assert (idx[0], w[0]) == (9, 1.0)


def test_interp_weights_rejects_outside_domain():
    mesh = build_mesh(4)
    for y in (-1e-9, 1.0 + 1e-9, np.nan):
        with pytest.raises(ValueError):
            mesh.locate([y])


@settings(max_examples=200, deadline=None)
@given(y=st.floats(0.0, 1.0), n_cells=st.integers(2, 400))
def test_interp_reconstructs_point(y, n_cells):
    mesh = build_mesh(n_cells)
    (idx,), (w,) = mesh.locate([y])
    assert 0 <= idx < n_cells and 0.0 <= w <= 1.0
    recon = (1.0 - w) * mesh.nodes[idx] + w * mesh.nodes[idx + 1]
    assert recon == pytest.approx(y, abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(slope=st.floats(-5.0, 5.0), offset=st.floats(-3.0, 3.0),
       n_cells=st.integers(2, 200))
def test_interp_exact_on_affine_functions(slope, offset, n_cells):
    mesh = build_mesh(n_cells)
    values = slope * mesh.nodes + offset
    probes = np.linspace(0.0, 1.0, 113)
    idx, w = mesh.locate(probes)
    interped = (1.0 - w) * values[idx] + w * values[idx + 1]
    np.testing.assert_allclose(interped, slope * probes + offset, atol=1e-12)


def test_time_grid_benchmark():
    tg = build_time_grid(50.0, 0.005)
    assert tg.n_steps == 10_000
    assert abs(tg.n_steps * tg.dt - tg.horizon) <= 1e-10 * tg.horizon


def test_time_grid_rejects_uneven_dt():
    with pytest.raises(ValueError):
        build_time_grid(1.0, 0.3)


def test_time_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_time_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        build_time_grid(1.0, -0.1)
    for horizon, dt in ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf),
                        (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            build_time_grid(horizon, dt)
    # horizon/dt overflows to inf, or does not fit an int64
    for horizon, dt in ((1e300, 1e-300), (1.0, 1e-300)):
        with pytest.raises(ValueError, match="int64 step count"):
            build_time_grid(horizon, dt)
