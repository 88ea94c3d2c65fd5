import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robpop.grid import build_mesh, build_time_grid, interp_weights_many


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
    idx, lw, rw = interp_weights_many(mesh, [0.37])
    assert idx[0] == 3
    assert lw[0] == pytest.approx(0.3, abs=1e-12)
    assert rw[0] == pytest.approx(0.7, abs=1e-12)


def test_interp_weights_left_endpoint():
    mesh = build_mesh(10)
    idx, lw, rw = interp_weights_many(mesh, [0.0])
    assert (idx[0], lw[0], rw[0]) == (0, 1.0, 0.0)


def test_interp_weights_right_endpoint_convention():
    mesh = build_mesh(10)
    idx, lw, rw = interp_weights_many(mesh, [1.0])
    assert (idx[0], lw[0], rw[0]) == (9, 0.0, 1.0)


def test_interp_weights_exact_node_hits():
    mesh = build_mesh(13)
    idx, lw, rw = interp_weights_many(mesh, mesh.nodes[:-1])
    assert idx.tolist() == list(range(13))
    assert np.all(lw == 1.0) and np.all(rw == 0.0)


def test_interp_weights_rejects_outside_domain():
    mesh = build_mesh(4)
    for y in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(ValueError):
            interp_weights_many(mesh, [y])


@settings(max_examples=200, deadline=None)
@given(y=st.floats(0.0, 1.0), n_cells=st.integers(2, 400))
def test_interp_reconstructs_point(y, n_cells):
    mesh = build_mesh(n_cells)
    (idx,), (lw,), (rw,) = interp_weights_many(mesh, [y])
    assert 0.0 <= lw <= 1.0 and 0.0 <= rw <= 1.0
    assert lw + rw == pytest.approx(1.0, abs=1e-14)
    recon = lw * mesh.nodes[idx] + rw * mesh.nodes[idx + 1]
    assert recon == pytest.approx(y, abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(slope=st.floats(-5.0, 5.0), offset=st.floats(-3.0, 3.0),
       n_cells=st.integers(2, 200))
def test_interp_exact_on_affine_functions(slope, offset, n_cells):
    mesh = build_mesh(n_cells)
    values = slope * mesh.nodes + offset
    probes = np.linspace(0.0, 1.0, 113)
    idx, lw, rw = interp_weights_many(mesh, probes)
    interped = lw * values[idx] + rw * values[idx + 1]
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
