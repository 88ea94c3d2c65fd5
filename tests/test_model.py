import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robpop.grid import build_mesh, build_time_grid
from robpop.model import (JumpDensity, TabulatedFunction, make_paper_spec,
                          tabulated, tabulated_density, uniform_density,
                          validate_spec)
from robpop.solver import solve_backward
from dataclasses import replace


def test_uncontrolled_preset_values():
    spec = make_paper_spec(with_control=False)
    assert spec.psi0 == 0.5
    assert spec.horizon == 50.0
    assert float(spec.disutility_f(0.5)) == 0.0
    assert float(spec.disutility_f(0.0)) == 1.0
    assert float(spec.disutility_f(1.0)) == 1.0
    # intervention never pays off: constant growth rate, zero cost
    assert float(spec.growth_rate_r(0.7)) == 1.0
    assert float(spec.cost_h(0.9)) == 0.0


def test_controlled_preset_values():
    spec = make_paper_spec(with_control=True)
    assert float(spec.growth_rate_r(1.0)) == 0.0
    assert float(spec.cost_h(1.0)) == pytest.approx(0.1)
    assert spec.q_max == 1.0


@pytest.mark.parametrize("with_control", [False, True])
def test_preset_growth_profile(with_control):
    spec = make_paper_spec(with_control)
    assert float(spec.growth_a(0.0)) == 0.0
    assert float(spec.growth_a(1.0)) == 0.0
    assert float(spec.growth_a(0.5)) == pytest.approx(0.25)


@pytest.mark.parametrize("with_control", [False, True])
def test_presets_validate(with_control):
    assert validate_spec(make_paper_spec(with_control)) == []


def test_validation_flags_nonvanishing_growth_at_boundary():
    bad = replace(make_paper_spec(False), growth_a=tabulated([[0, 0], [1, 1]]))
    violations = validate_spec(bad)
    assert violations
    assert any("a(1)" in v for v in violations)


def test_validation_flags_negative_psi0():
    bad = replace(make_paper_spec(False), psi0=-0.5)
    violations = validate_spec(bad)
    assert violations
    assert any("psi0" in v for v in violations)


def test_validation_flags_negative_disutility():
    bad = replace(make_paper_spec(False),
                  disutility_f=tabulated([[0, -1], [1, 1]]))
    assert validate_spec(bad)


@pytest.mark.parametrize("field, value, named", [
    ("sigma", float("nan"), "sigma"),
    ("nu1", float("inf"), "nu1"),
    ("horizon", float("nan"), "horizon"),
    ("q_grid_size", 2.5, "q_grid_size"),
    ("disutility_f", TabulatedFunction(xs=np.asarray([0.0, 1.0]),
                                       ys=np.asarray([np.inf, 1.0])),
     "disutility"),
])
def test_validation_flags_nonfinite_and_noninteger_values(field, value, named):
    violations = validate_spec(replace(make_paper_spec(False), **{field: value}))
    assert violations
    assert any(named in v for v in violations)


def test_validation_collects_multiple_violations():
    bad = replace(make_paper_spec(False), psi0=-1.0, sigma=-2.0)
    assert len(validate_spec(bad)) >= 2


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(0.01, 0.5), width=st.floats(0.01, 0.49))
def test_uniform_density_mass_is_one(lo, width):
    density = uniform_density(lo, min(lo + width, 0.99))
    assert np.trapezoid(density.ys, density.xs) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_tabulated_density_is_normalized():
    density = tabulated_density([[0.2, 1.0], [0.5, 3.0], [0.8, 0.5]])
    assert np.trapezoid(density.ys, density.xs) == pytest.approx(1.0,
                                                                 abs=1e-10)
    assert validate_spec(
        replace(make_paper_spec(False), jump_density_1=density)) == []


def test_tabulated_density_rejects_bad_support():
    with pytest.raises(ValueError):
        tabulated_density([[0.0, 1.0], [0.5, 1.0]])  # touches the boundary
    with pytest.raises(ValueError):
        tabulated_density([[0.2, -1.0], [0.5, 1.0]])


@pytest.mark.parametrize("xs, ys, named", [
    ([0.2, 0.4], [-1.0, 11.0], "nonnegative"),        # mass one, negative knot
    ([0.2, 0.4], [float("nan"), 5.0], "finite"),
    ([0.2, 0.4], [5.0, float("inf")], "finite"),
    ([0.2, 0.4], [1.0, 1.0], "mass is 0.2"),
    ([0.3, 0.3], [1.0, 1.0], "support"),                # a point mass
    ([0.0, 0.5], [2.0, 2.0], "support"),
    ([0.2, 0.6, 0.4], [2.5, 2.5, 2.5], "ascend"),
    ([0.2, 0.3, 0.4], [5.0, 5.0], "one value per knot"),
])
def test_validation_flags_bad_density_table(xs, ys, named):
    # a density checks its table when it is built, so no spec can hold one
    # that breaks the rule
    with pytest.raises(ValueError, match=named):
        JumpDensity(xs=np.asarray(xs), ys=np.asarray(ys))


def test_validation_flags_a_density_field_that_is_not_a_density():
    table = tabulated([[0.2, 5.0], [0.4, 5.0]])     # mass one, but no density
    assert validate_spec(replace(make_paper_spec(False),
                                 jump_density_2=table)) == [
        "jump_density_2 must be a JumpDensity"]


@st.composite
def point_tables(draw):
    """Up to six (z, weight) points, at most two of whose values are
    replaced by NaN, inf, a negative, zero, tiny or huge number, or 0.3 (so
    knots may coincide)."""
    points = draw(st.lists(st.tuples(st.floats(0.01, 0.99),
                                     st.floats(0.0, 10.0)).map(list),
                           max_size=6))
    odd = st.one_of(st.floats(), st.sampled_from(
        [np.nan, np.inf, -np.inf, -1.0, 0.0, 0.3, 1e-300, 1e300]))
    for _ in range(draw(st.integers(0, 2)) if points else 0):
        point = draw(st.sampled_from(points))
        point[draw(st.integers(0, 1))] = draw(odd)
    return points


@settings(max_examples=300, deadline=None)
@given(points=point_tables())
@example(points=[[0.1, np.nan], [0.9, 1.0]])
@example(points=[[0.1, np.inf], [0.9, 1.0]])
def test_tabulated_density_is_valid_or_raises(points):
    try:
        with np.errstate(over="ignore"):
            density = tabulated_density(points)
    except ValueError:
        return
    assert np.all((density.ys >= 0.0) & np.isfinite(density.ys))
    assert abs(np.trapezoid(density.ys, density.xs) - 1.0) <= 1e-10


@pytest.mark.parametrize("field, points, named", [
    ("disutility_f", [[0.0, 1.0], [0.0025, -5.0], [0.005, 1.0], [1.0, 1.0]],
     "disutility"),
    ("growth_a", [[0.0, 0.0], [0.5, 0.25], [0.5025, -0.1], [0.505, 0.25],
                  [1.0, 0.0]], "growth rate"),
    ("cost_h", [[0.0, 0.0], [0.0025, -1.0], [0.005, 0.0], [1.0, 0.1]],
     "control cost"),
])
def test_validation_checks_coefficient_tables_at_their_knots(field, points,
                                                             named):
    # each table is negative only between two neighbouring even samples
    violations = validate_spec(replace(make_paper_spec(True),
                                       **{field: tabulated(points)}))
    assert any(named in v for v in violations)


def test_validation_flags_nonfinite_growth_rate():
    # unchecked, a rate that is NaN at q = 0 reaches assembly and surfaces
    # as "positive off-diagonal entry", naming neither the rate nor NaN
    def nan_at_zero(q):
        q = np.asarray(q, dtype=float)
        return np.where(q == 0.0, np.nan, 1.0 - q)

    bad = replace(make_paper_spec(True), growth_rate_r=nan_at_zero,
                  horizon=0.1)
    assert validate_spec(bad) == [
        "controlled growth rate must be finite on [0, q_max]"]
    with pytest.raises(ValueError, match="invalid problem spec") as err:
        solve_backward(bad, build_mesh(20), build_time_grid(0.1, 0.01))
    assert "controlled growth rate must be finite" in str(err.value)


def test_tabulated_sorts_samples():
    fn = tabulated([[1.0, 2.0], [0.0, 0.0], [0.5, 1.0]])
    assert float(fn(0.25)) == pytest.approx(0.5)


@pytest.mark.parametrize("points", [
    [[0.0, 1.0], [np.nan, 2.0], [1.0, 0.0]],
    [[0.0, 1.0], [0.5, np.inf], [1.0, 0.0]],
    [[0.0, 1.0], [1.0, -np.inf]],
])
def test_tabulated_rejects_nonfinite_samples(points):
    with pytest.raises(ValueError, match="finite"):
        tabulated(points)


def test_spec_q_grid_endpoints():
    spec = make_paper_spec(True)
    np.testing.assert_allclose(spec.q_grid(), [0.0, 1.0])
