import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robpop.local_ops import q_candidates
from robpop.model import make_paper_spec, tabulated
from dataclasses import replace

from conftest import lambda_at, q_at


def at(spec, x, p):
    """a(x) and the slope p as the 1-element node arrays the optimizers take."""
    return spec.growth_a(np.asarray([x], dtype=float)), np.asarray([p], dtype=float)


@pytest.fixture(scope="module")
def spec():
    return make_paper_spec(with_control=False)


@pytest.fixture(scope="module")
def controlled():
    return make_paper_spec(with_control=True)


def test_lambda_zero_slope(spec):
    lam, value = lambda_at(spec, *at(spec, 0.3, 0.0))
    assert (lam[0], value[0]) == (0.0, 0.0)


def test_lambda_vanishes_at_boundaries(spec):
    a, p = spec.growth_a(np.asarray([0.0, 1.0])), np.full(2, 7.3)
    lam, value = lambda_at(spec, a, p)
    assert lam.tolist() == [0.0, 0.0] and value.tolist() == [0.0, 0.0]


def test_lambda_hand_example(spec):
    # a(0.5) = 0.25, p = 2: lambda* = 0.5*1*0.25*2, value = -psi0 sigma^2 a^2 p^2 / 2
    lam, value = lambda_at(spec, *at(spec, 0.5, 2.0))
    assert lam[0] == pytest.approx(0.25, abs=1e-12)
    assert value[0] == pytest.approx(-0.0625, abs=1e-12)


def test_lambda_clamps_to_bound(spec):
    tight = replace(spec, lambda_max=0.1)
    lam, value = lambda_at(tight, *at(tight, 0.5, 50.0))
    assert lam[0] == 0.1
    # clamped objective value, not the unconstrained parabola minimum
    assert value[0] == pytest.approx(-1.0 * 0.1 * 0.25 * 50.0 + 0.01 / 1.0)


def test_q_degenerate_objective_prefers_no_intervention(spec):
    q, value, _, _ = q_at(q_candidates(spec), *at(spec, 0.5, 0.0))
    assert q[0] == 0.0
    assert value[0] == 0.0


def test_q_hand_examples(controlled):
    table = q_candidates(controlled)
    a, p = controlled.growth_a(np.full(2, 0.5)), np.asarray([2.0, -2.0])
    q, value, _, _ = q_at(table, a, p)
    # p = 2, enumerate endpoints: q=0 gives -0.5, q=1 gives -0.1
    assert (q[0], value[0]) == (1.0, pytest.approx(-0.1))
    # p = -2: q=0 gives +0.5, q=1 gives -0.1
    assert (q[1], value[1]) == (0.0, pytest.approx(0.5))


# The pointwise Hamiltonian f - max_q(-r a p - h) - min_lambda(...) of the
# scheme, evaluated from the two optimizers' values on node arrays.

def test_hamiltonian_uncontrolled_center(spec):
    a, p = at(spec, 0.5, 0.0)
    _, q_value, _, _ = q_at(q_candidates(spec), a, p)
    _, lam_value = lambda_at(spec, a, p)
    value = float(spec.disutility_f(0.5)) - q_value[0] - lam_value[0]
    assert value == pytest.approx(0.0, abs=1e-12)


def test_hamiltonian_hand_example(controlled):
    a, p = at(controlled, 0.5, 2.0)
    _, q_value, _, _ = q_at(q_candidates(controlled), a, p)
    _, lam_value = lambda_at(controlled, a, p)
    value = float(controlled.disutility_f(0.5)) - q_value[0] - lam_value[0]
    assert value == pytest.approx(0.1625, abs=1e-12)


def test_hamiltonian_reduces_to_f_where_growth_vanishes(controlled):
    x = np.asarray([0.0, 1.0])
    a, p = controlled.growth_a(x), np.full(2, -11.0)
    _, q_value, _, _ = q_at(q_candidates(controlled), a, p)
    _, lam_value = lambda_at(controlled, a, p)
    f = controlled.disutility_f(x)
    np.testing.assert_allclose(f - q_value - lam_value, f, rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(x=st.floats(0.0, 1.0), p1=st.floats(-8.0, 8.0), p2=st.floats(-8.0, 8.0))
def test_hamiltonian_lipschitz_in_slope(x, p1, p2):
    controlled = make_paper_spec(True)
    table = q_candidates(controlled)
    r_max = float(np.max(table[1]))
    bound = (r_max + controlled.sigma * controlled.lambda_max)
    a = controlled.growth_a(np.full(2, x))
    p = np.asarray([p1, p2])
    _, q_value, _, _ = q_at(table, a, p)
    _, lam_value = lambda_at(controlled, a, p)
    h1, h2 = float(controlled.disutility_f(x)) - q_value - lam_value
    assert abs(h1 - h2) <= bound * float(a[0]) * abs(p1 - p2) + 1e-9


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.0, 1.0), p=st.floats(-5.0, 5.0),
       psi0=st.floats(0.5, 2.0))
def test_lambda_matches_brute_force_grid(x, p, psi0):
    # small lambda bound keeps the 1e4-point grid fine enough for 1e-8
    spec = replace(make_paper_spec(False), lambda_max=0.5, psi0=psi0)
    grid = np.linspace(-spec.lambda_max, spec.lambda_max, 10_000)
    a_x = float(spec.growth_a(x))
    objective = -spec.sigma * grid * a_x * p + grid ** 2 / (2.0 * spec.psi0)
    _, value = lambda_at(spec, *at(spec, x, p))
    assert value[0] <= objective.min() + 1e-12
    assert value[0] == pytest.approx(objective.min(), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.0, 1.0), p=st.floats(-6.0, 6.0), c=st.floats(0.1, 20.0))
def test_q_argmax_invariant_under_positive_scaling(x, p, c):
    base = make_paper_spec(True)
    scaled = replace(base, cost_h=tabulated([[0.0, 0.0], [1.0, 0.1 * c]]))
    q_base = q_at(q_candidates(base), *at(base, x, p))[0]
    q_scaled = q_at(q_candidates(scaled), *at(scaled, x, c * p))[0]
    assert q_base[0] == q_scaled[0]
