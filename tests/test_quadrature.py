import numpy as np
import pytest
from hypothesis import given, strategies as st

from stressbasis.quadrature import QuadratureRule, gauss_1d, gauss_2d


def test_gauss_1d_exactness_degree():
    for n in range(1, 8):
        rule = gauss_1d(n)
        assert rule.points.shape[1] == 1
        assert rule.exactness_degree == 2 * n - 1
        for deg in range(2 * n):
            exact = (1 - (-1) ** (deg + 1)) / (deg + 1)
            approx = float(rule.weights @ rule.points[:, 0] ** deg)
            assert approx == pytest.approx(exact, abs=1e-13)


def test_gauss_1d_fails_beyond_degree():
    rule = gauss_1d(3)
    deg = 6  # one past the exactness degree of the 3-point rule
    exact = 2.0 / (deg + 1)
    approx = float(rule.weights @ rule.points[:, 0] ** deg)
    assert abs(approx - exact) > 1e-6


def test_gauss_2d_weights_and_dim():
    rule = gauss_2d(3)
    assert rule.points.shape[1] == 2
    assert rule.weights.sum() == pytest.approx(4.0, abs=1e-13)
    assert np.all(rule.weights > 0)
    assert rule.points.shape == (9, 2)


@given(st.integers(1, 6), st.data())
def test_gauss_2d_integrates_tensor_monomials(n, data):
    rule = gauss_2d(n)
    p = data.draw(st.integers(0, 2 * n - 1))
    q = data.draw(st.integers(0, 2 * n - 1))
    exact = ((1 - (-1) ** (p + 1)) / (p + 1)) * ((1 - (-1) ** (q + 1)) / (q + 1))
    approx = float(rule.weights @ (rule.points[:, 0] ** p *
                                   rule.points[:, 1] ** q))
    assert approx == pytest.approx(exact, abs=1e-12)


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([[0.0]]), np.array([-2.0]), 1)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([[0.0]]), np.array([1.0]), 1)  # sum != 2
