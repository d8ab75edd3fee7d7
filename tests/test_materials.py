import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stressbasis.fields import SymTensorField2
from stressbasis.materials import (Material, MaterialError,
                                   discontinuous_modulus, energy_inner,
                                   ramp_modulus, strain_energy)

from helpers import constant_tensor_field


def test_isotropic_plane_strain_uniaxial(rect_mesh):
    Y, nu = 2.0, 0.3
    mat = Material.isotropic(Y, nu)
    sig = constant_tensor_field(rect_mesh, 1.0, 0.0, 0.0)
    exx, eyy, exy = mat.compliance_on_values(sig.components)[:, 0]
    assert exx == pytest.approx((1 - nu**2) / Y, rel=1e-12)
    assert eyy == pytest.approx(-nu * (1 + nu) / Y, rel=1e-12)
    assert exy == 0.0


def test_isotropic_shear(rect_mesh):
    Y, nu = 2.0, 0.3
    mat = Material.isotropic(Y, nu)
    sig = constant_tensor_field(rect_mesh, 0.0, 0.0, 1.0)
    eps = mat.compliance_on_values(sig.components)
    assert eps[2][0] == pytest.approx((1 + nu) / Y, rel=1e-12)


def test_orthotropic_reduces_to_isotropic(rect_mesh, rng):
    Y, nu = 1.7, 0.25
    iso = Material.isotropic(Y, nu)
    ortho = Material.orthotropic(Y, Y, nu, Y / (2 * (1 + nu)))
    sig = SymTensorField2(rect_mesh, rng.normal(size=(3, rect_mesh.n_nodes)))
    assert strain_energy(iso, sig) == pytest.approx(strain_energy(ortho, sig),
                                                    rel=1e-12)


def test_energy_inner_is_symmetric(rect_mesh, rng):
    # the compliance form must be symmetric for every supported law
    mats = [Material.isotropic(1.0, 0.33),
            Material.orthotropic(1.0, 2.0, 0.33, 1.0),
            Material.isotropic(discontinuous_modulus(1.0, 3.0), 0.33)]
    A = SymTensorField2(rect_mesh, rng.normal(size=(3, rect_mesh.n_nodes)))
    B = SymTensorField2(rect_mesh, rng.normal(size=(3, rect_mesh.n_nodes)))
    for mat in mats:
        assert energy_inner(mat, A, B) == pytest.approx(
            energy_inner(mat, B, A), rel=1e-10)


def test_strain_energy_positive(rect_mesh, rng):
    mat = Material.orthotropic(1.0, 2.0, 0.33, 1.0)
    for _ in range(5):
        sig = SymTensorField2(rect_mesh,
                              rng.normal(size=(3, rect_mesh.n_nodes)))
        assert strain_energy(mat, sig) > 0


def test_modulus_profiles():
    Yd = discontinuous_modulus(1.0, 3.0, 0.5)
    assert Yd(0.2, 0.9) == 1.0
    assert Yd(0.2, 0.1) == 3.0
    Yr = ramp_modulus(1.0, 3.0, zeta=0.05, y_interface=0.5)
    assert Yr(0.0, 0.9) == pytest.approx(1.0)
    assert Yr(0.0, 0.1) == pytest.approx(3.0)
    assert Yr(0.0, 0.5) == pytest.approx(2.0)  # midpoint of the linear ramp
    # monotone within the ramp
    ys = np.linspace(0.45, 0.55, 21)
    vals = np.asarray(Yr(np.zeros_like(ys), ys), dtype=float)
    assert np.all(np.diff(vals) <= 1e-12)


def test_material_validation():
    with pytest.raises(MaterialError):
        Material.isotropic(-1.0, 0.3)
    with pytest.raises(MaterialError):
        Material.isotropic(1.0, 0.6)  # nu must stay below 1/2
    with pytest.raises(MaterialError):
        Material.orthotropic(1.0, 2.0, 0.33, -1.0)


def test_modulus_must_be_finite_and_positive():
    for Y in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(MaterialError, match="finite and positive"):
            Material.isotropic(Y, 0.3)
    for G_xy in (0.0, np.nan):
        with pytest.raises(MaterialError, match="must be positive"):
            Material.orthotropic(1.0, 2.0, 0.3, G_xy)
    with pytest.raises(MaterialError, match="not positive definite"):
        Material.orthotropic(np.inf, 2.0, 0.3, 1.0)
    holey = Material.isotropic(lambda x, y: np.where(x > 0.5, np.nan, 1.0), 0.3)
    with pytest.raises(MaterialError, match="finite and positive"):
        holey.modulus_at(np.array([0.2, 0.8]), np.array([0.5, 0.5]))


_NU = st.floats(0.0, 0.49)
_MODULUS = st.floats(1e-3, 1e3)             # six decades


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.tuples(st.just("isotropic"), _MODULUS, _NU),
                 st.tuples(st.just("orthotropic"), _MODULUS, _MODULUS, _NU,
                           _MODULUS)))
@example(("orthotropic", 100.0, 1.0, 0.3, 1.0))   # indefinite: eigenvalue -0.136
def test_law_accepted_exactly_when_definite(law):
    """A law is accepted exactly when its energy form diag(1, 1, 2) S is
    positive definite, and it then applies the written-out plane-strain
    component formulas."""
    kind, *params = law
    sxx, syy, sxy = s = np.random.default_rng(0).normal(size=(3, 16))
    if kind == "isotropic":
        Y, nu = params
        S = np.array([[1 - nu**2, -nu * (1 + nu), 0],
                      [-nu * (1 + nu), 1 - nu**2, 0],
                      [0, 0, 1 + nu]]) / Y
        e = [((1 - nu**2) * sxx - nu * (1 + nu) * syy) / Y,
             ((1 - nu**2) * syy - nu * (1 + nu) * sxx) / Y,
             (1 + nu) * sxy / Y]
    else:
        Y_x, Y_y, nu, G_xy = params
        S = np.array([[(1 - nu**2) / Y_x, -nu * (1 + nu) / Y_y, 0],
                      [-nu * (1 + nu) / Y_y, (1 - nu**2) / Y_y, 0],
                      [0, 0, 1 / (2 * G_xy)]])
        e = [(1 - nu**2) * sxx / Y_x - nu * (1 + nu) * syy / Y_y,
             -nu * (1 + nu) * sxx / Y_y + (1 - nu**2) * syy / Y_y,
             sxy / (2 * G_xy)]
    lam = np.linalg.eigvalsh(np.diag([1.0, 1.0, 2.0]) @ S)
    # a form within round-off of singular has no well-defined verdict
    assume(abs(lam[0]) > 1e-12 * lam[-1])
    try:
        mat = getattr(Material, kind)(*params)
    except MaterialError:
        assert lam[0] < 0
        return
    assert lam[0] > 0
    # the error of each term is a few ulps of its own size
    scale = np.abs(S) @ np.abs(s)
    assert np.all(np.abs(mat.compliance_on_values(s) - e) <= 1e-15 * scale)
