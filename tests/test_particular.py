import numpy as np
import pytest

from stressbasis.materials import Material
from stressbasis.meshes import (Domain, MeshError, build_radial_grid,
                                build_rectangle_mesh)
from stressbasis.oracles import displacement_fem_oracle
from stressbasis.particular import (ParticularStressError,
                                    annulus_m1_particular,
                                    axisym_airy_particular,
                                    band_pressure_particular,
                                    gravity_particular, oracle_as_particular,
                                    uniform_pressure_particular)

from helpers import assert_balanced, resultant


def test_axisym_airy_boundary_values(ann_mesh):
    ps = axisym_airy_particular(ann_mesh, p_in=1.0, p_out=0.0)
    assert ps.interior_residual < 1e-10
    assert ps.boundary_residual < 1e-10
    srr = ps.field.components[0]
    assert srr[0] == pytest.approx(-1.0, abs=1e-12)
    assert srr[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(ps.field.components[2]).max() == 0.0  # no shear


@pytest.mark.parametrize("profile", ["discontinuous", "quartic"])
def test_band_pressure(rect_mesh, profile):
    ps = band_pressure_particular(rect_mesh, p=1.0, profile=profile)
    assert ps.interior_residual < 1e-10
    assert ps.boundary_residual < 1e-10
    assert_balanced(ps.loading, rect_mesh)
    # the stress is confined to the band
    nodes_x = rect_mesh.node_x
    outside = np.concatenate([np.where(nodes_x < 0.25 - 1e-9)[0],
                              np.where(nodes_x > 0.75 + 1e-9)[0]])
    for c in outside:
        assert np.abs(ps.field.components[1][c::rect_mesh.nnx]).max() == 0.0


def test_band_requires_feature_lines():
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 7, 7)
    with pytest.raises(MeshError):
        band_pressure_particular(mesh, profile="discontinuous")


def test_uniform_pressure(rect_mesh):
    ps = uniform_pressure_particular(rect_mesh, p=2.0)
    assert np.all(ps.field.components[1] == -2.0)
    assert_balanced(ps.loading, rect_mesh)


def test_gravity_balance(rect_mesh):
    ps = gravity_particular(rect_mesh, rho1=1.0, rho2=3.0)
    assert ps.interior_residual < 1e-10
    assert ps.boundary_residual < 1e-10
    # tractions plus body force are globally self-equilibrated
    assert_balanced(ps.loading, rect_mesh)
    syy = ps.field.components[1]
    ny = rect_mesh.nny
    top_row = syy[(ny - 1) * rect_mesh.nnx:]
    bot_row = syy[:rect_mesh.nnx]
    assert np.abs(top_row).max() < 1e-12          # free surface
    assert np.allclose(bot_row, -2.0)             # total weight / width
    # potential satisfies b = -grad V at a sample away from the interface
    x = np.array([0.3]); y = np.array([0.8])
    eps = 1e-6
    dVdy = (ps.loading.body_potential(x, y + eps)
            - ps.loading.body_potential(x, y - eps)) / (2 * eps)
    bx, by = ps.loading.body_force(x, y)
    assert by[0] == pytest.approx(-dVdy[0], rel=1e-6)


def test_annulus_m1(ann_mesh):
    ps = annulus_m1_particular(ann_mesh)
    assert ps.interior_residual < 1e-10
    srr, stt, srt = ps.field.components
    assert srr[0] == pytest.approx(1.0, abs=1e-12)
    assert srt[0] == pytest.approx(0.0, abs=1e-12)
    assert srr[-1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    # the loading transmits a nonzero net force through the hole
    F = resultant(ps.loading, ann_mesh, ["inner"])
    assert abs(F[0]) > 1e-3
    wrong = build_radial_grid(Domain.annulus(0.2, 0.4), 16)
    with pytest.raises(MeshError):
        annulus_m1_particular(wrong)


def test_oracle_as_particular_gate(rect_mesh):
    """A discrete reference field fails the strict gate and needs an honest one."""
    ps = uniform_pressure_particular(rect_mesh)
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 6, 6)
    ps6 = uniform_pressure_particular(mesh)
    orc = displacement_fem_oracle(mesh, ps6.loading, Material.isotropic(1.0, 0.3),
                                  refine=2)
    # perturb to mimic discretization error in a nontrivial reference field
    noisy = orc.field.components + 1e-3 * np.sin(
        np.arange(3 * mesh.n_nodes)).reshape(3, -1)
    from stressbasis.fields import SymTensorField2
    field = SymTensorField2(mesh, noisy)
    with pytest.raises(ParticularStressError):
        oracle_as_particular(field, ps6.loading)  # strict 1e-8 default
    wrapped = oracle_as_particular(field, ps6.loading, tol=0.05)
    assert wrapped.tolerance == 0.05
    assert wrapped.interior_residual > 1e-8  # recorded honestly
