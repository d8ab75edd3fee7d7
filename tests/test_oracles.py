import numpy as np
import pytest

from stressbasis import fem2d
from stressbasis.materials import Material, strain_energy
from stressbasis.meshes import Domain, build_radial_grid
from stressbasis.fields import planar_trace, scalar_gram
from stressbasis.oracles import (annulus_m1_oracle, cesaro_diagnostic,
                                 lame_oracle)
from stressbasis.particular import oracle_as_particular

from helpers import lame_energy_closed_form


def test_lame_oracle_boundary_and_energy(ann_mesh, iso_material):
    orc = lame_oracle(ann_mesh, p=1.0)
    srr = orc.field.components[0]
    assert srr[0] == pytest.approx(-1.0, abs=1e-12)
    assert srr[-1] == pytest.approx(0.0, abs=1e-12)
    numeric = strain_energy(iso_material, orc.field)
    closed = lame_energy_closed_form(0.1, 0.3, 1.0, iso_material)
    assert numeric == pytest.approx(closed, rel=1e-8)
    # the analytic field carries an exact zero divergence
    assert np.abs(orc.field.divergence_quad()).max() == 0.0


def test_lame_trace_is_constant(ann_mesh, iso_material):
    # sigma_rr + sigma_tt = 2A for the pressurized-annulus solution
    orc = lame_oracle(ann_mesh, p=1.0)
    tr = orc.field.components[0] + orc.field.components[1]
    assert np.ptp(tr) < 1e-12
    t = planar_trace(orc.field)
    assert scalar_gram(ann_mesh, orc.field.m, orc.field.parity, t, t) > 0


def test_annulus_m1_oracle_bvp(ann_mesh, iso_material):
    orc = annulus_m1_oracle(ann_mesh, iso_material)
    srr, stt, srt = orc.field.components
    assert srr[0] == pytest.approx(1.0, abs=1e-8)
    assert srt[0] == pytest.approx(0.0, abs=1e-8)
    assert srr[-1] == pytest.approx(1.0 / 3.0, abs=1e-8)
    # the dropped (redundant) boundary condition is satisfied automatically
    assert abs(orc.metadata["dropped_residual"]) < 1e-10
    ps = oracle_as_particular(orc.field, orc.loading)
    assert ps.interior_residual < 1e-8


def _radial_bvp(r_a, r_b, material):
    """The m = 1 reference problem collocated as the radial BVP in
    y = (f_rr, f_rt, S, S'), S = f_rr + f_tt, independently of the closed
    form: equilibrium, trace compatibility and the four conditions."""
    from scipy.integrate import solve_bvp

    def rhs(r, y):
        frr, frt, S, Sp = y
        return np.vstack([-(frt + 2 * frr - S) / r, -(2 * frt - S + frr) / r,
                          Sp, -Sp / r + S / r**2])

    def bc(ya, yb):
        dya = rhs(np.array([r_a]), ya.reshape(4, 1)).ravel()
        e = material.compliance_on_values(
            [[ya[0], dya[0]], [ya[2] - ya[0], dya[2] - dya[0]], [ya[1], 0.0]])
        return np.array([ya[0] - 1.0, ya[1], yb[0] - 1.0 / 3.0,
                         2 * e[2, 0] + e[0, 0] - r_a * e[1, 1]])

    rgrid = np.linspace(r_a, r_b, 201)
    sol = solve_bvp(rhs, bc, rgrid, np.ones((4, 201)), tol=1e-10,
                    max_nodes=20000)
    assert sol.status == 0, sol.message

    def comps(r):
        v = sol.sol(r)
        return np.stack([v[0], v[2] - v[0], v[1]])
    return comps


@pytest.mark.parametrize("nel", [64, 128])
def test_annulus_m1_oracle_matches_radial_bvp(nel):
    """The closed form agrees with a collocation of the same radial problem,
    meets its four conditions and the dropped one at round-off, and carries
    an exact zero divergence."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), nel)
    mat = Material.isotropic(1.0, 0.33)
    orc = annulus_m1_oracle(mesh, mat)
    bvp = _radial_bvp(0.1, 0.3, mat)
    for got, want in ((orc.field.components, bvp(mesh.nodes)),
                      (orc.field.at_quad(), bvp(fem2d.radial_ops(mesh).rq))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the conditions, with S'(r_a) from S = a r + b/r, the general solution
    # of S'' + S'/r - S/r^2 = 0, through S at both radii
    (frr_a, ftt_a, frt_a), (frr_b, ftt_b, frt_b) = orc.field.fn(
        np.array([0.1, 0.3])).T
    a, b = np.linalg.solve([[0.1, 10.0], [0.3, 1 / 0.3]],
                           [frr_a + ftt_a, frr_b + ftt_b])
    dfrr = -(frt_a + 2 * frr_a - (frr_a + ftt_a)) / 0.1
    e = mat.compliance_on_values([[frr_a, dfrr], [ftt_a, a - b / 0.01 - dfrr],
                                  [frt_a, 0.0]])
    conditions = [frr_a - 1.0, frt_a, frr_b - 1.0 / 3.0,
                  2 * e[2, 0] + e[0, 0] - 0.1 * e[1, 1]]
    assert np.abs(conditions).max() <= 1e-14
    assert orc.metadata["dropped_residual"] <= 1e-14
    assert np.abs(orc.field.divergence_quad()).max() == 0.0


def test_cesaro_vanishes_for_compatible_field(ann_mesh, iso_material):
    orc = lame_oracle(ann_mesh, p=1.0)
    F = cesaro_diagnostic(orc.field, 0.2, iso_material)
    assert max(abs(F[0]), abs(F[1])) < 1e-8


def test_cesaro_loop_independence_for_compatible_field(ann_mesh):
    """A compatible field yields (near-)zero Cesaro integrals on every loop.

    (For incompatible fields the loop integrals are genuinely path dependent;
    only compatible fields admit a loop-independent -- vanishing -- value.)
    """
    mat = Material.isotropic(1.0, 0.33)
    orc = annulus_m1_oracle(ann_mesh, mat)
    for radius in (0.15, 0.25):
        F = cesaro_diagnostic(orc.field, radius, mat)
        assert max(abs(F[0]), abs(F[1])) < 2e-4
