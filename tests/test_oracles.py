import numpy as np
import pytest

from stressbasis.materials import Material, strain_energy
from stressbasis.oracles import (annulus_m1_oracle, approximation_error,
                                 cesaro_diagnostic, lame_energy_closed_form,
                                 lame_oracle, trace_energy)
from stressbasis.particular import annulus_m1_particular


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
    assert trace_energy(orc.field) > 0


def test_annulus_m1_oracle_bvp(ann_mesh, iso_material):
    orc = annulus_m1_oracle(ann_mesh, iso_material)
    srr, stt, srt = orc.field.components
    assert srr[0] == pytest.approx(1.0, abs=1e-8)
    assert srt[0] == pytest.approx(0.0, abs=1e-8)
    assert srr[-1] == pytest.approx(1.0 / 3.0, abs=1e-8)
    # the dropped (redundant) boundary condition is satisfied automatically
    assert abs(orc.metadata["dropped_residual"]) < 1e-10
    ps = orc.as_particular()
    assert ps.interior_residual < 1e-8


def test_approximation_error_zero_for_identical(ann_mesh, iso_material):
    orc = lame_oracle(ann_mesh, p=1.0)
    assert approximation_error(orc.field, orc.field, iso_material) \
        == pytest.approx(0.0, abs=1e-12)


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
