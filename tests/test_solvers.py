"""Variational-solver properties: orthogonality, optimality, and invariances."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressbasis.materials import Material, strain_energy
from stressbasis.oracles import lame_oracle
from stressbasis.particular import (axisym_airy_particular,
                                    band_pressure_particular)
from stressbasis.solvers import (SolverError, energy_series, error_series,
                                 galerkin_residual, solve_planar_trace,
                                 solve_strain_energy)


@pytest.fixture(scope="module")
def ann_particular(ann_mesh):
    return axisym_airy_particular(ann_mesh)


@pytest.fixture(scope="module")
def band_particular(rect_mesh):
    return band_pressure_particular(rect_mesh, profile="quartic")


def test_trace_gram_matches_tensor_gram(ann_basis_m0, rect_basis):
    """Traces of the basis functions inherit the tensor Gram (both domains)."""
    for basis in (ann_basis_m0, rect_basis):
        dev = np.abs(basis.trace_gram - basis.gram_l2).max()
        assert dev <= 1e-6, f"entrywise deviation {dev:.2e}"


def test_compatible_particular_gives_zero_coefficients(ann_mesh, ann_basis_m0,
                                                       iso_material):
    """A compatible (true-solution) particular field needs no correction."""
    orc = lame_oracle(0.1, 0.3, 1.0, iso_material, mesh=ann_mesh)
    sp = orc.as_particular().field
    pt = solve_planar_trace(sp, ann_basis_m0, len(ann_basis_m0))
    assert np.abs(pt.coeffs).max() <= 1e-8
    se = solve_strain_energy(sp, ann_basis_m0, iso_material, len(ann_basis_m0))
    assert np.abs(se.coeffs).max() <= 1e-8


def test_galerkin_orthogonality(band_particular, rect_basis, iso_material):
    se = solve_strain_energy(band_particular.field, rect_basis, iso_material,
                             len(rect_basis))
    assert galerkin_residual(se, band_particular.field, rect_basis,
                             iso_material) <= 1e-8


def test_objective_monotone_for_nested_N(ann_particular, ann_basis_m0,
                                         iso_material):
    se = solve_strain_energy(ann_particular.field, ann_basis_m0, iso_material,
                             12)
    assert np.all(np.diff(se.diagnostics["objective"]) <= 1e-12)
    pt = solve_planar_trace(ann_particular.field, ann_basis_m0, 12)
    assert np.all(np.diff(pt.diagnostics["objective"]) <= 1e-12)


def test_equilibrium_preserved_by_reconstruction(ann_particular, ann_basis_m0,
                                                 iso_material):
    """sigma_N inherits equilibrium up to the documented per-mode residuals."""
    from stressbasis.fields import equilibrium_residual
    se = solve_strain_energy(ann_particular.field, ann_basis_m0, iso_material,
                             12)
    rep = equilibrium_residual(se.sigma_N, ann_particular.loading)
    mode_res = np.asarray(ann_basis_m0.provenance["div_residuals"])
    budget = ann_particular.interior_residual \
        + float(np.abs(se.coeffs) @ mode_res[se.mode_indices]) + 1e-10
    assert rep.interior_norm <= budget
    assert rep.boundary_mismatch <= ann_particular.boundary_residual + 1e-8


def test_pt_is_material_blind(ann_particular, ann_basis_m0):
    """PT coefficients are single integrals; they cannot depend on material."""
    a1 = solve_planar_trace(ann_particular.field, ann_basis_m0, 12).coeffs
    a2 = solve_planar_trace(ann_particular.field, ann_basis_m0, 12).coeffs
    assert a1.tobytes() == a2.tobytes()
    # while the energy attached afterwards does see the material
    pt = solve_planar_trace(ann_particular.field, ann_basis_m0, 12)
    e1 = energy_series(pt, ann_particular.field, ann_basis_m0,
                       Material.isotropic(1.0, 0.2))
    e2 = energy_series(pt, ann_particular.field, ann_basis_m0,
                       Material.isotropic(1.0, 0.4))
    assert not np.allclose(e1, e2)


def test_se_energy_identity(band_particular, rect_basis, iso_material, rng):
    """The closed-form quadratic energy matches direct evaluation of sigma_N."""
    se = solve_strain_energy(band_particular.field, rect_basis, iso_material,
                             6, ns=[6])
    direct = strain_energy(iso_material, se.sigma_N)
    assert se.diagnostics["energy"][-1] == pytest.approx(direct, rel=1e-10)


def test_error_series_endpoints(ann_particular, ann_basis_m0, iso_material,
                                ann_mesh):
    orc = lame_oracle(0.1, 0.3, 1.0, iso_material, mesh=ann_mesh)
    se = solve_strain_energy(ann_particular.field, ann_basis_m0, iso_material,
                             12, ns=[0, 6, 12], oracle=orc.field)
    E = se.diagnostics["E_N"]
    # E_0 is the raw particular-field error; it must shrink as modes are added
    assert E[0] > E[-1] > 0
    also = error_series(se, ann_particular.field, ann_basis_m0, iso_material,
                        orc.field)
    assert np.allclose(also, E, rtol=1e-12)


def test_single_factor_schedule_matches_per_n_cholesky(
        ann_particular, ann_basis_m0, iso_material):
    from stressbasis.solvers import assemble_se_system
    N = len(ann_basis_m0)
    se = solve_strain_energy(ann_particular.field, ann_basis_m0, iso_material,
                             N)
    M, f = assemble_se_system(ann_basis_m0, ann_particular.field,
                              iso_material, N)
    Ep = strain_energy(iso_material, ann_particular.field)
    for k, n in enumerate(se.diagnostics["n"]):
        L = np.linalg.cholesky(M[:n, :n])
        an = np.linalg.solve(L.T, np.linalg.solve(L, f[:n]))
        En = Ep - 2 * an @ f[:n] + an @ M[:n, :n] @ an
        assert se.diagnostics["energy"][k] == pytest.approx(En, rel=1e-12)
    assert np.allclose(se.coeffs, an, rtol=1e-12, atol=0)


def test_solver_input_validation(ann_particular, ann_basis_m0, rect_basis,
                                 iso_material):
    with pytest.raises(SolverError):
        solve_planar_trace(ann_particular.field, ann_basis_m0,
                           len(ann_basis_m0) + 1)
    with pytest.raises(SolverError):
        solve_strain_energy(ann_particular.field, rect_basis, iso_material, 4)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_energy_quadratic_form_consistency(ann_particular, ann_basis_m0,
                                           iso_material, data):
    """E(sigma_p + sum a_j phi_j) equals the assembled quadratic form."""
    from stressbasis.solvers import assemble_se_system
    n = 4
    a = np.array([data.draw(st.floats(-2, 2)) for _ in range(n)])
    M, f = assemble_se_system(ann_basis_m0, ann_particular.field, iso_material,
                              n)
    Ep = strain_energy(iso_material, ann_particular.field)
    closed = Ep - 2 * a @ f + a @ M @ a
    sig = ann_particular.field
    for j in range(n):
        sig = sig + float(a[j]) * ann_basis_m0.modes[j]
    assert strain_energy(iso_material, sig) == pytest.approx(
        closed, rel=1e-9, abs=1e-9)
