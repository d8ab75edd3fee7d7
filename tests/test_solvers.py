"""Variational-solver properties: orthogonality, optimality, and invariances."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressbasis import fem2d, solvers
from stressbasis.basis import (BasisSet, _l2_gram, airy_bump_basis,
                               solve_basis_annulus, solve_basis_rectangle)
from stressbasis.fields import (SymTensorField2, equilibrium_residual,
                                tensor_gram)
from stressbasis.materials import (Material, compliance_on_quad,
                                   discontinuous_modulus, strain_energy)
from stressbasis.meshes import (Domain, build_radial_grid,
                                build_rectangle_mesh)
from stressbasis.oracles import displacement_fem_oracle, lame_oracle
from stressbasis.particular import (axisym_airy_particular,
                                    band_pressure_particular,
                                    oracle_as_particular,
                                    uniform_pressure_particular)
from stressbasis.solvers import (SolverError, energy_series, error_series,
                                 solve_planar_trace, solve_strain_energy)

from helpers import galerkin_residual, mode_residuals


@pytest.fixture(scope="module")
def ann_particular(ann_mesh):
    return axisym_airy_particular(ann_mesh)


@pytest.fixture(scope="module")
def band_particular(rect_mesh):
    return band_pressure_particular(rect_mesh, profile="quartic")


def test_trace_gram_matches_tensor_gram(ann_basis_m0, rect_basis):
    """Traces of the basis functions inherit the tensor Gram (both domains)."""
    for basis in (ann_basis_m0, rect_basis):
        dev = np.abs(basis.trace_gram - _l2_gram(basis)).max()
        assert dev <= 1e-6, f"entrywise deviation {dev:.2e}"


def test_compatible_particular_gives_zero_coefficients(ann_mesh, ann_basis_m0,
                                                       iso_material):
    """A compatible (true-solution) particular field needs no correction."""
    orc = lame_oracle(ann_mesh, 1.0)
    sp = oracle_as_particular(orc.field, orc.loading).field
    pt = solve_planar_trace(sp, ann_basis_m0, len(ann_basis_m0))
    assert np.abs(pt.coeffs).max() <= 1e-8
    se = solve_strain_energy(sp, ann_basis_m0, iso_material, len(ann_basis_m0))
    assert np.abs(se.coeffs).max() <= 1e-8


def test_galerkin_orthogonality(band_particular, rect_basis, iso_material):
    se = solve_strain_energy(band_particular.field, rect_basis, iso_material,
                             len(rect_basis))
    assert galerkin_residual(se, rect_basis, iso_material) <= 1e-8


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
    mode_res = mode_residuals(ann_basis_m0)
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
    assert se.diagnostics["objective"][-1] == pytest.approx(direct, rel=1e-10)


def test_error_series_endpoints(ann_particular, ann_basis_m0, iso_material,
                                ann_mesh):
    orc = lame_oracle(ann_mesh, 1.0)
    se = solve_strain_energy(ann_particular.field, ann_basis_m0, iso_material,
                             12, ns=[0, 6, 12])
    E = error_series(se, ann_particular.field, ann_basis_m0, iso_material,
                     orc.field)
    # E_0 is the raw particular-field error; it must shrink as modes are added
    assert E[0] > E[-1] > 0
    direct = np.sqrt(strain_energy(iso_material, se.sigma_N - orc.field)
                     / strain_energy(iso_material, orc.field))
    assert E[-1] == pytest.approx(direct, rel=1e-8)


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
        assert se.diagnostics["objective"][k] == pytest.approx(En, rel=1e-12)
    assert np.allclose(se.coeffs, an, rtol=1e-12, atol=0)


def test_se_series_are_those_of_the_n_mode_solutions(rect_mesh):
    """On a varying-modulus rectangle the n-mode SE solution is not the
    leading part of the N-mode one. The energy and error series of an SE
    approximation are SE's objective and the errors of its n-mode
    solutions, not of truncations of the N-mode coefficients."""
    basis = solve_basis_rectangle(rect_mesh, 30)
    mat = Material.isotropic(discontinuous_modulus(1.0, 3.0, 0.5), 0.33)
    ps = uniform_pressure_particular(rect_mesh, 1.0)
    true = displacement_fem_oracle(rect_mesh, ps.loading, mat, refine=1).field
    se = solve_strain_energy(ps.field, basis, mat, len(basis))
    energy = energy_series(se, ps.field, basis, mat)
    errors = error_series(se, ps.field, basis, mat, true)
    assert np.array_equal(energy, se.diagnostics["objective"])
    true_energy, scale = strain_energy(mat, true), np.abs(se.coeffs).max()
    for k, n in enumerate(se.diagnostics["n"]):
        one = solve_strain_energy(ps.field, basis, mat, n, ns=[n])
        assert np.allclose(se.coeffs_by_n[k], one.coeffs, rtol=0,
                           atol=1e-12 * scale)
        assert energy[k] == pytest.approx(strain_energy(mat, one.sigma_N),
                                          rel=1e-10)
        direct = np.sqrt(strain_energy(mat, one.sigma_N - true) / true_energy)
        assert errors[k] == pytest.approx(direct, rel=1e-8)


def test_se_coefficients_do_not_depend_on_the_schedule(iso_material):
    """A report schedule that leaves N out still yields the N-mode solution."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 32)
    basis = solve_basis_annulus(mesh, [0], 8)
    field = axisym_airy_particular(mesh).field
    full = solve_strain_energy(field, basis, iso_material, 8)
    part = solve_strain_energy(field, basis, iso_material, 8, ns=[2, 4])
    assert np.abs(full.coeffs).max() > 1e-6
    assert np.array_equal(part.coeffs, full.coeffs)
    assert list(part.diagnostics["n"]) == [2, 4]
    assert galerkin_residual(part, basis, iso_material) <= 1e-8


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


def test_se_gram_built_once_per_material_and_selection(band_particular,
                                                       rect_basis, rect_mesh,
                                                       monkeypatch):
    """The SE solve, the energy and error series share one SE Gram per
    (basis, material, tag group); a selection of the leading modes reads
    its leading block. ``built`` counts the modes of every Gram built."""
    built = []
    gram = BasisSet.gram

    def counted(basis, m, parity, material=None):
        G = gram(basis, m, parity, material)
        built.extend(range(len(G)))
        return G
    monkeypatch.setattr(BasisSet, "gram", counted)
    sp = band_particular.field
    other = band_pressure_particular(rect_mesh, profile="discontinuous").field
    mat = Material.isotropic(2.0, 0.25)
    N = len(rect_basis)
    for res in (solve_strain_energy(sp, rect_basis, mat, N),
                solve_planar_trace(sp, rect_basis, N)):
        energy_series(res, sp, rect_basis, mat)
        error_series(res, sp, rect_basis, mat, other)
    solve_strain_energy(sp, rect_basis, mat, N)
    assert len(built) == N
    solve_strain_energy(sp, rect_basis, Material.isotropic(2.0, 0.25), N)
    solve_strain_energy(sp, rect_basis, mat, N - 1)
    assert len(built) == 2 * N


def test_no_modes_form_no_stack_and_no_se_gram(band_particular, rect_basis,
                                              iso_material):
    """N = 0 reports sigma_p alone: an SE and a PT solve and their energy
    series form no SE Gram and keep nothing in the basis."""
    basis = dataclasses.replace(rect_basis, _cache={})
    sp = band_particular.field
    for res in (solve_strain_energy(sp, basis, iso_material, 0),
                solve_planar_trace(sp, basis, 0)):
        energy_series(res, sp, basis, iso_material)
    assert not basis._cache


def test_reconstruction_folds_nodal_modes(band_particular, rect_basis,
                                          iso_material):
    """sigma_N keeps sigma_p and one folded nodal field as its parts; its
    nodal array is the term-by-term sum, its integrals match the per-mode
    sum to round-off."""
    sp = band_particular.field
    res = solve_strain_energy(sp, rect_basis, iso_material, len(rect_basis))
    sN = res.sigma_N
    assert len(sN.parts) == 2 and sN.parts[0] == (1.0, sp)
    terms = [(1.0, sp)] + [(float(a), md)
                           for a, md in zip(res.coeffs, rect_basis.modes)]
    assert np.array_equal(sN.components,
                          sum(c * f.components for c, f in terms))
    ref = SymTensorField2(sp.mesh, parts=terms)
    pairs = [(sN.at_quad(), ref.at_quad()),
             (sN.divergence_quad(), ref.divergence_quad())]
    pairs += [(sN.edge_values(t), ref.edge_values(t))
              for t in ("left", "right", "bottom", "top")]
    for got, want in pairs:
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    got = equilibrium_residual(sN, band_particular.loading)
    want = equilibrium_residual(ref, band_particular.loading)
    assert got.interior_norm == pytest.approx(want.interior_norm, rel=1e-10)


_GRAM_MATERIALS = [
    Material.isotropic(1.0, 0.3),
    Material.isotropic(discontinuous_modulus(1.0, 3.0, 0.5), 0.33),
    Material.orthotropic(1.0, 2.0, 0.33, 1.0),
]


@pytest.mark.parametrize("material", _GRAM_MATERIALS,
                         ids=["isotropic", "discontinuous", "orthotropic"])
def test_blocked_se_gram_matches_one_product(rect_basis, rect_mesh, material):
    """The SE Gram of an eigenbasis (from its nodal components) and of an
    airy basis (summed over blocks of element rows) is the one-product
    Gram of the modes' quadrature values up to round-off, exactly symmetric
    and read-only."""
    for basis in (dataclasses.replace(rect_basis, _cache={}),
                  airy_bump_basis(rect_mesh, 10)):
        M = solvers._se_gram(basis, material, None, None)
        Phi = np.stack([md.at_quad() for md in basis.modes], axis=2)
        ref = tensor_gram(basis.mesh, None, None,
                          compliance_on_quad(material, basis.mesh, Phi), Phi)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(M, M.T)
        assert not M.flags.writeable
        assert solvers._se_gram(basis, material, None, None) is M


def test_se_gram_peak_memory(rect_mesh, iso_material, traced_peak):
    """An airy basis applies the law to one block of element rows at a
    time: at 40 modes building the SE Gram holds less than 0.3 of the
    modes' quadrature stack (3, nq, n), which the basis does not keep (a
    stored stack with the law applied to a third of the modes at a time
    held 0.71 of it besides the stack). The nodal path is bounded by
    ``test_nodal_gram_peak_memory``."""
    basis = airy_bump_basis(rect_mesh, 40)
    solvers._se_gram(basis, iso_material, None, None)   # operators built
    basis._cache.clear()
    M, peak = traced_peak(solvers._se_gram, basis, iso_material, None, None)
    assert M.shape == (len(basis), len(basis))
    nq = fem2d.rect_ops(rect_mesh).nq
    assert peak <= 0.3 * 3 * nq * len(basis) * 8


def test_reconstruction_forms_each_airy_mode_once(band_particular,
                                                 iso_material, monkeypatch):
    """An airy mode forms its nodal components when they are read, and
    sigma_N's reconstruction reads each mode with a coefficient once: the
    folded field's nodal sum and sigma_N's are added in one pass. The
    nodal array is the term-by-term sum sigma_p + sum_j a_j phi_j."""
    from stressbasis import basis as basis_mod
    sp = band_particular.field
    basis = airy_bump_basis(sp.mesh, 10)
    real = basis_mod._airy_values
    formed = []
    monkeypatch.setattr(basis_mod, "_airy_values", lambda tables, C: (
        formed.append(tables is basis.airy.nodes) or real(tables, C)))
    res = solve_strain_energy(sp, basis, iso_material, len(basis))
    assert sum(formed) == np.count_nonzero(res.coeffs) == len(basis)
    terms = [(1.0, sp)] + [(float(a), md)
                           for a, md in zip(res.coeffs, basis.modes)]
    assert np.array_equal(res.sigma_N.components,
                          sum(c * f.components for c, f in terms))


def test_airy_sigma_n_is_one_airy_field():
    """sigma_N of an airy-backend SE solve keeps sigma_p and one airy field
    of the summed potentials as its parts, not one part per mode; its
    quadrature values equal sigma_p + sum_j a_j phi_j to 1e-13 relative
    (36x36, 40 modes, the orthotropic law)."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36,
                                feature_lines={"x": [0.25, 0.75],
                                               "y": [0.5]})
    basis = airy_bump_basis(mesh, 40)
    sp = band_pressure_particular(mesh, profile="quartic").field
    res = solve_strain_energy(sp, basis, _GRAM_MATERIALS[2], len(basis))
    sN = res.sigma_N
    assert len(sN.parts) <= 2 and sN.parts[0] == (1.0, sp)
    want = sp.at_quad() + sum(float(a) * md.at_quad()
                              for a, md in zip(res.coeffs, basis.modes))
    assert np.abs(sN.at_quad() - want).max() <= 1e-13 * np.abs(want).max()
