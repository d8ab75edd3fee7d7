import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, null_space

from stressbasis import fem2d
from stressbasis.basis import (BasisError, EigenSolveConfig, _kernel_by_lu,
                               _radial_blocks, _solve_radial_m,
                               airy_bump_basis, load_basis, save_basis,
                               solve_basis_annulus, solve_basis_rectangle,
                               verify_basis)
from stressbasis.fields import (l2_inner_scalar, l2_inner_tensor,
                                l2_norm_tensor, planar_trace)
from stressbasis.meshes import Domain, build_radial_grid, build_rectangle_mesh


def test_rectangle_basis_verifies(rect_basis):
    rep = verify_basis(rect_basis)
    assert rep.passed, rep.failures
    lam = rect_basis.eigenvalues
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) >= -1e-9)


def test_rectangle_modes_traction_free(rect_basis, rect_mesh):
    on_x, on_y = rect_mesh.boundary_node_masks()
    for mode in rect_basis.modes:
        sxx, syy, sxy = mode.components
        # sigma n = 0: the traction components vanish on each edge (the
        # in-plane tangential normal stress is free)
        assert np.abs(sxx[on_x]).max() < 1e-8
        assert np.abs(sxy[on_x]).max() < 1e-8
        assert np.abs(syy[on_y]).max() < 1e-8
        assert np.abs(sxy[on_y]).max() < 1e-8


def test_annulus_basis_verifies(ann_basis_m0, ann_basis_merged):
    for basis in (ann_basis_m0, ann_basis_merged):
        rep = verify_basis(basis)
        assert rep.passed, rep.failures


def test_degenerate_pairs_have_zero_gap(ann_basis_merged):
    """Every m >= 1 radial eigenfunction must appear as an exact cos/sin pair."""
    lam = ann_basis_merged.eigenvalues
    for (m, parity), idx in ann_basis_merged.groups().items():
        if m == 0 or parity != "cos":
            continue
        sin_idx = ann_basis_merged.select(m=m, parity="sin")
        # pairs may be truncated at the spectrum edge; compare the common part
        k = min(len(idx), len(sin_idx))
        assert k > 0
        assert np.array_equal(lam[idx[:k]], lam[sin_idx[:k]])


def test_sin_twin_divergence_within_tolerance(ann_basis_merged):
    """The sign convention of the twin's shear profile keeps it equilibrated."""
    prov = ann_basis_merged.provenance
    div = np.asarray(prov["div_residuals"])
    tol = np.asarray(prov["div_tolerances"])
    sin_idx = [i for i, mode in enumerate(ann_basis_merged.modes)
               if mode.parity == "sin"]
    assert sin_idx, "merged basis should contain sin-family modes"
    assert np.all(div[sin_idx] <= tol[sin_idx])


def _sign_fixed(cols):
    rows = np.argmax(np.abs(cols), axis=0)
    return cols * np.sign(cols[rows, np.arange(cols.shape[1])])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_radial_kernel_by_lu_matches_svd(m):
    """The LU kernel spans ker C and reproduces the SVD-based eigenpairs."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 24)
    nn = mesh.n_nodes
    A, B, C = _radial_blocks(fem2d.radial_ops(mesh), m)
    keep = np.setdiff1d(np.arange(3 * nn), [0, nn - 1, 2 * nn, 3 * nn - 1])
    Z = _kernel_by_lu(C[:, keep])
    Ck = C[:, keep].toarray()
    Zs = null_space(Ck)
    assert np.abs(Ck @ Z).max() <= 1e-12 * np.abs(Ck).max()
    assert Z.shape[1] == Zs.shape[1]

    k = 10
    lam, cols = _solve_radial_m(mesh, m, k)
    Ak = A[keep][:, keep]
    Bk = B[keep][:, keep]
    lam_s, Y = eigh(Zs.T @ (Ak @ Zs), Zs.T @ (Bk @ Zs))
    assert np.allclose(lam, lam_s[:k], rtol=1e-10, atol=0)
    ref = np.zeros_like(cols)
    ref[keep] = Zs @ Y[:, :k]
    dev = np.abs(_sign_fixed(cols) - _sign_fixed(ref)).max()
    assert dev <= 1e-8 * np.abs(ref).max()


def test_kernel_by_lu_drops_dependent_rows():
    """A dependent row ahead of independent ones is dropped, not trusted."""
    rng = np.random.default_rng(3)
    C = rng.standard_normal((4, 9))
    C[1] = 2.0 * C[0]
    Z = _kernel_by_lu(sp.csr_matrix(C))
    assert Z.shape == (9, 6)
    assert np.abs(C @ Z).max() <= 1e-12 * np.abs(C).max()
    assert np.linalg.matrix_rank(Z) == 6


def test_grams_match_pairwise_inner_products(ann_basis_merged, rect_basis):
    for basis in (ann_basis_merged, rect_basis):
        modes = basis.modes
        traces = [planar_trace(md) for md in modes]
        n = len(modes)
        G = np.zeros((n, n))
        T = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if (modes[i].m, modes[i].parity) == (modes[j].m, modes[j].parity):
                    G[i, j] = l2_inner_tensor(modes[i], modes[j])
                    T[i, j] = l2_inner_scalar(traces[i], traces[j])
        assert np.abs(basis.gram_l2 - G).max() <= 1e-13
        assert np.abs(basis.trace_gram - T).max() <= 1e-13


def test_l2_orthonormality_direct(ann_basis_m0):
    modes = ann_basis_m0.modes
    for i in range(len(modes)):
        assert l2_norm_tensor(modes[i]) == pytest.approx(1.0, abs=1e-9)
        for j in range(i):
            assert abs(l2_inner_tensor(modes[i], modes[j])) < 1e-8


def test_sbbasis_round_trip(tmp_path, rect_basis):
    path = tmp_path / "basis.sbbasis"
    save_basis(rect_basis, str(path))
    back = load_basis(str(path))
    assert len(back) == len(rect_basis)
    assert np.array_equal(back.eigenvalues, rect_basis.eigenvalues)
    for a, b in zip(back.modes, rect_basis.modes):
        assert np.array_equal(a.components, b.components)
    assert back.provenance["backend"] == rect_basis.provenance["backend"]
    rep = verify_basis(back)
    assert rep.passed, rep.failures


def test_load_basis_rejects_corruption(tmp_path):
    path = tmp_path / "bad.sbbasis"
    path.write_bytes(b"not a basis file")
    with pytest.raises(BasisError):
        load_basis(str(path))


def test_airy_bump_basis_properties(rect_mesh):
    basis = airy_bump_basis(rect_mesh, 10)
    assert len(basis) == 10
    assert basis.eigenvalues is None
    rep = verify_basis(basis)
    assert rep.passed, rep.failures
    # bump modes are exactly divergence-free and traction-free
    for mode in basis.modes:
        div = mode.divergence_quad()
        assert np.abs(div).max() < 1e-8


def test_config_validation():
    with pytest.raises(BasisError):
        EigenSolveConfig(n_modes=0)
    with pytest.raises(BasisError):
        solve_basis_annulus(Domain.rectangle(1, 1), [0], EigenSolveConfig())
    with pytest.raises(BasisError):
        solve_basis_annulus(Domain.annulus(0.1, 0.3), [-1], EigenSolveConfig())


def test_eigenvalue_mesh_stability_rect101(rect101_basis3_48):
    """lambda_1..3 must drift <= 0.1% between the 24x24 and 48x48 grids.

    Known red at the margins: the corner-dominated modes 2 and 3 measure about
    0.113-0.114% drift, genuine discretization convergence, not a defect (the
    48x48 values themselves are accurate to < 0.1%). Kept at the strict bound.
    """
    dom = Domain.rectangle(1.0, 1.01)
    coarse = solve_basis_rectangle(build_rectangle_mesh(dom, 24, 24),
                                   EigenSolveConfig(n_modes=3))
    drift = np.abs(coarse.eigenvalues - rect101_basis3_48.eigenvalues) \
        / rect101_basis3_48.eigenvalues
    assert np.all(drift <= 1e-3), f"relative drift {drift}"
