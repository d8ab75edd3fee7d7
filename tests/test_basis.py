import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, null_space

import stressbasis
from stressbasis import basis as basis_mod, fem2d
from stressbasis._cache import read_tagged, write_tagged
from stressbasis.basis import (BasisError, BasisSet, _full_column_rank,
                               _kernel_by_lu, _radial_blocks, _solve_radial_m,
                               airy_bump_basis, load_basis, parity_classes,
                               save_basis, solve_basis_annulus,
                               solve_basis_rectangle, verify_basis)
from stressbasis.fields import (SymTensorField2, equilibrium_residual,
                                l2_inner_tensor, l2_norm_tensor, nodal_gram,
                                planar_trace, scalar_gram, tensor_gram,
                                weighted_mass)
from stressbasis.materials import (Material, compliance_on_quad,
                                   discontinuous_modulus, modulus_on_quad)
from stressbasis.meshes import (Domain, RectangleMesh, build_radial_grid,
                                build_rectangle_mesh)
from stressbasis.particular import uniform_pressure_particular
from stressbasis.solvers import solve_strain_energy

from helpers import mode_residuals


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
    basis = ann_basis_merged
    div = mode_residuals(basis)
    tol = basis_mod.DIV_TOL_FACTOR * basis.provenance["h"] \
        * basis.eigenvalues ** 0.75
    sin_idx = [i for i, mode in enumerate(ann_basis_merged.modes)
               if mode.parity == "sin"]
    assert sin_idx, "merged basis should contain sin-family modes"
    assert np.all(div[sin_idx] <= tol[sin_idx])


def _sign_fixed(cols):
    rows = np.argmax(np.abs(cols), axis=0)
    return cols * np.sign(cols[rows, np.arange(cols.shape[1])])


def _kernel_basis(C):
    """The kernel basis Z of ``_kernel_by_lu`` written out: the identity in
    its free rows, X in its dependent ones."""
    free, dep, X = _kernel_by_lu(C)
    Z = np.zeros((C.shape[1], len(free)))
    Z[free, np.arange(len(free))] = 1.0
    Z[dep] = X
    return Z


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_radial_kernel_by_lu_matches_svd(m):
    """The LU kernel spans ker C and reproduces the SVD-based eigenpairs."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 24)
    nn = mesh.n_nodes
    A, B, C = _radial_blocks(fem2d.radial_ops(mesh), m)
    keep = np.setdiff1d(np.arange(3 * nn), [0, nn - 1, 2 * nn, 3 * nn - 1])
    Z = _kernel_basis(C[:, keep])
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
    Z = _kernel_basis(sp.csr_matrix(C))
    assert Z.shape == (9, 6)
    assert np.abs(C @ Z).max() <= 1e-12 * np.abs(C).max()
    assert np.linalg.matrix_rank(Z) == 6


def test_grams_match_pairwise_inner_products(ann_basis_merged, rect_basis,
                                            rect_mesh):
    for basis in (ann_basis_merged, rect_basis,
                  airy_bump_basis(rect_mesh, 10)):
        modes = basis.modes
        traces = [planar_trace(md) for md in modes]
        n = len(modes)
        G = np.zeros((n, n))
        T = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if (modes[i].m, modes[i].parity) == (modes[j].m, modes[j].parity):
                    G[i, j] = l2_inner_tensor(modes[i], modes[j])
                    T[i, j] = scalar_gram(basis.mesh, modes[i].m,
                                          modes[i].parity, traces[i],
                                          traces[j])
        assert np.abs(basis_mod._l2_gram(basis) - G).max() <= 1e-13
        assert np.abs(basis.trace_gram - T).max() <= 1e-13


def _h1_gram_by_family_split(basis):
    """The H1 Gram with the theta factors written out per family: the normal
    and shear parts of each radial quadratic form evaluated separately."""
    n = len(basis.modes)
    G = np.zeros((n, n))
    mesh = basis.mesh
    if isinstance(mesh, RectangleMesh):
        Ks = fem2d.rect_ops(mesh).Ks
        for w, c in ((1.0, 0), (1.0, 1), (2.0, 2)):
            V = np.array([md.components[c] for md in basis.modes]).T
            G += w * (V.T @ (Ks @ V))
        return G
    ops = fem2d.radial_ops(mesh)
    nn = mesh.n_nodes
    for (m, parity), idx in basis.groups().items():
        A = _radial_blocks(ops, m)[0]
        cols = np.stack([basis.modes[i].components.ravel() for i in idx], 1)
        if parity == "sin":
            cols[2 * nn:] *= -1.0
        cn, cs = cols.copy(), cols.copy()
        cn[2 * nn:] = 0.0
        cs[:2 * nn] = 0.0
        Gn, Gs, Gx = cn.T @ A @ cn, cs.T @ A @ cs, cn.T @ A @ cs
        if m == 0:
            fac_n, fac_s = (2 * np.pi, 0.0) if parity == "cos" \
                else (0.0, 2 * np.pi)
            sub = fac_n * Gn + fac_s * Gs
        else:
            sub = np.pi * (Gn + Gs + Gx + Gx.T)
        G[np.ix_(idx, idx)] = sub
    return G


def test_h1_gram_matches_the_family_split(ann_basis_merged, rect_basis,
                                         ann_mesh, rng):
    # random profiles in every m <= 1 family, the shear-only m = 0 sin one too
    # (modes as views of one nodal array, as an eigenbasis holds them)
    tags = [(0, "cos"), (0, "sin"), (1, "cos"), (1, "sin")] * 3
    nodal = rng.standard_normal((len(tags), 3, ann_mesh.n_nodes))
    random = BasisSet([SymTensorField2(ann_mesh, v, m=m, parity=p)
                       for v, (m, p) in zip(nodal, tags)],
                      None, np.eye(len(tags)), {}, nodal=nodal)
    for basis in (random, ann_basis_merged, rect_basis):
        want = _h1_gram_by_family_split(basis)
        got = basis_mod._h1_gram(basis)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
    # the modes are views of one C-ordered array, built or loaded, so the
    # nodal Grams of both round alike
    for basis in (rect_basis, back):
        assert basis.nodal.flags.c_contiguous
        assert all(np.shares_memory(md.components, basis.nodal)
                   for md in basis.modes)
    assert back.provenance["backend"] == rect_basis.provenance["backend"]
    rep = verify_basis(back)
    assert rep.passed, rep.failures
    with pytest.raises(BasisError, match="airy"):   # built on every run
        save_basis(airy_bump_basis(rect_basis.mesh, 4),
                   str(tmp_path / "airy.sbbasis"))
    assert not (tmp_path / "airy.sbbasis").exists()


def test_load_basis_builds_modes_on_an_equal_mesh(tmp_path, rect_basis):
    path = tmp_path / "basis.sbbasis"
    save_basis(rect_basis, str(path))
    mesh = rect_basis.mesh
    same = RectangleMesh(mesh.domain, mesh.xs.copy(), mesh.ys.copy())
    assert all(md.mesh is same for md in load_basis(str(path), same).modes)
    other = build_rectangle_mesh(mesh.domain, 10, 10)
    back = load_basis(str(path), other)
    assert back.mesh == mesh and back.mesh is not other


def _quad_stack(basis, idx):
    """The (3, nq, k) quadrature values of the modes idx, one mode at a
    time: the reference that the nodal Grams and pairings are checked
    against."""
    return np.stack([basis.modes[i].at_quad() for i in idx], axis=2)


def test_airy_quad_blocks_match_per_mode_evaluation(rect_mesh):
    """The blocks that the airy Grams and pairings add up are runs of
    element rows that cover the quadrature points in order, and hold the
    values of all modes (or of the leading n) bit for bit as each mode's
    ``at_quad`` gives them: on the feature-line square, on an oblong
    rectangle and at the size of example8's airy comparison (36x36, 40
    modes)."""
    meshes = [(rect_mesh, 10),
              (build_rectangle_mesh(Domain.rectangle(1.0, 0.5), 6, 4), 8),
              (build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36), 40)]
    for mesh, k in meshes:
        airy = airy_bump_basis(mesh, k)
        nq = fem2d.rect_ops(mesh).nq
        Q = _quad_stack(airy, range(k))
        for n in (None, 3):
            blocks = list(airy.airy.quad_blocks(mesh, n))
            assert [q.start for q, _ in blocks] == list(range(
                0, nq, basis_mod._AIRY_BLOCK_ROWS * nq // mesh.nely))
            got = np.concatenate([B for _, B in blocks], axis=1)
            assert np.array_equal(got, Q[:, :, :n])


_LAWS = {"isotropic": Material.isotropic(1.0, 0.3),
         "varying": Material.isotropic(discontinuous_modulus(1.0, 3.0, 0.5),
                                       0.33),
         "orthotropic": Material.orthotropic(1.0, 2.0, 0.33, 1.0)}


def test_nodal_grams_and_pairings_match_quadrature(rect_basis,
                                                   ann_basis_merged, rng):
    """Grams and pairings formed from the nodal components equal the ones
    of the modes' quadrature values to 1e-14 relative: the L2, trace and
    strain-energy Grams on the rectangle (a uniform, a varying modulus and
    the orthotropic law) and in every annulus group (cos and sin), and the
    pairing with random quadrature values. The airy basis's, summed over
    blocks of quadrature points (and its trace Gram, formed at the build
    from the potentials' Gram), equal them to 1e-13 relative."""
    airy = airy_bump_basis(rect_basis.mesh, 10)
    for basis, laws, tol in ((rect_basis, list(_LAWS.values()), 1e-14),
                             (ann_basis_merged, [_LAWS["isotropic"]], 1e-14),
                             (airy, list(_LAWS.values()), 1e-13)):
        mesh = basis.mesh
        for key, idx in basis.groups().items():
            m, parity = key or (None, None)
            Q = _quad_stack(basis, idx)
            Tr = Q[0] + Q[1]
            trace = ((1, 1, 0), (1, 1, 0), (0, 0, 0))
            pairs = [
                (basis.gram(m, parity), tensor_gram(mesh, m, parity, Q, Q)),
                (basis.trace_gram[np.ix_(idx, idx)] if basis.airy else
                 nodal_gram(mesh, m, parity, basis._nodal(m, parity), trace),
                 scalar_gram(mesh, m, parity, Tr, Tr))]
            pairs += [(basis.gram(m, parity, law),
                       tensor_gram(mesh, m, parity,
                                   compliance_on_quad(law, mesh, Q), Q))
                      for law in laws]
            A = rng.standard_normal(Q.shape[:2])
            pairs.append((basis.pairing(m, parity, A),
                          tensor_gram(mesh, m, parity, A, Q)))
            pairs.append((basis.pairing(m, parity, A, 3),
                          tensor_gram(mesh, m, parity, A, Q[:, :, :3])))
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= tol * np.abs(want).max()
    assert {key[1] for key in ann_basis_merged.groups()} == {"cos", "sin"}


def test_grams_and_pairings_of_no_modes(rect_basis, ann_basis_m0):
    """A tag group the basis holds no modes of has an empty Gram and
    pairing, and a solve of no modes (a run with N = 0) pairs with none."""
    nq = len(fem2d.radial_ops(ann_basis_m0.mesh).rq)
    assert ann_basis_m0.gram(1, "cos").shape == (0, 0)
    assert ann_basis_m0.pairing(1, "cos", np.ones((3, nq))).shape == (0,)
    nq = fem2d.rect_ops(rect_basis.mesh).nq
    assert rect_basis.pairing(None, None, np.ones((3, nq)), 0).shape == (0,)


def test_nodal_gram_peak_memory(traced_peak):
    """``nodal_gram`` holds one (k, nn) product besides the weighted mass
    matrix: at 120 fields on a 36x36 mesh its peak is below that of
    building the mass matrix plus one product (a product with the strided
    component block as a whole would copy it, and a quadrature stack of the
    fields is 6.6 times the product)."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36)
    fem2d.rect_ops(mesh)    # operators built outside the measurement
    law = _LAWS["varying"]
    d = 1.0 / modulus_on_quad(law, mesh)
    k = 120
    V = np.random.default_rng(1).standard_normal((k, 3, mesh.n_nodes))
    _, mass_peak = traced_peak(weighted_mass, mesh, None, None, d)
    G, peak = traced_peak(nodal_gram, mesh, None, None, V, law.S, d)
    assert G.shape == (k, k)
    assert peak <= mass_peak + k * mesh.n_nodes * 8


def test_kernel_by_lu_peak_memory(traced_peak):
    """The dense LU is dropped before X is copied into C order: the call
    holds no more than the dense C and the kernel basis written out."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 64)
    nn = mesh.n_nodes
    C = _radial_blocks(fem2d.radial_ops(mesh), 2)[2]
    C = C[:, np.setdiff1d(np.arange(3 * nn), [0, nn - 1, 2 * nn, 3 * nn - 1])]
    _, peak = traced_peak(_kernel_by_lu, C)
    Z = _kernel_basis(C)
    assert peak <= 8 * C.shape[0] * C.shape[1] + Z.nbytes


def test_radial_solve_splits_the_axisymmetric_system(monkeypatch):
    """At m = 0 the normal and shear blocks are solved apart, so no kernel
    is taken of the coupled constraint (its 3 nn - 4 free dofs); for m >= 1
    exactly one is."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 24)
    coupled = 3 * mesh.n_nodes - 4
    real = basis_mod._kernel_by_lu
    for m, want in ((0, 0), (1, 1)):
        widths = []
        monkeypatch.setattr(basis_mod, "_kernel_by_lu", lambda C: (
            widths.append(C.shape[1]), real(C))[1])
        _solve_radial_m(mesh, m, 10)
        assert widths and widths.count(coupled) == want


def test_shear_block_kernel_is_shown_empty_by_a_sparse_lu(monkeypatch):
    """At m = 0 the shear block's constraint has full column rank, which a
    sparse LU of its banded rows shows: ``_kernel_by_lu`` factors only the
    normal block. Taking the dense path instead gives the same solve."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 24)
    nn = mesh.n_nodes
    C = _radial_blocks(fem2d.radial_ops(mesh), 0)[2]
    assert _full_column_rank(C[nn:][:, 2 * nn + 1:3 * nn - 1])
    assert not _full_column_rank(C[:nn][:, 1:2 * nn - 1])
    assert not _full_column_rank(sp.csr_matrix(np.eye(4)[:, [0, 1, 1]]))
    real = basis_mod._kernel_by_lu
    shapes = []
    monkeypatch.setattr(basis_mod, "_kernel_by_lu", lambda C: (
        shapes.append(C.shape), real(C))[1])
    lam, cols = _solve_radial_m(mesh, 0, 10)
    assert shapes == [(nn, 2 * nn - 2)]
    monkeypatch.setattr(basis_mod, "_full_column_rank", lambda C: False)
    lam_d, cols_d = _solve_radial_m(mesh, 0, 10)
    assert shapes[1:] == [(nn, 2 * nn - 2), (nn, nn - 2)]
    assert np.array_equal(lam, lam_d) and np.array_equal(cols, cols_d)


def _radial_solve_peak(traced_peak, m):
    """(traced peak of ``_solve_radial_m`` at nel 128 and 100 modes, its
    live set): the kernel's LU block X (r x k, r the dependent dofs, k the
    kernel dimension) while the second pencil is formed, with one (r x k)
    product and the two k x k pencils (``eigh`` then asks for the kept
    pairs only, in O(k) workspace), or the dense LU of the constraint
    (n x r, n = r + k dofs) held with X, whichever is larger, besides the
    sparse operators and their block slices."""
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 128)
    nn = mesh.n_nodes
    A, B, C = _radial_blocks(fem2d.radial_ops(mesh), m)
    sparse = sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
                 for M in (A, B, C))
    keep = np.setdiff1d(np.arange(3 * nn), [0, nn - 1, 2 * nn, 3 * nn - 1])
    if m == 0:      # the normal block; the shear block's kernel is empty
        C, keep = C[:nn], keep[keep < 2 * nn]
    free, dep, _ = _kernel_by_lu(C[:, keep])
    n, r, k = len(keep), len(dep), len(free)
    (lam, cols), peak = traced_peak(_solve_radial_m, mesh, m, 100)
    assert len(lam) == 100
    return peak, 8 * max(2 * r * k + 2 * k * k, n * r + r * k) + 2 * sparse


def test_axisymmetric_radial_solve_peak_memory(traced_peak):
    """At m = 0 the normal block's solve holds X (r about k), one (r x k)
    product and its two pencils, about 4 k^2: neither the kernel basis nor
    its products with A and B are written, and ``eigh`` adds no k^2
    workspace (the full solve's 2 k^2 peaked at 5.6 k^2)."""
    peak, live = _radial_solve_peak(traced_peak, 0)
    assert peak <= live


def test_coupled_radial_solve_peak_memory(traced_peak):
    """At m >= 1, where r is about 2 k, the dense LU of the coupled
    constraint held with X (8 k^2) is the larger phase; the pencils and
    ``eigh`` stay within it."""
    peak, live = _radial_solve_peak(traced_peak, 1)
    assert peak <= live


def test_h1_gram_peak_memory(traced_peak):
    """``_h1_gram`` reads the modes' nodal array in place and holds one
    (k, nn) product of a component's stiffness rows besides the Grams and
    the two (nn, 16) blocks of a chunk's product: it copies neither the
    modes nor a strided component block."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36)
    fem2d.rect_ops(mesh).Ks   # operators built outside the measurement
    k = 120
    V = np.random.default_rng(4).standard_normal((k, 3, mesh.n_nodes))
    basis = BasisSet([SymTensorField2(mesh, v) for v in V], np.ones(k),
                     np.eye(k), {}, nodal=V)
    G, peak = traced_peak(basis_mod._h1_gram, basis)
    assert G.shape == (k, k)
    assert peak <= 1.5 * k * mesh.n_nodes * 8


def test_load_basis_rejects_corruption(tmp_path, rect_basis):
    path = tmp_path / "bad.sbbasis"
    path.write_bytes(b"not a basis file")
    with pytest.raises(BasisError):
        load_basis(str(path))
    # a file without eigenvalues, as airy bases were once stored
    save_basis(rect_basis, str(path))
    meta, arrays = read_tagged(str(path), basis_mod._BASIS_FORMAT)
    del arrays["eigenvalues"]
    write_tagged(str(path), basis_mod._BASIS_FORMAT, meta, arrays)
    with pytest.raises(BasisError, match="eigenvalues"):
        load_basis(str(path))


def test_airy_bump_basis_properties(rect_mesh):
    basis = airy_bump_basis(rect_mesh, 10)
    assert len(basis) == 10
    assert basis.eigenvalues is None
    rep = verify_basis(basis)
    assert rep.passed, rep.failures
    # bump modes are exactly divergence-free and traction-free, each with a
    # closed form of its own rather than parts
    for mode in basis.modes:
        div = mode.divergence_quad()
        assert np.abs(div).max() < 1e-8
        assert mode.parts is None and mode.fn is not None


def test_airy_build_evaluates_each_factor_once_per_point_set(monkeypatch):
    """The build evaluates each 1-D factor and its first two derivatives
    once per point set (nodes, quadrature points), on the set's distinct
    abscissae only: at most 3 (J n_x + K n_y) polynomial values per set. The
    bound also counts the four sides, which the build does not evaluate."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 0.5), 6, 4)
    ops = fem2d.rect_ops(mesh)
    values = []
    real = np.polynomial.polynomial.polyval

    def counted(x, c, tensor=True):
        if isinstance(x, np.ndarray):   # not a composition of polynomials
            values.append(x.size * (np.size(c) // len(c)))
        return real(x, c, tensor)

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", counted)
    monkeypatch.setattr(np.polynomial.Polynomial, "_val",
                        staticmethod(counted))
    airy_bump_basis(mesh, 8)
    # the 8 potentials f_j(x) g_k(y) of lowest total degree
    jr, kr = np.array([(j, d - j) for d in range(8)
                       for j in range(d + 1)][:8]).T
    point_sets = [mesh.node_coords.T, (ops.qx, ops.qy)] + [
        ops.edge_quad(tag)[:2] for tag in ("left", "right", "bottom", "top")]
    bound = sum(3 * ((jr.max() + 1) * len(np.unique(x))
                     + (kr.max() + 1) * len(np.unique(y)))
                for x, y in point_sets)
    assert 0 < sum(values) <= bound


def test_airy_square_takes_its_x_polynomials_from_the_y_ones(rect_mesh,
                                                             monkeypatch):
    """On a square the build forms one table of 1-D polynomials: the x table
    is the leading block of the y table, which equals a table of its own bit
    for bit. A rectangle forms one table per side."""
    calls = []
    real = basis_mod._bump_polys
    monkeypatch.setattr(basis_mod, "_bump_polys",
                        lambda count, L: calls.append(count) or real(count, L))
    oblong = build_rectangle_mesh(Domain.rectangle(1.0, 0.5), 6, 4)
    for mesh, want in ((rect_mesh, [9]), (oblong, [9, 8])):
        calls.clear()
        airy_bump_basis(mesh, 40)        # x degrees < 8, y degrees < 9
        assert sorted(calls, reverse=True) == want
    assert np.array_equal(real(9, 1.0)[:12, :, :8], real(8, 1.0))


def test_airy_build_holds_no_nodal_arrays(traced_held, traced_peak):
    """A built airy basis holds its modes' potential coefficients and the
    1-D tables of the quadrature points and of the nodes, and neither
    nodal arrays nor quadrature values: at the size of example8's airy
    comparison (36x36, 40 modes) it holds at most 0.1 times and its build
    peaks at most 0.3 times the modes' nodal arrays k 3 n_nodes, which the
    modes form when they are read (stored, they were 1.02 and 1.08 times
    them)."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36)
    fem2d.rect_ops(mesh)             # operators built outside the measurement
    arrays = 40 * 3 * mesh.n_nodes * np.dtype(float).itemsize
    basis, held = traced_held(airy_bump_basis, mesh, 40)
    assert held <= 0.1 * arrays
    assert all("components" not in vars(md) for md in basis.modes)
    basis, peak = traced_peak(airy_bump_basis, mesh, 40)
    assert peak <= 0.3 * arrays


def test_airy_components_equal_the_eager_ones(rect_mesh, monkeypatch):
    """An airy mode forms its nodal components on every read, byte for byte
    (signed zeros included) the array that the sign convention made of the
    values of its coefficients before the sign was fixed
    (``_sign_fixed(_airy_values(nodes, C))``): on the feature-line square
    and on an oblong rectangle."""
    real = basis_mod._sign_fixed
    seen = []
    monkeypatch.setattr(basis_mod, "_sign_fixed",
                        lambda comps: seen.append(comps.copy()) or real(comps))
    oblong = build_rectangle_mesh(Domain.rectangle(1.0, 0.5), 6, 4)
    for mesh, k in ((rect_mesh, 10), (oblong, 8)):
        seen.clear()
        basis = airy_bump_basis(mesh, k)
        airy = basis.airy
        nodes = basis_mod._bump_tables(airy.fx, airy.fy,
                                       *mesh.node_coords.T)
        assert len(seen) == k
        flips = 0
        for C, values, md in zip(airy.coefs, seen, basis.modes):
            want, flipped = real(values)
            flips += flipped
            # the values the sign was fixed from are those of the
            # coefficients before it was: -C for a flipped mode
            before = -C if flipped else C
            assert values.tobytes() == basis_mod._airy_values(
                nodes, before).tobytes()
            got = md.components
            assert got.tobytes() == want.tobytes()
            assert md.components is not got
        assert 0 < flips < k


def test_airy_blocked_grams_match_one_product(rect_mesh):
    """The L2 and trace Grams that the build sums over the blocks of
    quadrature points match the products of the whole stack of values to
    1e-13 relative, for the raw potentials (one-hot coefficients) of the
    feature-line square and of an oblong rectangle, and for a built
    basis."""
    oblong = build_rectangle_mesh(Domain.rectangle(1.0, 0.5), 6, 4)
    for mesh in (rect_mesh, oblong):
        ops = fem2d.rect_ops(mesh)
        airy = airy_bump_basis(mesh, 12).airy
        n, J, K = 15, airy.fx.shape[2], airy.fy.shape[2]
        raw = np.zeros((n, J, K))
        jr, kr = np.divmod(np.arange(n), K)
        raw[np.arange(n), jr, kr] = 1.0
        for modes in (basis_mod._AiryModes(airy.fx, airy.fy, raw, airy.quad),
                      airy):
            Q = modes.values(ops.qx, ops.qy, modes.coefs)
            Tr = Q[0] + Q[1]
            got = modes.grams(mesh)
            want = (tensor_gram(mesh, None, None, Q, Q),
                    scalar_gram(mesh, None, None, Tr, Tr))
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_airy_orientation_does_not_follow_the_block_size(monkeypatch):
    """The potentials are orthogonalized one mirror-parity class at a time,
    so each mode lies in one class, and the modes of a square's degenerate
    pairs (j, k), (k, j) come from the two classes that the x <-> y swap
    exchanges, not from the round-off of the Gram's sums: at 36x36/40 the
    coefficients with the Gram summed over blocks of one and of two
    element rows agree to 1e-12 relative."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36)
    coefs = []
    for rows in (1, 2):
        monkeypatch.setattr(basis_mod, "_AIRY_BLOCK_ROWS", rows)
        coefs.append(airy_bump_basis(mesh, 40).airy.coefs)
    assert np.abs(coefs[1] - coefs[0]).max() <= 1e-12 * np.abs(
        coefs[0]).max()
    J, K = coefs[0].shape[1:]
    parity = np.add.outer(np.arange(J) % 2 * 2, np.arange(K) % 2)
    for C in coefs[0]:
        assert len(np.unique(parity[C != 0])) == 1


def test_potential_indices_are_the_leading_pairs(traced_peak):
    """The potentials (j, k) in order of total degree are the leading n
    pairs of the comprehension over all degrees below n, for every n up to
    300, formed without the others: n = 4000 allocates less than 1 MB
    (the comprehension's n (n + 1) / 2 pairs took about 1 GB)."""
    ref = np.array([(j, d - j) for d in range(300)
                    for j in range(d + 1)][:300]).T
    for n in range(1, 301):
        jr, kr = basis_mod._potential_indices(n)
        assert np.array_equal(jr, ref[0, :n])
        assert np.array_equal(kr, ref[1, :n])
    (jr, kr), peak = traced_peak(basis_mod._potential_indices, 4000)
    assert peak < 1e6
    assert (jr[-1], kr[-1]) == (83, 5)     # 3999 = 88 * 89 / 2 + 83


def _bump_polys_by_objects(count, L):
    """The clamped polynomials as ``numpy.polynomial`` objects form them."""
    from numpy.polynomial import legendre, polynomial
    Poly = polynomial.Polynomial
    clamp = Poly([0.0, 0.0, 1.0]) * Poly([1.0, -1.0]) ** 2
    out = np.zeros((count + 4, 3, count))
    for j in range(count):
        leg = legendre.Legendre.basis(j).convert(kind=Poly)
        f_u = clamp * leg(Poly([-1.0, 2.0]))
        f = Poly(f_u.coef * (1.0 / L) ** np.arange(len(f_u.coef)))
        for d in range(3):
            out[:j + 5 - d, d, j] = f.deriv(d).coef
    return out


def test_bump_polys_equal_the_polynomial_objects():
    """The clamped polynomials formed on coefficient arrays equal, bit for
    bit, the ones that ``Polynomial`` objects form, for 1 to 12 of them on
    sides of several lengths."""
    for count in range(1, 13):
        for L in (1.0, 0.5, 0.7, 1.3, 2.0):
            got = basis_mod._bump_polys(count, L)
            want = _bump_polys_by_objects(count, L)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (count, L)


def test_airy_verification_tabulates_each_side_once(rect_mesh, monkeypatch):
    """``verify_basis`` of an airy basis tabulates the factors once per
    side for all modes, so the number of tabulations does not depend on the
    number of modes; its report equals the one of each mode's own
    ``equilibrium_residual``."""
    real = basis_mod._bump_tables
    calls = []
    monkeypatch.setattr(basis_mod, "_bump_tables",
                        lambda *a: calls.append(1) or real(*a))
    counts = []
    for n in (4, 12):
        basis = airy_bump_basis(rect_mesh, n)
        calls.clear()
        rep = verify_basis(basis)
        counts.append(len(calls))
        assert rep.passed, rep.failures
        ref = [equilibrium_residual(md) for md in basis.modes]
        assert rep.max_div_residual == max(r.interior_norm for r in ref)
        assert rep.max_boundary_traction == max(r.boundary_mismatch
                                                for r in ref)
    assert counts[0] == counts[1] <= 4


def test_verify_basis_keeps_no_stack(rect_basis, traced_held):
    """``verify_basis`` measures the L2 Gram from the nodal components and
    keeps neither the weighted mass matrix nor a product: after it returns
    it holds less than a tenth of the modes' nodal array, so a cold run's
    verification leaves nothing alive through the rest of the run."""
    verify_basis(rect_basis)    # operators built outside the measurement
    _, held = traced_held(verify_basis, rect_basis)
    assert held < 0.1 * rect_basis.nodal.nbytes


def test_config_validation(rect_mesh, ann_mesh):
    with pytest.raises(BasisError):
        solve_basis_rectangle(rect_mesh, 0)
    with pytest.raises(BasisError):
        solve_basis_annulus(ann_mesh, [0], 0)
    with pytest.raises(BasisError):
        solve_basis_annulus(rect_mesh, [0], 20)
    with pytest.raises(BasisError):
        solve_basis_annulus(ann_mesh, [-1], 20)


def test_eigenvalue_mesh_stability_rect101(rect101_basis3_48):
    """lambda_1..3 must drift <= 0.1% between the 24x24 and 48x48 grids.

    Known red at the margins: the corner-dominated modes 2 and 3 measure about
    0.113-0.114% drift, genuine discretization convergence, not a defect (the
    48x48 values themselves are accurate to < 0.1%). Kept at the strict bound.
    """
    dom = Domain.rectangle(1.0, 1.01)
    coarse = solve_basis_rectangle(build_rectangle_mesh(dom, 24, 24), 3)
    drift = np.abs(coarse.eigenvalues - rect101_basis3_48.eigenvalues) \
        / rect101_basis3_48.eigenvalues
    assert np.all(drift <= 1e-3), f"relative drift {drift}"


# ---------------------------------------------------------------------------
# Rectangle eigensolve split by reflection parity
# ---------------------------------------------------------------------------

_FOUR = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _nudged(mesh, x=True, y=True):
    """The mesh with one interior breakpoint per chosen axis moved by 1e-11 of
    the side: no longer mirror-symmetric, the same discretization to 1e-11."""
    xs, ys = mesh.xs.copy(), mesh.ys.copy()
    if x:
        xs[1] += 1e-11 * mesh.domain.Lx
    if y:
        ys[1] += 1e-11 * mesh.domain.Ly
    return RectangleMesh(mesh.domain, xs, ys, mesh.feature_x, mesh.feature_y)


def _parity_defect(mode, cls):
    """max |R mode - p mode| / max |mode| over the split axes' reflections."""
    mesh = mode.mesh
    v = mode.components.reshape(3, mesh.nny, mesh.nnx)
    sign = np.array([1.0, 1.0, -1.0])[:, None, None]  # shear flips
    dev = 0.0
    if cls[0]:
        dev = max(dev, np.abs(sign * v[:, :, ::-1] - cls[0] * v).max())
    if cls[1]:
        dev = max(dev, np.abs(sign * v[:, ::-1, :] - cls[1] * v).max())
    return dev / np.abs(v).max()


def _mode_class(mode, classes):
    return min(classes, key=lambda c: _parity_defect(mode, c))


def _split_pair(mesh, k):
    split = solve_basis_rectangle(mesh, k)
    whole = solve_basis_rectangle(_nudged(mesh), k)
    return split, whole


@pytest.fixture(scope="module")
def square16_pair():
    """The 16x16 feature-line square, 60 modes: split and one-class solves."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 16, 16,
                                feature_lines={"x": [0.25, 0.75], "y": [0.5]})
    return _split_pair(mesh, 60)


def test_split_matches_one_class_solve(square16_pair):
    rect = build_rectangle_mesh(Domain.rectangle(1.0, 1.01), 24, 24)
    for split, whole in (_split_pair(rect, 3), square16_pair):
        assert split.provenance["parity_classes"] == [list(c) for c in _FOUR]
        assert whole.provenance["parity_classes"] == [[0, 0]]
        lam, ref = split.eigenvalues, whole.eigenvalues
        assert np.abs(lam - ref).max() <= 1e-8 * ref.max()
        assert verify_basis(split).passed and verify_basis(whole).passed


def test_split_enlarges_a_crowded_class():
    """On a slender strip the low modes crowd into the y-even classes, past
    the first request of ceil(k/4) + 2 modes per class; those classes are
    solved again for more, and the merged spectrum stays exact."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 0.125), 32, 4)
    split, whole = _split_pair(mesh, 12)
    counts = {}
    for mode in split.modes:
        cls = _mode_class(mode, _FOUR)
        counts[cls] = counts.get(cls, 0) + 1
    assert max(counts.values()) > 3 + 2
    assert np.abs(split.eigenvalues - whole.eigenvalues).max() \
        <= 1e-8 * whole.eigenvalues.max()


def test_split_modes_are_parity_pure(square16_pair, rect_basis):
    for basis in (square16_pair[0], rect_basis):
        for mode in basis.modes:
            cls = _mode_class(mode, _FOUR)
            assert _parity_defect(mode, cls) <= 1e-12


def test_split_orders_symmetric_pairs_by_class(square16_pair):
    """The two modes of a pair made degenerate by the square's x <-> y
    symmetry follow the class order, whatever the round-off in their
    eigenvalues."""
    lam = square16_pair[0].eigenvalues
    cls = [_FOUR.index(_mode_class(mode, _FOUR))
           for mode in square16_pair[0].modes]
    pairs = [i for i in range(1, len(lam))
             if abs(lam[i] - lam[i - 1]) <= 1e-10 * lam[i]]
    assert pairs
    assert all(cls[i] > cls[i - 1] for i in pairs)


def test_asymmetric_meshes_split_only_about_mirror_lines():
    dom = Domain.rectangle(1.0, 1.0)
    one_line = build_rectangle_mesh(dom, 8, 8, feature_lines={"x": [0.3]})
    two_lines = build_rectangle_mesh(dom, 8, 8,
                                     feature_lines={"x": [0.3], "y": [0.3]})
    assert parity_classes(one_line) == [(0, 1), (0, -1)]
    assert parity_classes(two_lines) == [(0, 0)]
    for mesh in (one_line, two_lines):
        basis = solve_basis_rectangle(mesh, 10)
        rep = verify_basis(basis)
        assert rep.passed, rep.failures
    halves = solve_basis_rectangle(one_line, 10)
    whole = solve_basis_rectangle(_nudged(one_line, x=False), 10)
    assert parity_classes(_nudged(one_line, x=False)) == [(0, 0)]
    assert np.abs(halves.eigenvalues - whole.eigenvalues).max() \
        <= 1e-8 * whole.eigenvalues.max()
    for mode in halves.modes:
        cls = _mode_class(mode, [(0, 1), (0, -1)])
        assert _parity_defect(mode, cls) <= 1e-12


def test_split_keeps_se_objective_at_cluster_closings(square16_pair):
    """Values at n closing a degenerate cluster do not depend on how the
    modes inside a cluster are oriented, so the split leaves them alone."""
    material = Material.isotropic(discontinuous_modulus(1.0, 3.0, 0.5), 0.33)
    out = []
    for basis in square16_pair:
        ps = uniform_pressure_particular(basis.mesh, 1.0)
        res = solve_strain_energy(ps.field, basis, material, len(basis))
        out.append(res.diagnostics["objective"])
    lam = square16_pair[0].eigenvalues
    gap = square16_pair[0].provenance["degenerate_gap"]
    closing = [n for n in range(1, len(lam))
               if lam[n] - lam[n - 1] > gap * lam[n - 1]] + [len(lam)]
    assert len(closing) < len(lam)  # the square has degenerate pairs
    split, whole = (o[np.array(closing) - 1] for o in out)
    assert np.abs(split - whole).max() <= 1e-9 * np.abs(whole).max()


# ---------------------------------------------------------------------------
# Class solves on the thread pool
# ---------------------------------------------------------------------------

_BLAS_PROBE = """
import hashlib
import numpy as np
from stressbasis.basis import solve_basis_rectangle
from stressbasis.meshes import Domain, build_rectangle_mesh
mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 32, 32,
                            feature_lines={"x": [0.3]})
basis = solve_basis_rectangle(mesh, 6)
modes = np.stack([md.components for md in basis.modes])
print(hashlib.sha256(modes.tobytes()).hexdigest(),
      basis.eigenvalues.tobytes().hex())
"""


def test_rectangle_basis_ignores_blas_thread_count():
    """The class solves run on one BLAS thread each, so the basis is the same
    bytes whatever OPENBLAS_NUM_THREADS says (two classes, x = 0.3 line)."""
    src = os.path.dirname(os.path.dirname(stressbasis.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        out.append(run.stdout.split())
    assert out[0][0] == out[1][0]   # mode bytes
    assert out[0][1] == out[1][1]   # eigenvalue bytes


def _eigsh_threads(monkeypatch):
    """Record the thread of every eigsh call."""
    seen = []
    real = basis_mod.eigsh

    def spy(*args, **kwargs):
        seen.append(threading.get_ident())
        return real(*args, **kwargs)
    monkeypatch.setattr(basis_mod, "eigsh", spy)
    return seen


def test_rectangle_basis_same_on_one_or_two_workers(monkeypatch, rect_mesh):
    seen = _eigsh_threads(monkeypatch)
    built = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        built.append(solve_basis_rectangle(rect_mesh, 8))
    one, two = built
    assert one.eigenvalues.tobytes() == two.eigenvalues.tobytes()
    for a, b in zip(one.modes, two.modes):
        assert a.components.tobytes() == b.components.tobytes()
    assert threading.get_ident() not in seen


def test_class_solves_stay_in_the_calling_thread_without_a_blas_cap(
        monkeypatch, rect_mesh):
    seen = _eigsh_threads(monkeypatch)
    monkeypatch.setattr(basis_mod, "_blas_thread_cap", lambda: None)
    solve_basis_rectangle(rect_mesh, 8)
    assert seen and set(seen) == {threading.get_ident()}
