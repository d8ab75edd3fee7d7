import numpy as np
import pytest

from scipy.sparse.linalg import splu, spsolve

from stressbasis import fem2d
from stressbasis.fem2d import (radial_ops, rect_ops, shape1d, shape2d,
                               stiffness_matrix_at)
from stressbasis.materials import Material, discontinuous_modulus
from stressbasis.meshes import Domain, LoadingSpec, build_radial_grid, \
    build_rectangle_mesh
from stressbasis.oracles import displacement_fem_oracle
from stressbasis.quadrature import gauss_1d, gauss_2d


def test_shape_functions_partition_of_unity():
    t = np.linspace(-1, 1, 7)
    N, dN = shape1d(t)
    assert np.allclose(N.sum(axis=1), 1.0)
    assert np.allclose(dN.sum(axis=1), 0.0)
    N2, dX2, dY2 = shape2d(0.3, -0.7)
    assert np.allclose(N2.sum(), 1.0)
    assert np.allclose(dX2.sum(), 0.0)
    assert np.allclose(dY2.sum(), 0.0)


def test_rect_ops_quadrature_measures(rect_mesh):
    ops = rect_ops(rect_mesh)
    assert ops.qw.sum() == pytest.approx(1.0, rel=1e-13)  # unit square area
    # gradient interpolation is exact for quadratics
    f = rect_mesh.node_coords[:, 0] ** 2
    assert np.allclose(ops.Px @ f, 2 * ops.qx, atol=1e-11)
    assert np.allclose(ops.Py @ f, 0.0, atol=1e-11)


def test_rect_ops_mass_and_stiffness(rect_mesh):
    ops = rect_ops(rect_mesh)
    ones = np.ones(rect_mesh.n_nodes)
    assert ones @ (ops.Ms @ ones) == pytest.approx(1.0, rel=1e-12)
    assert abs(ones @ (ops.Ks @ ones)) < 1e-10  # constants are stiffness-free
    x = rect_mesh.node_coords[:, 0]
    assert x @ (ops.Ks @ x) == pytest.approx(1.0, rel=1e-12)  # int |grad x|^2


def test_radial_ops_integrates_polynomials(ann_mesh):
    ops = radial_ops(ann_mesh)
    ra, rb = ann_mesh.domain.r_a, ann_mesh.domain.r_b
    # int r^2 * r dr with exact nodal r^2
    vals = ops.P @ (ann_mesh.nodes ** 2)
    assert np.dot(ops.wq * ops.rq, vals) == pytest.approx(
        (rb**4 - ra**4) / 4, rel=1e-12)
    # radial matrices agree with direct quadrature for quadratic data
    f = ann_mesh.nodes ** 2
    assert f @ (ops.Mr @ f) == pytest.approx((rb**6 - ra**6) / 6, rel=1e-10)
    assert f @ (ops.W @ f) == pytest.approx((rb**4 - ra**4) / 4, rel=1e-10)


def test_project_to_nodes_roundtrip(rect_mesh, rng):
    ops = rect_ops(rect_mesh)
    f = rng.normal(size=rect_mesh.n_nodes)
    back = ops.project_to_nodes(ops.P @ f)
    assert np.allclose(back, f, atol=1e-9)


@pytest.mark.parametrize("mat", [
    Material.isotropic(2.0, 0.3),
    Material.isotropic(discontinuous_modulus(1.0, 3.0, 0.5), 0.33),
    Material.orthotropic(1.0, 2.0, 0.33, 1.0),      # example8's law
], ids=["uniform", "discontinuous", "orthotropic"])
def test_stiffness_matrix_spd(mat):
    """D is SPD and inverts the material's compliance, shear row doubled for
    the engineering strain, at each point."""
    x, y = np.array([0.2, 0.5, 0.8]), np.array([0.1, 0.5, 0.9])
    D = stiffness_matrix_at(mat, x, y)
    Y = mat.modulus_at(x, y) if mat.kind == "isotropic" else [None] * len(x)
    for Dk, Yk in zip(D, Y):
        S_eng = mat.compliance_on_values(np.eye(3), Y=Yk)
        S_eng[2] *= 2
        assert np.array_equal(Dk, Dk.T)
        assert np.all(np.linalg.eigvalsh(Dk) > 0)
        assert np.abs(Dk @ S_eng - np.eye(3)).max() <= 1e-13


def test_displacement_solver_patch_test():
    """Uniform boundary pressure must reproduce the uniform stress exactly."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 6, 6)
    mat = Material.isotropic(1.0, 0.3)
    p = 1.0
    loading = LoadingSpec.for_rectangle({
        "top": lambda x, y: (np.zeros_like(x), np.full_like(x, -p)),
        "bottom": lambda x, y: (np.zeros_like(x), np.full_like(x, p)),
    })
    orc = displacement_fem_oracle(mesh, loading, mat, refine=2)
    comps = orc.field.components
    assert np.abs(comps[0]).max() < 1e-8
    assert np.abs(comps[1] + p).max() < 1e-8
    assert np.abs(comps[2]).max() < 1e-8


@pytest.fixture
def spd_factors(monkeypatch):
    """Every matrix that ``fem2d._spd_lu`` factors, with its factor and the
    (right side, solution) pairs solved with it."""
    factored = []
    real = fem2d._spd_lu

    class Spy:
        def __init__(self, A):
            self.A, self.lu, self.solves = A, real(A), []
            factored.append(self)

        def solve(self, b):
            x = self.lu.solve(b)
            self.solves.append((b.copy(), x.copy()))
            return x
    monkeypatch.setattr(fem2d, "_spd_lu", Spy)
    return factored


def _band_problem(n):
    """example7_dc's mesh, material and a four-sided load on an n x n grid."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), n, n,
                                feature_lines={"x": [0.25, 0.75], "y": [0.5]})
    mat = Material.isotropic(discontinuous_modulus(1.0, 3.0, 0.5), 0.33)
    loading = LoadingSpec.for_rectangle({
        "top": lambda x, y: (np.zeros_like(x), -np.ones_like(x)),
        "bottom": lambda x, y: (np.zeros_like(x), np.ones_like(x)),
        "left": lambda x, y: (np.ones_like(y), np.zeros_like(y)),
        "right": lambda x, y: (-np.ones_like(y), np.zeros_like(y)),
    })
    return mesh, mat, loading


def test_spd_factor_fills_less_than_colamd(spd_factors):
    """The nested-dissection factor of the refined 16x16 oracle mesh's Kff
    has less fill than COLAMD's and solves to round-off."""
    mesh, mat, loading = _band_problem(16)
    displacement_fem_oracle(mesh, loading, mat, refine=2)
    kff = spd_factors[0]
    assert kff.A.shape[0] == 2 * mesh.refined(2).n_nodes - 3
    colamd = splu(kff.A)
    fill = kff.lu.L.nnz + kff.lu.U.nnz
    assert fill < colamd.L.nnz + colamd.U.nnz
    F, u = kff.solves[0]    # the plain solve, before any refinement step
    assert np.linalg.norm(kff.A @ u - F) <= 1e-10 * np.linalg.norm(F)


def test_nested_dissection_fills_less_than_minimum_degree(spd_factors):
    """On the refined 36x36 mesh (72x72 elements), Kff factored in its
    nested-dissection order has less fill than with SuperLU's minimum-degree
    ordering of the same matrix, and its plain solve leaves a residual
    below 1e-10 of the load."""
    mesh, mat, loading = _band_problem(36)
    displacement_fem_oracle(mesh, loading, mat, refine=2)
    kff = spd_factors[0]
    mmd = splu(kff.A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    assert kff.lu.L.nnz + kff.lu.U.nnz < mmd.L.nnz + mmd.U.nnz
    F, u = kff.solves[0]
    assert np.linalg.norm(kff.A @ u - F) <= 1e-10 * np.linalg.norm(F)


@pytest.mark.parametrize("nnx, nny, last_cut", [
    (3, 3, None), (9, 5, 4 + 9 * np.arange(5)), (5, 17, 40 + np.arange(5))])
def test_nested_dissection_order(nnx, nny, last_cut):
    """The order lists every node once and ends with the cut through the
    middle element boundary across the longer side; one element is not
    cut."""
    order = fem2d._nested_dissection(nnx, nny)
    assert np.array_equal(np.sort(order), np.arange(nnx * nny))
    if last_cut is None:
        assert np.array_equal(order, np.arange(nnx * nny))
    else:
        assert np.array_equal(order[-len(last_cut):], last_cut)


def test_kronecker_projection_matches_the_mass_matrix_solve(rng):
    """``project_to_nodes`` solves with kron(My, Mx); on a graded mesh that
    equals a solve with the assembled 2-D mass matrix."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 7, 9,
                                feature_lines={"x": [0.3], "y": [0.3]})
    assert len(set(np.diff(mesh.xs))) > 1 and len(set(np.diff(mesh.ys))) > 1
    ops = rect_ops(mesh)
    q = rng.normal(size=ops.nq)
    ref = spsolve(ops.Ms.tocsc(), ops.P.T @ (ops.qw * q))
    got = ops.project_to_nodes(q)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_reference_solve_builds_no_scalar_matrices(monkeypatch):
    """The fine mesh of a reference solve never builds Ks, Ms, Dx or Dy; a
    mesh that reads them builds the four once."""
    built = []
    real = fem2d._scalar_matrices
    monkeypatch.setattr(fem2d, "_scalar_matrices",
                        lambda ops: built.append(ops.mesh) or real(ops))
    mesh, mat, loading = _band_problem(4)
    displacement_fem_oracle(mesh, loading, mat, refine=2)
    assert built == []
    ops = rect_ops(mesh)
    ops.Ks, ops.Ms, ops.Dx, ops.Dy, ops.Ks
    assert built == [mesh]


def test_displacement_solve_peak_memory(traced_peak):
    """The numpy transients of the reference solve on the refined 16x16 mesh
    stay under five element-stiffness stacks (nel x 18 x 18 doubles): the
    stack is built one quadrature point at a time, and Kff directly in its
    factor order."""
    mesh, mat, loading = _band_problem(16)
    fine = mesh.refined(2)
    ops = rect_ops(fine)
    for tag in ("left", "right", "bottom", "top"):
        ops.edge_quad(tag)
    _, peak = traced_peak(fem2d.solve_displacement, fine, mat, loading)
    assert peak <= 5 * fine.n_elements * 18 * 18 * 8


def test_edge_quadrature_lengths(rect_mesh):
    ops = rect_ops(rect_mesh)
    for tag in ("left", "right", "bottom", "top"):
        _, _, w = ops.edge_quad(tag)
        assert w.sum() == pytest.approx(1.0, rel=1e-13)


def _per_element_ops(mesh):
    """Connectivity, scalar matrices and edge maps rebuilt one element at a
    time from the definitions, each element from its own size."""
    from scipy.sparse import coo_matrix
    rule = gauss_2d(3)
    Nt, dXt, dYt = np.array([shape2d(*p) for p in rule.points]).transpose(1, 0, 2)
    nnx, nny = mesh.nnx, mesh.nny
    out = {"conn": np.array([[(2 * ey + jy) * nnx + 2 * ex + ix
                              for jy in range(3) for ix in range(3)]
                             for ey in range(mesh.nely)
                             for ex in range(mesh.nelx)])}
    mats = []
    for e in range(mesh.n_elements):
        ey, ex = divmod(e, mesh.nelx)
        jx, jy = np.diff(mesh.xs)[ex] / 2, np.diff(mesh.ys)[ey] / 2
        w = rule.weights * jx * jy
        mats.append([np.einsum("q,qa,qb->ab", w, dXt / jx, dXt / jx)
                     + np.einsum("q,qa,qb->ab", w, dYt / jy, dYt / jy),
                     np.einsum("q,qa,qb->ab", w, Nt, Nt),
                     np.einsum("q,qa,qb->ab", w, Nt, dXt / jx),
                     np.einsum("q,qa,qb->ab", w, Nt, dYt / jy)])
    rows = np.repeat(out["conn"], 9, axis=1).ravel()
    cols = np.tile(out["conn"], (1, 9)).ravel()
    for i, name in enumerate(("Ks", "Ms", "Dx", "Dy")):
        vals = np.ravel([m[i] for m in mats])
        out[name] = coo_matrix((vals, (rows, cols)), shape=(nnx * nny,) * 2)
    N1, _ = shape1d(gauss_1d(3).points[:, 0])
    first = {"bottom": lambda e: (2 * e, 1),
             "top": lambda e: ((nny - 1) * nnx + 2 * e, 1),
             "left": lambda e: (2 * e * nnx, nnx),
             "right": lambda e: (2 * e * nnx + nnx - 1, nnx)}
    for tag, node in first.items():
        n_along = mesh.nelx if tag in ("bottom", "top") else mesh.nely
        out[tag] = np.zeros((3 * n_along, nnx * nny))
        for e in range(n_along):
            start, step = node(e)
            out[tag][3 * e:3 * e + 3, start:start + 3 * step:step] = N1
    return out


def test_rect_ops_match_per_element_assembly():
    """Every operator equals its element-by-element assembly on a graded
    feature-line mesh (sizes repeat exactly, so one element table serves
    several elements)."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 0.75), 4, 6,
                                feature_lines={"x": [0.125, 0.375, 0.4375],
                                               "y": [0.0625, 0.65625]})
    assert len(set(np.diff(mesh.xs))) > 2 and len(set(np.diff(mesh.ys))) > 2
    ref = _per_element_ops(mesh)
    ops = rect_ops(mesh)
    assert np.array_equal(mesh.connectivity(), ref["conn"])
    for name in ("Ks", "Ms", "Dx", "Dy"):
        assert (getattr(ops, name) != ref[name].tocsr()).nnz == 0, name
    for tag in ("bottom", "top", "left", "right"):
        assert np.array_equal(ops.edge_interp(tag).toarray(), ref[tag]), tag


def _coo_interpolation(mesh):
    """P, Px and Py built as the triplets of each quadrature point's 9
    element nodes, converted to CSR by scipy."""
    from scipy.sparse import csr_matrix
    ops = rect_ops(mesh)
    conn = mesh.connectivity()
    nel, nqp = conn.shape[0], len(ops.Nt)
    rows = np.repeat(np.arange(ops.nq), 9)
    cols = np.repeat(conn, nqp, axis=0).ravel()
    vals = [np.broadcast_to(ops.Nt, (nel, nqp, 9)),
            ops.dXt / ops.Jx[:, None, None], ops.dYt / ops.Jy[:, None, None]]
    return [csr_matrix((v.ravel(), (rows, cols)), shape=(ops.nq, mesh.n_nodes))
            for v in vals]


@pytest.mark.parametrize("mesh", [
    build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 12, 12,
                         feature_lines={"x": [0.25, 0.75], "y": [0.5]}),
    build_rectangle_mesh(Domain.rectangle(1.0, 0.5), 6, 4)],
    ids=["feature_square", "oblong"])
def test_interpolation_operators_equal_the_coo_build(mesh):
    """P, Px and Py, written in CSR directly, equal the matrices that scipy
    converts from triplets, array for array (``indptr``, ``indices`` and
    ``data`` with their dtypes), and share one read-only pattern: an in-place
    sparse method on one of them fails and leaves the others as they were."""
    ops = rect_ops(mesh)
    mats = (ops.P, ops.Px, ops.Py)
    for got, want in zip(mats, _coo_interpolation(mesh)):
        assert got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert all(np.shares_memory(M.indices, ops.P.indices)
               and np.shares_memory(M.indptr, ops.P.indptr) for M in mats)
    assert not (ops.P.indices.flags.writeable or ops.P.indptr.flags.writeable)
    before = ops.Px.copy()
    with pytest.raises(ValueError):
        ops.P.eliminate_zeros()
    assert (ops.Px != before).nnz == 0 and ops.Px.nnz == before.nnz


def test_rect_ops_peak_memory(traced_held, traced_peak):
    """Building the operators of a 36x36 mesh allocates little beyond what
    they hold: its peak is at most 1.15 times the held arrays (the
    interpolation matrices, converted from triplets, peaked at 2.2 times)."""
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 36, 36)
    mesh.connectivity()                  # the mesh's own table, cached
    _, held = traced_held(fem2d.RectOps, mesh)
    _, peak = traced_peak(fem2d.RectOps, mesh)
    assert peak <= 1.15 * held
