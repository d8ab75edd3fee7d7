"""Shared finite-element machinery.

Biquadratic (Q2, 9-node) scalar assembly on structured rectangle meshes,
quadratic (3-node) assembly on radial grids, and a displacement-based
plane-strain solver used as a numerical reference.

All quadrature follows the package defaults: 3x3 Gauss per quad element and
3-point Gauss per radial element.

The displacement solve reads only the quadrature, interpolation and edge
tables of its (refined) mesh; the scalar matrices of ``RectOps`` are built on
first access, which only the basis solve makes. Its stiffness matrix is
assembled directly in a nested-dissection order of the node grid
(``_nested_dissection``: separators on element-boundary grid lines, the two
displacement components of a node adjacent), which SuperLU factors as given,
with the pivots on the diagonal. The recovered stress is L2-projected to the
nodes through the 1-D mass matrices: under the tensor Gauss rule the Q2 mass
matrix of a tensor grid is kron(My, Mx), so the projection is one Cholesky
solve per direction.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .quadrature import gauss_1d, gauss_2d
from .meshes import RadialMesh, RectangleMesh

_GAUSS_N = 3


def shape1d(t):
    """Quadratic shape functions on [-1, 1] with nodes at -1, 0, 1."""
    t = np.asarray(t, dtype=float)
    N = np.stack([t * (t - 1) / 2, 1 - t * t, t * (t + 1) / 2], axis=-1)
    dN = np.stack([t - 0.5, -2 * t, t + 0.5], axis=-1)
    return N, dN


def shape2d(xi, eta):
    """Q2 shape functions and reference derivatives, local ordering y-major."""
    Nx, dNx = shape1d(xi)
    Ny, dNy = shape1d(eta)
    N = np.outer(Ny, Nx).ravel()
    dN_dxi = np.outer(Ny, dNx).ravel()
    dN_deta = np.outer(dNy, Nx).ravel()
    return N, dN_dxi, dN_deta


def _spd_lu(A: sp.csc_matrix):
    """SuperLU factor of a symmetric positive definite matrix whose rows and
    columns are already in a fill-reducing order (``_nested_dissection``):
    no column permutation, and the pivots kept on the diagonal."""
    return splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


class RectOps:
    """Quadrature, interpolation, and scalar matrices for a rectangle mesh.

    Attributes
    ----------
    qx, qy, qw : (nq,) quadrature coordinates and weights (area measure)
    Nt, dXt, dYt : (nqp, 9) reference shape values and derivatives per
        element quadrature point; Jx, Jy : (nel,) element half-sizes
    P, Px, Py : sparse (nq, nn) evaluation of a nodal field and its gradient
        at the quadrature points
    Ks, Ms, Dx, Dy : sparse (nn, nn) scalar stiffness, mass, and the mixed
        matrices  Dx[a,b] = int N_a dN_b/dx dA  (likewise Dy); built together
        on first access (``_scalar_matrices``)
    """

    def __init__(self, mesh: RectangleMesh):
        self.mesh = mesh
        rule = gauss_2d(_GAUSS_N)
        gp, gw = rule.points, rule.weights
        nqp, nn = len(gw), mesh.n_nodes
        conn = mesh.connectivity()
        nel = len(conn)

        # reference shape tables (nqp, 9)
        Nt, dXt, dYt = (np.array(t) for t in
                        zip(*(shape2d(xi, eta) for xi, eta in gp)))
        dx = np.repeat(np.diff(mesh.xs)[None, :], mesh.nely, axis=0).ravel()
        dy = np.repeat(np.diff(mesh.ys)[:, None], mesh.nelx, axis=1).ravel()
        Jx, Jy = dx / 2, dy / 2
        self.Nt, self.dXt, self.dYt, self.Jx, self.Jy = Nt, dXt, dYt, Jx, Jy

        ex_x0 = np.tile(mesh.xs[:-1], mesh.nely)
        ey_y0 = np.repeat(mesh.ys[:-1], mesh.nelx)
        self.qx = (ex_x0[:, None] + (gp[:, 0] + 1)[None, :] * Jx[:, None]).ravel()
        self.qy = (ey_y0[:, None] + (gp[:, 1] + 1)[None, :] * Jy[:, None]).ravel()
        self.qw = (gw[None, :] * (Jx * Jy)[:, None]).ravel()
        self.nq = nel * nqp

        # interpolation operators, written in canonical CSR: a quadrature
        # point's row holds the 9 nodes of its element, which the
        # connectivity lists in ascending order (so the shape tables need no
        # permutation). The three matrices share one read-only pattern, so
        # that an in-place sparse method on one fails instead of changing
        # the other two.
        indices = np.repeat(conn.astype(np.int32), nqp, axis=0).ravel()
        indptr = np.arange(0, 9 * self.nq + 1, 9, dtype=np.int32)
        indices.flags.writeable = indptr.flags.writeable = False
        self.P, self.Px, self.Py = (
            sp.csr_matrix((v.ravel(), indices, indptr), shape=(self.nq, nn))
            for v in (np.broadcast_to(Nt, (nel, nqp, 9)),
                      dXt / Jx[:, None, None], dYt / Jy[:, None, None]))
        self._edge_cache: dict = {}

    @functools.cached_property
    def _scalar(self):
        return _scalar_matrices(self)

    Ks = property(lambda self: self._scalar[0])
    Ms = property(lambda self: self._scalar[1])
    Dx = property(lambda self: self._scalar[2])
    Dy = property(lambda self: self._scalar[3])

    # -- edges --------------------------------------------------------------

    _NORMALS = {"left": (-1.0, 0.0), "right": (1.0, 0.0),
                "bottom": (0.0, -1.0), "top": (0.0, 1.0)}

    def edge_quad(self, tag: str):
        """Quadrature (x, y, w) along one boundary side."""
        x, y, w, _E = self._edge(tag)
        return x, y, w

    def edge_interp(self, tag: str):
        """Sparse (n_edge_q, nn) evaluation of a nodal field on one side."""
        return self._edge(tag)[3]

    def edge_normal(self, tag: str):
        return np.array(self._NORMALS[tag])

    def _edge(self, tag: str):
        if tag in self._edge_cache:
            return self._edge_cache[tag]
        mesh = self.mesh
        rule = gauss_1d(_GAUSS_N)
        g = rule.points[:, 0]
        gw = rule.weights
        N1, _ = shape1d(g)  # (3, 3): per qp the 3 edge-node weights
        if tag in ("bottom", "top"):
            breaks, n_along = mesh.xs, mesh.nelx
            fixed = 0.0 if tag == "bottom" else mesh.domain.Ly
        else:
            breaks, n_along = mesh.ys, mesh.nely
            fixed = 0.0 if tag == "left" else mesh.domain.Lx
        xs0 = breaks[:-1]
        J = np.diff(breaks) / 2
        coords = (xs0[:, None] + (g + 1)[None, :] * J[:, None]).ravel()
        w = (gw[None, :] * J[:, None]).ravel()
        nq = len(coords)
        rows = np.repeat(np.arange(nq), 3)
        # edge element e holds the side's nodes 2e, 2e + 1, 2e + 2, listed
        # once per quadrature point
        nnx = mesh.nnx
        base, step = {"bottom": (0, 1), "top": ((mesh.nny - 1) * nnx, 1),
                      "left": (0, nnx), "right": (nnx - 1, nnx)}[tag]
        along = 2 * np.arange(n_along)[:, None] + np.arange(3)
        cols = np.repeat(base + step * along, 3, axis=0)
        vals = np.broadcast_to(N1[None, :, :], (n_along, 3, 3)).ravel()
        E = sp.csr_matrix((vals, (rows, cols.ravel())), shape=(nq, mesh.n_nodes))
        if tag in ("bottom", "top"):
            out = (coords, np.full(nq, fixed), w, E)
        else:
            out = (np.full(nq, fixed), coords, w, E)
        self._edge_cache[tag] = out
        return out

    @functools.cached_property
    def _mass_factors(self):
        """Cholesky factors of the 1-D mass matrices along x and y."""
        return tuple(cho_factor(_mass_1d(br))
                     for br in (self.mesh.xs, self.mesh.ys))

    def project_to_nodes(self, quad_values: np.ndarray) -> np.ndarray:
        """L2 projection of quadrature-point samples onto the nodal Q2 space.

        The mass matrix is kron(My, Mx) on the x-fastest node numbering, so
        Ms x = b is My X Mx = B with X and B on the (nny, nnx) node grid.
        Samples that are not finite give nodal values that are not finite,
        which the FEM reference refuses (``oracles``).
        """
        cx, cy = self._mass_factors
        B = (self.P.T @ (self.qw * quad_values)).reshape(self.mesh.nny,
                                                         self.mesh.nnx)
        return cho_solve(cx, cho_solve(cy, B, check_finite=False).T,
                         check_finite=False).T.ravel()


def _scalar_matrices(ops: RectOps):
    """(Ks, Ms, Dx, Dy) of a rectangle mesh from one element table per
    element size, gathered onto the elements; sizes equal to 14 decimals
    share the table of the first element that has them."""
    Nt, dXt, dYt, Jx, Jy = ops.Nt, ops.dXt, ops.dYt, ops.Jx, ops.Jy
    gw = gauss_2d(_GAUSS_N).weights
    _, first, inv = np.unique(np.round(np.column_stack([2 * Jx, 2 * Jy]), 14),
                              axis=0, return_index=True, return_inverse=True)
    tables = np.empty((4, len(first), 81))
    for u, e in enumerate(first):
        jx, jy = Jx[e], Jy[e]
        w = gw * jx * jy
        Ke = np.einsum("q,qa,qb->ab", w, dXt / jx, dXt / jx) \
            + np.einsum("q,qa,qb->ab", w, dYt / jy, dYt / jy)
        Me = np.einsum("q,qa,qb->ab", w, Nt, Nt)
        Dxe = np.einsum("q,qa,qb->ab", w, Nt, dXt / jx)
        Dye = np.einsum("q,qa,qb->ab", w, Nt, dYt / jy)
        tables[:, u] = [Ke.ravel(), Me.ravel(), Dxe.ravel(), Dye.ravel()]
    inv = inv.reshape(-1)
    conn = ops.mesh.connectivity()
    nn = ops.mesh.n_nodes
    r = np.repeat(conn, 9, axis=1).ravel()
    c = np.tile(conn, (1, 9)).ravel()
    return tuple(sp.csr_matrix((t[inv].ravel(), (r, c)), shape=(nn, nn))
                 for t in tables)


def _mass_1d(breaks: np.ndarray) -> np.ndarray:
    """Dense mass matrix of quadratic elements on ``breaks``, under the
    3-point Gauss rule; the tensor product of two is the Q2 mass matrix."""
    rule = gauss_1d(_GAUSS_N)
    N, _ = shape1d(rule.points[:, 0])
    Me = np.einsum("q,qa,qb->ab", rule.weights, N, N)
    J = np.diff(breaks) / 2
    idx = 2 * np.arange(len(J))[:, None] + np.arange(3)
    M = np.zeros((2 * len(J) + 1,) * 2)
    np.add.at(M, (idx[:, :, None], idx[:, None, :]), J[:, None, None] * Me)
    return M


class RadialOps:
    """Quadrature, interpolation, and radial matrices for a radial grid.

    Sparse (CSR) matrix definitions (over r in [r_a, r_b], quadratic
    shapes N):
    K = int N'_a N'_b r dr,  Mr = int N_a N_b r dr,  W = int N_a N_b / r dr,
    W1 = int N_a N_b dr,  D = int N_a N'_b r dr.
    """

    def __init__(self, mesh: RadialMesh):
        self.mesh = mesh
        rule = gauss_1d(_GAUSS_N)
        g = rule.points[:, 0]
        gw = rule.weights
        nodes = mesh.nodes
        nel = mesh.nel
        nn = mesh.n_nodes
        Nt, dNt = shape1d(g)  # (3 qp, 3 shape)

        x0 = nodes[0::2][:-1]
        x2 = nodes[0::2][1:]
        J = (x2 - x0) / 2
        self.rq = (x0[:, None] + (g + 1)[None, :] * J[:, None]).ravel()
        self.wq = (gw[None, :] * J[:, None]).ravel()
        self.nq = len(self.rq)

        conn = mesh.connectivity()
        rows = np.repeat(np.arange(self.nq), 3)
        cols = np.repeat(conn, len(g), axis=0).reshape(nel, len(g), 3).ravel()
        Pv = np.broadcast_to(Nt[None], (nel, len(g), 3)).ravel()
        Prv = (dNt[None] / J[:, None, None]).ravel()
        self.P = sp.csr_matrix((Pv, (rows, cols)), shape=(self.nq, nn))
        self.Pr = sp.csr_matrix((Prv, (rows, cols)), shape=(self.nq, nn))

        # element matrices (nel, 3, 3) from per-element quadrature tables
        r = self.rq.reshape(nel, -1)
        w = self.wq.reshape(nel, -1)
        dN = dNt[None] / J[:, None, None]
        NN = np.einsum("qa,qb->qab", Nt, Nt)
        erow = np.repeat(conn, 3, axis=1).ravel()
        ecol = np.tile(conn, (1, 3)).ravel()

        def mk(v):
            return sp.csr_matrix((v.ravel(), (erow, ecol)), shape=(nn, nn))

        self.K = mk(np.einsum("eq,eqa,eqb->eab", w * r, dN, dN))
        self.Mr = mk(np.einsum("eq,qab->eab", w * r, NN))
        self.W = mk(np.einsum("eq,qab->eab", w / r, NN))
        self.W1 = mk(np.einsum("eq,qab->eab", w, NN))
        self.D = mk(np.einsum("eq,qa,eqb->eab", w * r, Nt, dN))


def rect_ops(mesh: RectangleMesh) -> RectOps:
    if "ops" not in mesh._cache:
        mesh._cache["ops"] = RectOps(mesh)
    return mesh._cache["ops"]


def radial_ops(mesh: RadialMesh) -> RadialOps:
    if "ops" not in mesh._cache:
        mesh._cache["ops"] = RadialOps(mesh)
    return mesh._cache["ops"]


# ---------------------------------------------------------------------------
# Displacement-based plane-strain solver (numerical reference)
# ---------------------------------------------------------------------------

def stiffness_matrix_at(material, x, y):
    """Plane-strain stiffness D (engineering form) at points (x, y): (n, 3, 3).

    D inverts the material's unit-modulus compliance S, its shear row doubled
    for the engineering shear strain, and the modulus Y(x, y) scales it
    pointwise (Y = 1 for a law whose moduli are inside S).
    """
    S = material.S * [[1.0], [1.0], [2.0]]
    # S is SPD: inverted through its Cholesky factor, D comes out exactly
    # symmetric, and so does the stiffness matrix that _spd_lu factors
    L_inv = np.linalg.inv(np.linalg.cholesky(S))
    Y = material.modulus_at(x, y)
    return np.reshape(Y, (-1, 1, 1)) * (L_inv.T @ L_inv)


def _nested_dissection(nnx: int, nny: int) -> np.ndarray:
    """The node ids of an nnx x nny Q2 node grid in nested-dissection order.

    A box of nodes is cut by the grid line of even index nearest its middle,
    across its longer side: an even line is an element boundary, and no
    element holds nodes on both sides of it (an odd line runs through
    elements and separates nothing). Each part is ordered the same way, then
    the cut follows them; a box that no even line cuts keeps its natural
    order.
    """
    grid = np.arange(nnx * nny).reshape(nny, nnx)
    order = []

    def cut(y0, y1, x0, x1):             # half-open node ranges
        across_x = x1 - x0 >= y1 - y0
        lo, hi = (x0, x1) if across_x else (y0, y1)
        s = (lo + hi - 1) // 2
        s -= s % 2
        if not lo < s < hi - 1:
            s += 2
        if not lo < s < hi - 1:
            order.append(grid[y0:y1, x0:x1].ravel())
        elif across_x:
            cut(y0, y1, x0, s)
            cut(y0, y1, s + 1, x1)
            order.append(grid[y0:y1, s])
        else:
            cut(y0, s, x0, x1)
            cut(s + 1, y1, x0, x1)
            order.append(grid[s, x0:x1])

    cut(0, nny, 0, nnx)
    return np.concatenate(order)


def solve_displacement(mesh: RectangleMesh, material, loading) -> np.ndarray:
    """Standard Q2 displacement solve; returns nodal stress components (3, nn).

    Rigid-body modes are removed by three point constraints (both displacement
    components at the bottom-left corner, the vertical component at the
    bottom-right corner); for self-equilibrated loading the pin reactions
    vanish. Stress is recovered at nodes by global L2 projection of the
    quadrature-point stresses.
    """
    ops = rect_ops(mesh)
    nn = mesh.n_nodes
    conn = mesh.connectivity()
    nel, nqp = len(conn), len(ops.Nt)

    # dof[node, component]: nested-dissection order with the two components
    # of a node adjacent, and the three pins last
    slot = np.empty(nn, dtype=np.int32)
    slot[_nested_dissection(mesh.nnx, mesh.nny)] = np.arange(nn)
    pinned = np.zeros((nn, 2), dtype=bool)
    pinned[0] = pinned[mesh.nnx - 1, 1] = True
    key = 2 * slot[:, None] + np.arange(2) + 2 * nn * pinned
    dof = np.empty(2 * nn, dtype=np.int32)
    dof[np.argsort(key, axis=None)] = np.arange(2 * nn)
    dof = dof.reshape(nn, 2)
    n = 2 * nn - 3

    # element stiffness, one quadrature point at a time; element dofs are
    # 9 ux then 9 uy
    Dq = stiffness_matrix_at(material, ops.qx, ops.qy)
    D = Dq.reshape(nel, nqp, 3, 3)
    w = ops.qw.reshape(nel, nqp)
    B = np.zeros((nel, 3, 18))
    Ke = np.zeros((nel, 18, 18))
    for q in range(nqp):
        B[:, 0, :9] = B[:, 2, 9:] = ops.dXt[q] / ops.Jx[:, None]
        B[:, 1, 9:] = B[:, 2, :9] = ops.dYt[q] / ops.Jy[:, None]
        Ke += np.swapaxes(B, 1, 2) @ (w[:, q, None, None] * D[:, q] @ B)
    edofs = dof[conn].transpose(0, 2, 1).reshape(nel, 18)
    K = sp.csc_matrix((Ke.ravel(), (np.repeat(edofs, 18, axis=1).ravel(),
                                    np.tile(edofs, 18).ravel())),
                      shape=(2 * nn, 2 * nn))
    del B, Ke
    Kff = K[:n, :n]
    del K

    F = np.zeros((2, nn))
    for tag in ("left", "right", "bottom", "top"):
        ex, ey, ew = ops.edge_quad(tag)
        tx, ty = loading.traction_at(tag, ex, ey)
        E = ops.edge_interp(tag)
        F[0] += E.T @ (ew * tx)
        F[1] += E.T @ (ew * ty)
    if loading.body_force is not None:
        bx, by = loading.body_force(ops.qx, ops.qy)
        F[0] += ops.P.T @ (ops.qw * np.broadcast_to(bx, ops.qx.shape))
        F[1] += ops.P.T @ (ops.qw * np.broadcast_to(by, ops.qy.shape))
    Ff = np.empty(2 * nn)
    Ff[dof.T] = F
    Ff = Ff[:n]

    lu = _spd_lu(Kff)
    uf = lu.solve(Ff)
    # two steps of iterative refinement: the point pins leave Kff ill
    # conditioned, and a factor that pivots on its diagonal only loses digits
    # there that these steps win back
    for _ in range(2):
        uf += lu.solve(Ff - Kff @ uf)
    del lu
    ux, uy = np.append(uf, np.zeros(3))[dof.T]

    # stress at quadrature points, then L2-project to nodes
    strain = np.stack([ops.Px @ ux, ops.Py @ uy, ops.Py @ ux + ops.Px @ uy])
    sq = np.einsum("qij,jq->iq", Dq, strain)
    nodal = np.stack([ops.project_to_nodes(sq[i]) for i in range(3)])
    return nodal
