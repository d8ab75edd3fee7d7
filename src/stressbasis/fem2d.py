"""Shared finite-element machinery.

Biquadratic (Q2, 9-node) scalar assembly on structured rectangle meshes,
quadratic (3-node) assembly on radial grids, and a displacement-based
plane-strain solver used as a numerical reference.

All quadrature follows the package defaults: 3x3 Gauss per quad element and
3-point Gauss per radial element.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
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
    """SuperLU factor of a symmetric positive definite matrix: a minimum-degree
    ordering of the symmetric pattern, applied to rows and columns alike, with
    the pivots kept on the diagonal."""
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
        matrices  Dx[a,b] = int N_a dN_b/dx dA  (likewise Dy)
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

        # interpolation operators
        rows = np.repeat(np.arange(self.nq), 9)
        cols = np.repeat(conn, nqp, axis=0).reshape(nel, nqp, 9).ravel()
        Pv = np.broadcast_to(Nt[None, :, :], (nel, nqp, 9)).ravel()
        Pxv = (dXt[None, :, :] / Jx[:, None, None]).ravel()
        Pyv = (dYt[None, :, :] / Jy[:, None, None]).ravel()
        self.P, self.Px, self.Py = (
            sp.csr_matrix((v, (rows, cols)), shape=(self.nq, nn))
            for v in (Pv, Pxv, Pyv))

        # scalar element matrices: one table per element size, gathered onto
        # the elements; sizes equal to 14 decimals share the table of the
        # first element that has them
        _, first, inv = np.unique(np.round(np.column_stack([dx, dy]), 14),
                                  axis=0, return_index=True,
                                  return_inverse=True)
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
        r = np.repeat(conn, 9, axis=1).ravel()
        c = np.tile(conn, (1, 9)).ravel()
        self.Ks, self.Ms, self.Dx, self.Dy = (
            sp.csr_matrix((t[inv].ravel(), (r, c)), shape=(nn, nn))
            for t in tables)
        self._edge_cache: dict = {}
        self._ms_lu = None

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

    def project_to_nodes(self, quad_values: np.ndarray) -> np.ndarray:
        """L2 projection of quadrature-point samples onto the nodal Q2 space."""
        if self._ms_lu is None:
            self._ms_lu = _spd_lu(self.Ms.tocsc())
        rhs = self.P.T @ (self.qw * quad_values)
        return self._ms_lu.solve(rhs)


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

    D inverts the material's compliance of the three unit stresses taken at
    Y = 1, with the shear row doubled for the engineering shear strain; an
    isotropic modulus then scales it pointwise.
    """
    S = material.compliance_on_values(np.eye(3), Y=1.0)
    S[2] *= 2
    # S is SPD: inverted through its Cholesky factor, D comes out exactly
    # symmetric, and so does the stiffness matrix that _spd_lu factors
    L_inv = np.linalg.inv(np.linalg.cholesky(S))
    Y = (material.modulus_at(x, y) if material.kind == "isotropic"
         else np.ones(np.shape(x)))
    return np.reshape(Y, (-1, 1, 1)) * (L_inv.T @ L_inv)


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

    # B matrices: (nel, nqp, 3, 18); element dofs = 9 ux then 9 uy
    dNdx = ops.dXt[None, :, :] / ops.Jx[:, None, None]
    dNdy = ops.dYt[None, :, :] / ops.Jy[:, None, None]
    B = np.zeros((nel, nqp, 3, 18))
    B[:, :, 0, :9] = dNdx
    B[:, :, 1, 9:] = dNdy
    B[:, :, 2, :9] = dNdy
    B[:, :, 2, 9:] = dNdx

    Dq = stiffness_matrix_at(material, ops.qx, ops.qy)
    D = Dq.reshape(nel, nqp, 3, 3)
    w = ops.qw.reshape(nel, nqp)
    Ke = np.einsum("eq,eqia,eqij,eqjb->eab", w, B, D, B, optimize=True)

    edofs = np.concatenate([conn, conn + nn], axis=1)  # (nel, 18)
    rows = np.repeat(edofs, 18, axis=1).ravel()
    cols = np.tile(edofs, (1, 18)).ravel()
    K = sp.csr_matrix((Ke.ravel(), (rows, cols)), shape=(2 * nn, 2 * nn))

    F = np.zeros(2 * nn)
    for tag in ("left", "right", "bottom", "top"):
        ex, ey, ew = ops.edge_quad(tag)
        tx, ty = loading.traction_at(tag, ex, ey)
        E = ops.edge_interp(tag)
        F[:nn] += E.T @ (ew * tx)
        F[nn:] += E.T @ (ew * ty)
    if loading.body_force is not None:
        bx, by = loading.body_force(ops.qx, ops.qy)
        F[:nn] += ops.P.T @ (ops.qw * np.broadcast_to(bx, ops.qx.shape))
        F[nn:] += ops.P.T @ (ops.qw * np.broadcast_to(by, ops.qy.shape))

    # three point constraints
    pins = [0, nn, nn + mesh.nnx - 1]
    free = np.setdiff1d(np.arange(2 * nn), pins)
    Kff = K[free][:, free].tocsc()
    Ff = F[free]
    lu = _spd_lu(Kff)
    uf = lu.solve(Ff)
    # two steps of iterative refinement: the point pins leave Kff ill
    # conditioned, and a factor that pivots on its diagonal only loses digits
    # there that these steps win back
    for _ in range(2):
        uf += lu.solve(Ff - Kff @ uf)
    u = np.zeros(2 * nn)
    u[free] = uf

    # stress at quadrature points, then L2-project to nodes
    ux, uy = u[:nn], u[nn:]
    strain = np.stack([ops.Px @ ux, ops.Py @ uy, ops.Py @ ux + ops.Px @ uy])
    sq = np.einsum("qij,jq->iq", Dq, strain)
    nodal = np.stack([ops.project_to_nodes(sq[i]) for i in range(3)])
    return nodal
