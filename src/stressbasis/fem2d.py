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


class RectOps:
    """Quadrature, interpolation, and scalar matrices for a rectangle mesh.

    Attributes
    ----------
    qx, qy, qw : (nq,) quadrature coordinates and weights (area measure)
    P, Px, Py : sparse (nq, nn) evaluation of a nodal field and its gradient
        at the quadrature points
    Ks, Ms, Dx, Dy : sparse (nn, nn) scalar stiffness, mass, and the mixed
        matrices  Dx[a,b] = int N_a dN_b/dx dA  (likewise Dy)
    """

    def __init__(self, mesh: RectangleMesh):
        self.mesh = mesh
        rule = gauss_2d(_GAUSS_N)
        gp = rule.points
        gw = rule.weights
        nqp = len(gw)
        nn = mesh.n_nodes
        conn = mesh.connectivity()
        nel = len(conn)

        # reference shape tables (nqp, 9)
        Nt = np.empty((nqp, 9))
        dXt = np.empty((nqp, 9))
        dYt = np.empty((nqp, 9))
        for q, (xi, eta) in enumerate(gp):
            Nt[q], dXt[q], dYt[q] = shape2d(xi, eta)

        dx = np.repeat(np.diff(mesh.xs)[None, :], mesh.nely, axis=0).ravel()
        dy = np.repeat(np.diff(mesh.ys)[:, None], mesh.nelx, axis=1).ravel()
        Jx, Jy = dx / 2, dy / 2

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
        shape = (self.nq, nn)
        self.P = sp.csr_matrix((Pv, (rows, cols)), shape=shape)
        self.Px = sp.csr_matrix((Pxv, (rows, cols)), shape=shape)
        self.Py = sp.csr_matrix((Pyv, (rows, cols)), shape=shape)

        # scalar element matrices, cached per distinct element size
        cache: dict = {}
        vK = np.empty((nel, 81))
        vM = np.empty((nel, 81))
        vDx = np.empty((nel, 81))
        vDy = np.empty((nel, 81))
        for e in range(nel):
            key = (round(dx[e], 14), round(dy[e], 14))
            if key not in cache:
                jx, jy = Jx[e], Jy[e]
                w = gw * jx * jy
                Ke = np.einsum("q,qa,qb->ab", w, dXt / jx, dXt / jx) \
                    + np.einsum("q,qa,qb->ab", w, dYt / jy, dYt / jy)
                Me = np.einsum("q,qa,qb->ab", w, Nt, Nt)
                Dxe = np.einsum("q,qa,qb->ab", w, Nt, dXt / jx)
                Dye = np.einsum("q,qa,qb->ab", w, Nt, dYt / jy)
                cache[key] = (Ke.ravel(), Me.ravel(), Dxe.ravel(), Dye.ravel())
            vK[e], vM[e], vDx[e], vDy[e] = cache[key]
        r = np.repeat(conn, 9, axis=1).ravel()
        c = np.tile(conn, (1, 9)).ravel()

        def mk(v):
            return sp.csr_matrix((v.ravel(), (r, c)), shape=(nn, nn))

        self.Ks, self.Ms, self.Dx, self.Dy = mk(vK), mk(vM), mk(vDx), mk(vDy)
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
        cols = np.empty((n_along, 3, 3), dtype=int)
        nnx, nny = mesh.nnx, mesh.nny
        for e in range(n_along):
            if tag == "bottom":
                ids = [2 * e, 2 * e + 1, 2 * e + 2]
            elif tag == "top":
                base = (nny - 1) * nnx
                ids = [base + 2 * e, base + 2 * e + 1, base + 2 * e + 2]
            elif tag == "left":
                ids = [2 * e * nnx, (2 * e + 1) * nnx, (2 * e + 2) * nnx]
            else:
                ids = [2 * e * nnx + nnx - 1, (2 * e + 1) * nnx + nnx - 1,
                       (2 * e + 2) * nnx + nnx - 1]
            cols[e] = np.array(ids)[None, :]
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
            self._ms_lu = splu(self.Ms.tocsc())
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
    """Plane-strain stiffness D (engineering form) at points (x, y): (n, 3, 3)."""
    n = len(np.atleast_1d(x))
    if material.kind == "isotropic":
        Y = material.modulus_at(x, y)
        nu = material.nu
        f = Y / ((1 + nu) * (1 - 2 * nu))
        D = np.zeros((n, 3, 3))
        D[:, 0, 0] = D[:, 1, 1] = f * (1 - nu)
        D[:, 0, 1] = D[:, 1, 0] = f * nu
        D[:, 2, 2] = f * (1 - 2 * nu) / 2
        return D
    S = np.array([
        [(1 - material.nu_xy**2) / material.Y_x,
         -material.nu_xy * (1 + material.nu_xy) / material.Y_y, 0.0],
        [-material.nu_xy * (1 + material.nu_xy) / material.Y_y,
         (1 - material.nu_xy**2) / material.Y_y, 0.0],
        [0.0, 0.0, 1.0 / material.G_xy],
    ])
    return np.broadcast_to(np.linalg.inv(S), (n, 3, 3)).copy()


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
    nel = len(conn)
    rule = gauss_2d(_GAUSS_N)
    gp, gw = rule.points, rule.weights
    nqp = len(gw)

    Nt = np.empty((nqp, 9))
    dXt = np.empty((nqp, 9))
    dYt = np.empty((nqp, 9))
    for q, (xi, eta) in enumerate(gp):
        Nt[q], dXt[q], dYt[q] = shape2d(xi, eta)

    dx = np.repeat(np.diff(mesh.xs)[None, :], mesh.nely, axis=0).ravel()
    dy = np.repeat(np.diff(mesh.ys)[:, None], mesh.nelx, axis=1).ravel()
    Jx, Jy = dx / 2, dy / 2

    # B matrices: (nel, nqp, 3, 18); element dofs = 9 ux then 9 uy
    dNdx = dXt[None, :, :] / Jx[:, None, None]
    dNdy = dYt[None, :, :] / Jy[:, None, None]
    B = np.zeros((nel, nqp, 3, 18))
    B[:, :, 0, :9] = dNdx
    B[:, :, 1, 9:] = dNdy
    B[:, :, 2, :9] = dNdy
    B[:, :, 2, 9:] = dNdx

    D = stiffness_matrix_at(material, ops.qx, ops.qy).reshape(nel, nqp, 3, 3)
    w = (gw[None, :] * (Jx * Jy)[:, None])
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
    u = np.zeros(2 * nn)
    u[free] = splu(Kff).solve(F[free])

    # stress at quadrature points, then L2-project to nodes
    ux, uy = u[:nn], u[nn:]
    strain = np.stack([ops.Px @ ux, ops.Py @ uy, ops.Py @ ux + ops.Px @ uy])
    Dq = stiffness_matrix_at(material, ops.qx, ops.qy)
    sq = np.einsum("qij,jq->iq", Dq, strain)
    nodal = np.stack([ops.project_to_nodes(sq[i]) for i in range(3)])
    return nodal
