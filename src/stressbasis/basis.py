"""Self-equilibrated, traction-free stress basis functions.

The basis functions are eigenfunctions of the constrained eigenproblem

    -Lap(sigma) + grad_s(mu) = lambda sigma,   div sigma = 0   in Omega,
    sigma n = 0,  d(sigma)/dn . (t ox t) = 0                   on dOmega,

discretized with equal-order continuous quadratic elements for all stress and
multiplier components. On the rectangle the divergence constraint is kept as a
saddle block and the pencil is solved by shift-invert Lanczos, one run per
reflection-parity class of the mesh's mirror symmetries, the classes side by
side on a thread pool with one BLAS thread per worker; on the annulus
the problem reduces per azimuthal wavenumber m to a radial system whose
constraint is eliminated by LU: with C^T = P L U (row pivoting), the kernel of
C is spanned by the columns of P [X; I] with X = -L1^-T L2^T. The reduced
pencil Z^T A Z = X^T A_dd X + X^T A_df + A_fd X + A_ff (and the same for B)
is formed from X and the sparse blocks of A and B on the dependent and free
dofs, without writing Z, and solved in place by a symmetric-definite
eigensolver. At m = 0 the system splits into two independent ones, the
normal components with the radial equation and the shear with the
tangential one; a sparse LU shows that the shear block's constraint has
full column rank, so only the normal block is eliminated and solved.

An alternative non-eigen backend orthonormalizes the stress fields of
clamped polynomial "bump" potentials f(x) g(y) (exactly divergence-free and
traction-free), evaluated from 1-D tables of the factors f and g.

A basis gives the L2 and strain-energy Grams and the pairings of a tag
group (``BasisSet.gram``, ``BasisSet.pairing``). An eigenbasis holds its
modes as views of one (k, 3, n_nodes) array and forms them from the nodal
components through the weighted mass matrix (``fields.nodal_gram``). An
airy basis holds its modes' potential coefficients and the 1-D factor
tables of the quadrature points, and adds up the contributions of blocks
of element rows, each block's values of all modes formed at once.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
import scipy
import scipy.sparse as sp
from numpy.polynomial import polynomial as nppoly
from scipy.linalg import LinAlgWarning, eigh, lu_factor, qr
from scipy.linalg.lapack import dtrtrs
# unused; kept importable: the benchmark's traced run wraps it by name
from scipy.linalg import null_space  # noqa: F401
from scipy.sparse.linalg import eigsh, splu

from . import fem2d
from .fields import (SymTensorField2, _interior_norm, _ops,
                     _traction_mismatch, _weighted_product, _zero_divergence,
                     equilibrium_residual, nodal_gram, nodal_pairing,
                     quad_metric, sparse_rows)
from .materials import modulus_on_quad
from ._cache import _openblas, read_tagged, write_tagged
from .config import NumericFailure
from .meshes import Domain, RadialMesh, RectangleMesh

_PARITIES = ("cos", "sin")

# relative eigenvalue gap below which neighbouring modes form one degenerate
# cluster, orthogonalized together; recorded in the provenance
_DEGENERATE_GAP = 1e-6


class BasisError(NumericFailure, RuntimeError):
    pass


class BasisFileError(BasisError, ValueError):
    """Not a complete, consistent SBBASIS file (with the requested key)."""


@dataclass
class BasisSet:
    """Ordered basis functions with their eigenvalues, the Gram of their
    planar traces (which PT's objective reads) and their provenance."""

    modes: list
    eigenvalues: np.ndarray | None
    trace_gram: np.ndarray
    provenance: dict
    # ``verify_basis`` of the basis, computed once; SBBASIS files store it
    report: BasisReport | None = dc_field(default=None, compare=False)
    # the potentials of an airy basis's modes (``airy_bump_basis``)
    airy: _AiryModes | None = dc_field(default=None, repr=False,
                                       compare=False)
    # (k, 3, n_nodes): the array an eigenbasis's modes are views of
    nodal: np.ndarray | None = dc_field(default=None, repr=False,
                                        compare=False)
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __len__(self):
        return len(self.modes)

    @property
    def mesh(self):
        return self.modes[0].mesh

    @property
    def backend(self) -> str:
        return self.provenance.get("backend", "unknown")

    def groups(self) -> dict:
        """Indices grouped by radial tag (a single None-group on rectangles)."""
        out: dict = {}
        for i, mode in enumerate(self.modes):
            key = (mode.m, mode.parity) if mode.m is not None else None
            out.setdefault(key, []).append(i)
        return out

    def _nodal(self, m, parity, n=None) -> np.ndarray:
        """(k, 3, n_nodes) nodal components of the leading n modes of a tag
        group: a view of ``nodal`` when they lead the basis, else a copy."""
        idx = self.select(m, parity)[:n]
        lead = idx == list(range(len(idx)))
        return self.nodal[:len(idx)] if lead else self.nodal[idx]

    def gram(self, m=None, parity=None, material=None) -> np.ndarray:
        """The L2 Gram <phi_j, phi_i> of the tag group (m, parity), or the
        strain-energy Gram <C^-1 phi_j, phi_i> of a ``material``; not
        symmetrized. Nodal modes go through ``fields.nodal_gram``. An airy
        basis sums the products of its blocks of quadrature points
        (``_AiryModes.quad_blocks``), the law applied to one block's values
        of all modes at a time with the block's slice of the modulus. Neither
        caller nor solver asks which kind of basis it holds."""
        if self.airy is None:
            V = self._nodal(m, parity)
            if material is None:
                return nodal_gram(self.mesh, m, parity, V)
            return nodal_gram(self.mesh, m, parity, V, material.S,
                              1.0 / modulus_on_quad(material, self.mesh))
        w, fac = quad_metric(self.mesh)
        if material is not None:
            Y = modulus_on_quad(material, self.mesh)
        G = np.zeros((len(self),) * 2)
        for q, B in self.airy.quad_blocks(self.mesh):
            E = B if material is None else material.compliance_on_values(
                B, Y if material.uniform else Y[q, None])
            for c, f in enumerate(fac):
                G += f * _weighted_product(w[q], E[c], B[c])
            del B, E        # before the next block is formed
        return G

    def pairing(self, m, parity, A, n=None) -> np.ndarray:
        """<A, phi_i> of quadrature values A (3, nq) with the leading n
        modes of the tag group (m, parity)."""
        if self.airy is None:
            return nodal_pairing(self.mesh, m, parity, A,
                                 self._nodal(m, parity, n))
        w, fac = quad_metric(self.mesh)
        out = np.zeros(len(self.airy.coefs[:n]))
        for q, B in self.airy.quad_blocks(self.mesh, n):
            for c, f in enumerate(fac):
                out += f * _weighted_product(w[q], A[c, q], B[c])
            del B
        return out

    def _combination(self, a, idx, total) -> SymTensorField2:
        """sum_j a[j] phi_idx[j] as one field, its terms summed in order:
        the nodal field of the summed components, or for an airy basis the
        field of the summed potential coefficients. The same pass adds the
        terms, in order, to the nodal array ``total`` in place, so each
        mode's components are read once."""
        tag = self.modes[idx[0]]
        comps = 0
        for c, i in zip(a, idx):
            term = c * self.modes[i].components
            comps += term
            total += term
        if self.airy is None:
            return SymTensorField2(tag.mesh, comps, m=tag.m,
                                   parity=tag.parity)
        C = sum(c * self.airy.coefs[i] for c, i in zip(a, idx))
        return self.airy.field(tag.mesh, C, comps)

    def select(self, m=None, parity=None) -> list:
        """Indices of modes matching a radial tag (all modes on rectangles)."""
        if m is None:
            return list(range(len(self.modes)))
        return [i for i, md in enumerate(self.modes)
                if md.m == m and md.parity == parity]


# ---------------------------------------------------------------------------
# Rectangle backend
# ---------------------------------------------------------------------------

# parity of (sxx, syy, sxy) and of the multiplier (mu_x, mu_y) under the x and
# y mirror reflections, relative to the class parity (px, py): a reflection
# flips the sign of the shear stress and of the normal displacement
_STRESS_SIGNS = ((1, 1), (1, 1), (-1, -1))
_MULTIPLIER_SIGNS = ((-1, 1), (1, -1))

# a mesh is mirror-symmetric about an axis when its breakpoints reflect onto
# each other to this fraction of the side length
_MIRROR_TOL = 1e-12

# relative gap below which two eigenvalues of different classes are taken as
# equal (the class solves agree to about 1e-12)
_EQUAL_LAMBDA = 1e-10

# a rigid motion whose projection keeps less than this fraction of its norm
# does not live in the parity class
_RIGID_TOL = 1e-8


def _mirror_symmetric(breaks: np.ndarray, L: float) -> bool:
    return bool(np.all(np.abs(breaks + breaks[::-1] - L) <= _MIRROR_TOL * L))


def parity_classes(mesh: RectangleMesh) -> list:
    """The reflection-parity classes (px, py) the rectangle eigensolve splits
    into: +-1 about each mirror line of the mesh, 0 for an axis it is not
    symmetric about. An asymmetric mesh has the single class (0, 0)."""
    axes = [(1, -1) if _mirror_symmetric(br, L) else (0,)
            for br, L in ((mesh.xs, mesh.domain.Lx), (mesh.ys, mesh.domain.Ly))]
    return [(px, py) for px in axes[0] for py in axes[1]]


def _parity_projection(mesh: RectangleMesh, cls, signs, keep) -> sp.csc_matrix:
    """Orthonormal columns spanning the dofs ``keep`` of one parity class.

    The dof vector stacks one nodal field per entry of ``signs``; a field's
    parity is the class parity times its sign. Column j is the signed sum of
    one field over the mirror orbit of one node (its reflections about the
    split axes). Orbits whose signed sum cancels (an odd field on its mirror
    line) and orbits of fixed dofs drop out; the fixed-dof set is itself
    mirror-invariant, so every orbit is either wholly kept or wholly fixed.
    """
    nnx, nny = mesh.nnx, mesh.nny
    nn = nnx * nny
    jy, ix = np.divmod(np.arange(nn), nnx)
    rows, cols, vals = [], [], []
    ncol = 0
    for f, (sx, sy) in enumerate(signs):
        px, py = cls[0] * sx, cls[1] * sy
        rep = np.ones(nn, dtype=bool)
        if px:
            rep &= ix <= (nnx - 1) // 2
        if py:
            rep &= jy <= (nny - 1) // 2
        reps = np.flatnonzero(rep)
        rx, ry = nnx - 1 - ix[reps], nny - 1 - jy[reps]
        images = [(1, reps)]
        if px:
            images.append((px, jy[reps] * nnx + rx))
        if py:
            images.append((py, ry * nnx + ix[reps]))
        if px and py:
            images.append((px * py, ry * nnx + rx))
        for s, nodes in images:
            rows.append(f * nn + nodes)
            cols.append(ncol + np.arange(len(reps)))
            vals.append(np.full(len(reps), float(s)))
        ncol += len(reps)
    # duplicate entries (a node on its own mirror line) are summed
    P = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(signs) * nn, ncol))[keep].tocsc()
    P.eliminate_zeros()
    P = P[:, np.flatnonzero(np.diff(P.indptr))]
    norms = np.sqrt(np.asarray(P.multiply(P).sum(axis=0)).ravel())
    return (P @ sp.diags(1.0 / norms)).tocsc()


def _rigid_pins(mesh: RectangleMesh, Pm: sp.spmatrix) -> np.ndarray:
    """Class multiplier coordinates to pin: one per rigid motion surviving the
    projection, chosen by pivoted QR so the pinned rows of the projected
    rigid motions are nonsingular (which removes the symmetric-gradient
    kernel from the class)."""
    X, Y = mesh.node_coords.T
    nn = mesh.n_nodes
    R = np.zeros((2 * nn, 3))
    R[:nn, 0] = 1.0                                   # x-translation
    R[nn:, 1] = 1.0                                   # y-translation
    R[:nn, 2] = -(Y - 0.5 * mesh.domain.Ly)           # rotation
    R[nn:, 2] = X - 0.5 * mesh.domain.Lx
    Rc = Pm.T @ R
    kept = np.linalg.norm(Rc, axis=0) > _RIGID_TOL * np.linalg.norm(R, axis=0)
    Rc = Rc[:, kept]
    if Rc.shape[1] == 0:
        return np.empty(0, dtype=int)
    _, piv = qr(Rc.T, mode="r", pivoting=True)
    return piv[:Rc.shape[1]]


def _blas_thread_cap():
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with scipy,
    which ARPACK and SuperLU link against; None when it is not there."""
    return _openblas(scipy, "openblas_set_num_threads_local", (ctypes.c_int,))


def _blas_threads() -> list:
    """The thread counts of the OpenBLAS bundled with scipy and of the one
    bundled with numpy (None where one is not there). The dense annulus
    solve runs on them, and its modes move at round-off when they change."""
    counts = (_openblas(scipy, "scipy_openblas_get_num_threads"),
              _openblas(np, "scipy_openblas_get_num_threads64_"))
    return [None if get is None else get() for get in counts]


@contextlib.contextmanager
def _class_map(n_classes: int):
    """A ``map`` for the independent class solves: a pool of
    min(n_classes, usable CPUs) threads, each capped at one BLAS thread, so
    the result depends on neither count; the builtin ``map`` in the calling
    thread when the cap is not available."""
    cap = _blas_thread_cap()
    if cap is None:
        yield map
        return
    workers = min(n_classes, len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(workers, initializer=cap, initargs=(1,)) as pool:
        yield pool.map


def _merge_order(keys: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """The order that merges the modes of several parity classes by (key,
    class ``tags``), keys equal to round-off (relative gap below
    ``_EQUAL_LAMBDA``) counting as equal: the two modes of a pair made
    degenerate by symmetry (the square's x <-> y pairs) then come in class
    order, not in round-off order."""
    by_key = np.argsort(keys, kind="stable")
    k = keys[by_key]
    level = np.concatenate(
        [[0], np.cumsum(np.diff(k) > _EQUAL_LAMBDA * np.abs(k[:-1]))])
    return by_key[np.lexsort((tags[by_key], level))]


def solve_basis_rectangle(mesh: RectangleMesh, n_modes: int) -> BasisSet:
    """First n_modes eigenpairs on a rectangle mesh.

    sigma n = 0 is imposed strongly on boundary nodes (all three components at
    corners); the tangential natural condition is built into the weak form;
    div sigma = 0 enters through the multiplier saddle block.

    The operator commutes with the mirror reflections of the mesh, so the
    saddle system splits exactly into reflection-parity classes (see
    ``parity_classes``), each solved by its own shift-invert Lanczos run on
    the projected system; pinned multiplier coordinates remove the rigid
    motions that live in the class. A class is asked for about n_modes /
    (number of classes) modes plus a margin, and asked again for more until
    its largest eigenvalue reaches the n_modes-th merged one, so the merged
    spectrum is exact. Modes are merged by (lambda, class). The solves of one
    round run concurrently (see ``_class_map``).
    """
    if n_modes < 1:
        raise BasisError("n_modes must be >= 1")
    ops = fem2d.rect_ops(mesh)
    nn = mesh.n_nodes
    on_x, on_y = mesh.boundary_node_masks()

    fix = np.zeros(3 * nn, dtype=bool)
    fix[0:nn][on_x] = True          # sxx on x = const sides
    fix[nn:2 * nn][on_y] = True     # syy on y = const sides
    fix[2 * nn:][on_x | on_y] = True  # sxy on the whole boundary
    keep_s = np.where(~fix)[0]

    Z = sp.csr_matrix((nn, nn))
    A = sp.bmat([[ops.Ks, Z, Z], [Z, ops.Ks, Z], [Z, Z, 2 * ops.Ks]]).tocsr()
    B = sp.bmat([[ops.Ms, Z, Z], [Z, ops.Ms, Z], [Z, Z, 2 * ops.Ms]]).tocsr()
    Ak = A[keep_s][:, keep_s]
    Bk = B[keep_s][:, keep_s]
    C = sp.bmat([[ops.Dx, Z, ops.Dy], [Z, ops.Dy, ops.Dx]]).tocsr()[:, keep_s]

    classes = parity_classes(mesh)
    systems = []  # (K, M, sigma projection, subspace dimension) per class
    for cls in classes:
        Ps = _parity_projection(mesh, cls, _STRESS_SIGNS, keep_s)
        Pm = _parity_projection(mesh, cls, _MULTIPLIER_SIGNS,
                                np.arange(2 * nn))
        keep_m = np.setdiff1d(np.arange(Pm.shape[1]), _rigid_pins(mesh, Pm))
        Cc = (Pm[:, keep_m].T @ C @ Ps).tocsr()
        nm = Cc.shape[0]
        K = sp.bmat([[Ps.T @ Ak @ Ps, Cc.T], [Cc, None]], format="csc")
        M = sp.bmat([[Ps.T @ Bk @ Ps, None], [None, sp.csr_matrix((nm, nm))]],
                    format="csc")
        systems.append((K, M, Ps, Ps.shape[1] - nm))
    max_k = sum(s[3] for s in systems)
    if n_modes > max_k:
        raise BasisError(
            f"n_modes={n_modes} exceeds the discrete subspace dimension {max_k}")

    def solve(c, k):
        """The k smallest eigenpairs of class c, sigma part on the kept dofs."""
        K, M, Ps, _ = systems[c]
        if not k:
            return np.empty(0), np.empty((len(keep_s), 0))
        try:
            vals, vecs = eigsh(K, k=k, M=M, sigma=0.0, which="LM",
                               v0=np.ones(K.shape[0]), tol=0.0)
        except Exception as exc:  # noqa: BLE001 - eigensolver failures vary
            raise BasisError(f"eigensolver did not converge: {exc}") from exc
        order = np.argsort(vals)
        return vals[order], Ps @ vecs[:Ps.shape[1], order]

    n = n_modes
    ask = [min(dim, -(-n // len(classes)) + 2 + n // 16)
           for *_, dim in systems]
    with _class_map(len(classes)) as run:
        found = list(run(solve, range(len(classes)), ask))
        while True:
            lam = np.sort(np.concatenate([v for v, _ in found]))
            lam_n = lam[n - 1] if len(lam) >= n else np.inf
            short = [c for c, (v, _) in enumerate(found)
                     if ask[c] < systems[c][3] and v[-1] < lam_n]
            if not short:
                break
            for c in short:
                ask[c] = min(systems[c][3], 2 * ask[c])
            redone = run(solve, short, [ask[c] for c in short])
            for c, got in zip(short, redone):
                found[c] = got

    vals = np.concatenate([v for v, _ in found])
    tags = np.repeat(np.arange(len(found)), [len(v) for v, _ in found])
    order = _merge_order(vals, tags)[:n]
    vals = vals[order]
    vecs = np.hstack([V for _, V in found])[:, order]
    if np.any(vals <= 0):
        raise BasisError("eigensolver returned non-positive eigenvalues")

    nodal = np.zeros((n, 3 * nn))
    nodal[:, keep_s] = vecs.T
    nodal = nodal.reshape(n, 3, nn)
    modes = [SymTensorField2(mesh, comps) for comps in nodal]

    h = float(max(np.diff(mesh.xs).max(), np.diff(mesh.ys).max()))
    basis = BasisSet(modes, vals, np.eye(len(modes)), {
        "backend": "eigen-rectangle",
        "mesh_hash": mesh.mesh_hash(),
        "mesh": {"Lx": mesh.domain.Lx, "Ly": mesh.domain.Ly,
                 "xs": mesh.xs.tolist(), "ys": mesh.ys.tolist()},
        "n_modes": n_modes,
        "parity_classes": [list(cls) for cls in classes],
        "solver_tol": 0.0,
        "degenerate_gap": _DEGENERATE_GAP,
        "h": h,
    }, nodal=nodal)
    return orthonormalize(basis)


# ---------------------------------------------------------------------------
# Annulus backend
# ---------------------------------------------------------------------------

def _radial_blocks(ops: fem2d.RadialOps, m: int):
    """Sparse (CSR) stiffness A, mass B and divergence constraint C."""
    K, Mr, W, W1, D = ops.K, ops.Mr, ops.W, ops.W1, ops.D
    A = sp.bmat([
        [K + (m**2 + 2) * W, -2 * W, 4 * m * W],
        [-2 * W, K + (m**2 + 2) * W, -4 * m * W],
        [4 * m * W, -4 * m * W, 2 * K + (2 * m**2 + 8) * W],
    ], format="csr")
    B = sp.block_diag([Mr, Mr, 2 * Mr], format="csr")
    C = sp.bmat([[D + W1, -W1, m * W1], [None, -m * W1, D + 2 * W1]],
                format="csr")
    return A, B, C


# relative LU pivot below which a constraint row counts as dependent on the
# rows before it; the radial constraints split cleanly (pivots of 0 or 1e-17
# against >= 1e-4 of the largest)
_PIVOT_TOL = 1e-10


def _kernel_by_lu(C: sp.spmatrix):
    """ker C as (free, dep, X): the kernel basis Z (full column rank, not
    orthonormal) has the identity in its rows ``free`` and X in its rows
    ``dep``, so Z itself is never written.

    With C^T = P L U (row pivoting, L unit lower trapezoidal), z solves
    C z = 0 iff (P^T z)^T L = 0, so the kernel is spanned by P [X; I] with
    X = -L1^-T L2^T, where L1 is the leading square block of L: ``dep`` are
    the first rank(C) pivot rows, ``free`` the rest. Row pivoting bounds |L|
    by 1, which keeps the basis well conditioned. Rows of C whose pivot
    vanishes depend on earlier rows: trailing ones are cut off the
    factorization, others are dropped and C is factored again.
    """
    # C^T of a C-ordered array is Fortran-ordered: factored in place. A
    # vanishing pivot is expected here and handled below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        LU, swaps = lu_factor(C.toarray().T, overwrite_a=True,
                              check_finite=False)
    piv = np.abs(np.diag(LU))
    indep = piv > _PIVOT_TOL * piv.max()
    r = int(indep.sum())
    if not indep[:r].all():
        return _kernel_by_lu(C[np.flatnonzero(indep)])
    perm = np.arange(LU.shape[0])
    for i, j in enumerate(swaps):
        perm[[i, j]] = perm[[j, i]]
    # L1 is read in place as the leading r columns of LU (leading dimension
    # n), only its strict lower triangle; LU is dropped before X is negated
    # into C order, the order in which sparse products read it
    X = dtrtrs(LU[:, :r], LU[r:, :r].T, lower=1, trans=1, unitdiag=1)[0]
    del LU
    return perm[r:], perm[:r], np.negative(X, order="C")


def _full_column_rank(C: sp.spmatrix) -> bool:
    """True when a sparse LU shows ker C = 0: C has at least as many rows as
    columns and its middle square row block has no vanishing pivot."""
    nr, nc = C.shape
    if nr < nc:
        return False
    lo = (nr - nc) // 2
    try:
        piv = np.abs(splu(sp.csc_matrix(C[lo:lo + nc])).U.diagonal())
    except RuntimeError:             # an exactly singular block
        return False
    return bool(piv.min() > _PIVOT_TOL * piv.max())


def _reduced(A: sp.spmatrix, free, dep, X) -> np.ndarray:
    """Z^T A Z for the kernel basis Z of ``_kernel_by_lu`` (A symmetric),
    from the sparse blocks as X^T (A_dd X + A_df) + A_fd X + A_ff.

    Holds one (dep, free) product at a time besides the result, and never
    A Z. The result is returned transposed, a Fortran-ordered view: its
    upper triangle holds the lower triangle of the sum as formed here.
    """
    T = A[dep][:, dep] @ X
    Adf = A[dep][:, free].tocoo()
    T[Adf.row, Adf.col] += Adf.data
    M = X.T @ T
    del T
    M += A[free][:, dep] @ X
    Aff = A[free][:, free].tocoo()
    M[Aff.row, Aff.col] += Aff.data
    return M.T


def _solve_radial_m(mesh: RadialMesh, m: int, n_modes: int):
    """Eigenpairs of the radial reduction for one wavenumber (cos family).

    At m = 0 the theta -> -theta reflection splits the system: the normal
    components (sigma_rr, sigma_tt) with the radial equation, and the shear
    with the tangential equation, are uncoupled (the 4mW blocks of A and the
    mW1 blocks of C vanish). Each block is then solved on its own, its
    kernel and pencil a fraction of the coupled ones, and the eigenpairs are
    merged by lambda. The shear block's kernel is empty, since
    r^2 sigma_rt = const vanishes under the end conditions; a sparse LU of
    its banded constraint shows that without a dense factorization. For
    m >= 1 the system is solved coupled.

    The reduced pencils are formed from the kernel's LU block X and the
    sparse blocks of A and B (``_reduced``) and solved by ``eigh`` in place,
    for the n_modes smallest pairs of each system.
    """
    ops = fem2d.radial_ops(mesh)
    nn = mesh.n_nodes
    A, B, C = _radial_blocks(ops, m)
    # f_rr and f_rt at both ends
    keep = np.setdiff1d(np.arange(3 * nn), [0, nn - 1, 2 * nn, 3 * nn - 1])
    # (constraint rows, dofs) of each independent system
    if m == 0:
        systems = [(slice(0, nn), keep[keep < 2 * nn]),
                   (slice(nn, 2 * nn), keep[keep >= 2 * nn])]
    else:
        systems = [(slice(None), keep)]
    lam, cols = [np.empty(0)], [np.empty((3 * nn, 0))]
    for rows, dofs in systems:
        Cb = C[rows][:, dofs]
        if _full_column_rank(Cb):
            continue
        free, dep, X = _kernel_by_lu(Cb)
        if len(free) == 0:
            continue
        free, dep = dofs[free], dofs[dep]
        k = min(n_modes, len(free))
        # eigh B-normalizes the eigenvectors, so the kernel basis need not be
        # orthonormal; it reads the upper triangle of each Fortran view. It
        # asks for the k kept pairs only (LAPACK sygvx) when they are fewer
        # than all: that holds O(k) workspace besides the pencils, not the
        # 2k^2 of the full solve (sygvd), which is faster when all are kept
        lam_b, V = eigh(_reduced(A, free, dep, X), _reduced(B, free, dep, X),
                        lower=False, overwrite_a=True, overwrite_b=True,
                        subset_by_index=[0, k - 1] if k < len(free) else None)
        full = np.zeros((3 * nn, k))
        full[free] = V[:, :k]
        full[dep] = X @ V[:, :k]
        del X, V
        lam.append(lam_b[:k])
        cols.append(full)
    lam, cols = np.concatenate(lam), np.hstack(cols)
    order = np.argsort(lam, kind="stable")[:n_modes]
    return lam[order], cols[:, order]


def solve_basis_annulus(mesh: RadialMesh, wavenumbers,
                        n_modes: int) -> BasisSet:
    """Merged eigenbasis over the requested azimuthal wavenumbers.

    For every m the radial system is solved once; for m >= 1 each radial
    eigenfunction yields a degenerate cos/sin pair. Modes are merged and sorted
    by (lambda, m, parity) and truncated to n_modes.
    """
    if not isinstance(mesh, RadialMesh):
        raise BasisError("annulus backend requires a radial mesh")
    if n_modes < 1:
        raise BasisError("n_modes must be >= 1")
    wavenumbers = sorted(set(int(m) for m in wavenumbers))
    if any(m < 0 for m in wavenumbers):
        raise BasisError("wavenumbers must be >= 0")

    entries = []  # (lambda, m, parity_index, profile columns)
    for m in wavenumbers:
        lam, cols = _solve_radial_m(mesh, m, n_modes)
        nn = mesh.n_nodes
        for i in range(len(lam)):
            comps = cols[:, i].reshape(3, nn)
            entries.append((lam[i], m, 0, comps))
            if m >= 1:
                # the sin twin carries the same normal profiles but a negated
                # shear profile (shear varies as cos m th in that family)
                twin = comps.copy()
                twin[2] = -twin[2]
                entries.append((lam[i], m, 1, twin))
    entries.sort(key=lambda t: (t[0], t[1], t[2]))
    entries = entries[:n_modes]
    if len(entries) < n_modes:
        raise BasisError("requested more modes than the discrete subspace holds")

    vals = np.array([e[0] for e in entries])
    nodal = np.array([e[3] for e in entries])
    modes = [SymTensorField2(mesh, comps, m=m, parity=_PARITIES[pi])
             for comps, (_, m, pi, _) in zip(nodal, entries)]

    h = float(mesh.nodes[2] - mesh.nodes[0])
    basis = BasisSet(modes, vals, np.eye(len(modes)), {
        "backend": "eigen-annulus",
        "mesh_hash": mesh.mesh_hash(),
        "mesh": {"r_a": mesh.domain.r_a, "r_b": mesh.domain.r_b,
                 "nel": mesh.nel},
        "wavenumbers": wavenumbers,
        "n_modes": n_modes,
        "solver_tol": 0.0,
        "degenerate_gap": _DEGENERATE_GAP,
        "h": h,
    }, nodal=nodal)
    return orthonormalize(basis)


# ---------------------------------------------------------------------------
# Orthonormalization and diagnostics
# ---------------------------------------------------------------------------

def _sign_fixed(comps: np.ndarray):
    """``comps`` with the mode sign convention (largest absolute nodal value
    positive), and whether they were negated.

    ``comps`` is a sum of terms that starts at 0; negating the terms would
    give ``0.0 - comps`` exactly, since a zero sum is +0.0 either way.
    """
    flat = comps.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        return 0.0 - comps, True
    return comps, False


def _symmetric(G: np.ndarray) -> np.ndarray:
    return 0.5 * (G + G.T)


def orthonormalize(basis: BasisSet) -> BasisSet:
    """Scale modes to unit L2 norm and orthogonalize degenerate clusters.

    Within each eigenvalue cluster (relative gap below ``_DEGENERATE_GAP``) a
    modified Gram-Schmidt pass runs with the larger-trace-norm mode as the
    first axis. Mode signs follow the largest-absolute-nodal-value convention.

    Modes of distinct (m, parity) tags are orthogonal, so each output mode is
    a combination of the input modes of its own tag group, and the pass runs
    over the members of one tag in a cluster. The passes and the output
    trace Gram work on those coefficients, with inner products taken from
    the input L2 and trace Grams of the group (``fields.nodal_gram``). The
    output's L2 Gram is the identity to round-off; ``verify_basis``
    measures it. The output modes are views of one (k, 3, n_nodes) array,
    as a loaded basis's are.
    """
    n = len(basis.modes)

    # cluster detection on eigenvalues
    clusters = []
    if basis.eigenvalues is not None:
        lam = basis.eigenvalues
        start = 0
        for i in range(1, n):
            if lam[i] - lam[i - 1] > _DEGENERATE_GAP * max(lam[i - 1], 1e-300):
                clusters.append(list(range(start, i)))
                start = i
        clusters.append(list(range(start, n)))

    fixed = [None] * n
    nodal = np.empty((n, 3, basis.mesh.n_nodes))
    out = BasisSet(fixed, basis.eigenvalues, np.zeros((n, n)),
                   dict(basis.provenance), nodal=nodal)
    for key, idx in basis.groups().items():
        m, parity = key or (None, None)
        V = basis._nodal(m, parity)
        G = _symmetric(nodal_gram(basis.mesh, m, parity, V))
        # the planar traces' Gram: the normal components share their factor
        Gt = _symmetric(nodal_gram(basis.mesh, m, parity, V,
                                   ((1, 1, 0), (1, 1, 0), (0, 0, 0))))
        # column p of T: output mode p in terms of the group's input modes
        nrm = np.sqrt(np.maximum(np.diag(G), 0.0))
        if not nrm.all():
            raise BasisError(f"mode {idx[int(np.argmin(nrm))]} has zero norm")
        T = np.diag(1.0 / nrm)

        pos = {i: p for p, i in enumerate(idx)}
        for cl in clusters:
            members = [pos[i] for i in cl if i in pos]
            if len(members) < 2:
                continue
            order = sorted(members, key=lambda p: -np.sqrt(
                max(T[:, p] @ Gt @ T[:, p], 0.0)))
            done = []
            for p in order:
                v = T[:, p]
                for q in done:
                    c = v @ G @ T[:, q]
                    if c != 0.0:
                        v = v - c * T[:, q]
                nrm = np.sqrt(max(v @ G @ v, 0.0))
                if nrm < 1e-8:
                    raise BasisError(
                        f"rank deficiency inside degenerate cluster {cl}")
                T[:, p] = (1.0 / nrm) * v
                done.append(p)

        # the output modes are plain component fields, so that quadrature
        # evaluation is bit-identical between a freshly built basis and one
        # reloaded from the cache
        tag = basis.modes[idx[0]]
        for p, i in enumerate(idx):
            comps, flipped = _sign_fixed(sum(
                float(T[q, p]) * basis.modes[idx[q]].components
                for q in np.flatnonzero(T[:, p])))
            if flipped:
                T[:, p] = -T[:, p]
            nodal[i] = comps
            fixed[i] = SymTensorField2(tag.mesh, nodal[i], m=tag.m,
                                       parity=tag.parity)
        out.trace_gram[np.ix_(idx, idx)] = _symmetric(T.T @ Gt @ T)
    return out


# ---------------------------------------------------------------------------
# Airy bump backend (non-eigen alternative on simply-connected rectangles)
# ---------------------------------------------------------------------------

def _bump_polys(count: int, L: float) -> np.ndarray:
    """Coefficients [power, d, j] of the clamped 1D polynomials
    f_j(0)=f_j'(0)=f_j(L)=f_j'(L)=0, j < count, and of their derivatives of
    order d = 0, 1, 2, zero-padded to count + 4 powers.

    The coefficient arrays go through the steps that ``Polynomial`` objects
    take (Legendre's Clenshaw recurrence on x, then Horner's rule on
    2u - 1), so the values are theirs bit for bit, without the objects."""
    x = [0.0, 1.0]
    clamp = nppoly.polymul([0.0, 0.0, 1.0],                  # u^2 (1-u)^2
                           nppoly.polypow([1.0, -1.0], 2))
    out = np.zeros((count + 4, 3, count))
    for j in range(count):
        c0, c1 = (1.0, 0.0) if j == 0 else (0.0, 1.0)   # P_j in powers of x
        for nd in range(j, 1, -1):
            c0, c1 = (nppoly.polysub(0.0, nppoly.polymul(c1, (nd - 1) / nd)),
                      nppoly.polyadd(c0, nppoly.polymul(
                          nppoly.polymul(c1, x), (2 * nd - 1) / nd)))
        leg = nppoly.polyadd(c0, nppoly.polymul(c1, x))
        shifted = leg[-1:]                               # P_j(2u - 1)
        for c in leg[-2::-1]:
            shifted = nppoly.polyadd(c, nppoly.polymul(shifted, [-1.0, 2.0]))
        f_u = nppoly.polymul(clamp, shifted)
        # substitute u = x / L
        coef = f_u * (1.0 / L) ** np.arange(len(f_u))
        for d in range(3):
            out[:j + 5 - d, d, j] = nppoly.polyder(coef, d)
    return out


def _bump_tables(fx, fy, x, y):
    """The 1-D tables of the points (x, y): F[d, j] = f_j^(d) at the distinct
    x, G[d, k] = g_k^(d) at the distinct y, and each point's index into them
    (Horner's rule on zero-padded coefficients is bitwise the plain one)."""
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    return nppoly.polyval(ux, fx), nppoly.polyval(uy, fy), ix, iy


# the derivative orders (a, b) of f and g and the sign s of each component
# s f^(a) g^(b) of the stress of a potential f(x) g(y): (f g'', f'' g, -f' g')
_AIRY_FACTORS = ((0, 2, 1.0), (2, 0, 1.0), (1, 1, -1.0))


def _airy_values(tables, C):
    """(3, n_points) components at the points of ``tables`` of the stress
    of the potential sum_jk C[j, k] f_j(x) g_k(y), or (3, n_points, n) of n
    such potentials C (n, J, K) at once: each gathered from the products
    s F_a^T C G_b on the distinct abscissae, formed for all potentials by
    two products whose sums are those of one potential's."""
    F, G, ix, iy = tables
    J, K = C.shape[-2:]
    nx, ny = F.shape[2], G.shape[2]
    Cs = C.swapaxes(0, -2).reshape(J, -1)          # (J, n K)
    out = np.stack([s * ((F[a].T @ Cs).reshape(-1, K) @ G[b]).reshape(
        nx, -1, ny)[ix, :, iy] for a, b, s in _AIRY_FACTORS])
    return out if C.ndim == 3 else out[..., 0]


# element rows per block of quadrature points in the airy Grams and
# pairings: a block's values of all modes, the law's output and its
# temporaries stay a small fraction of the quadrature stack (at 12x12/40,
# below 0.3 of it with one row)
_AIRY_BLOCK_ROWS = 1


@dataclass(frozen=True, eq=False)
class _AiryModes:
    """The modes of an airy basis as potential coefficients ``coefs``
    (n, J, K) of the clamped polynomials ``fx`` (f_j(x)) and ``fy``
    (g_k(y)), with the 1-D tables of the factors at the distinct quadrature
    abscissae: ``quad`` = (ux, F, uy, G), F[d, j] = f_j^(d)(ux) and
    G[d, k] = g_k^(d)(uy), and the tables of the nodes, ``nodes``
    (``_bump_tables``)."""

    fx: np.ndarray
    fy: np.ndarray
    coefs: np.ndarray
    quad: tuple
    nodes: tuple | None = None

    def values(self, x, y, C):
        """The stress of the potential(s) C at the points (x, y), which are
        tabulated for the call (``_airy_values``)."""
        return _airy_values(_bump_tables(self.fx, self.fy, x, y), C)

    def nodal(self, c, flipped=False):
        """(3, n_nodes) nodal components of mode c. The build negates the
        coefficients of a mode whose largest absolute nodal value is
        negative (``flipped``); its components are then 0.0 minus the
        values of the coefficients before, -coefs[c], as ``_sign_fixed``
        forms them, signed zeros included."""
        if flipped:
            return 0.0 - _airy_values(self.nodes, -self.coefs[c])
        return _airy_values(self.nodes, self.coefs[c])

    def field(self, mesh, C, comps) -> SymTensorField2:
        """The exact field of the potential C, with nodal components
        ``comps`` (an array, or the function that forms them)."""
        return SymTensorField2(mesh, comps, div_fn=_zero_divergence,
                               fn=functools.partial(self.values, C=C))

    def quad_blocks(self, mesh, n=None):
        """(slice of the quadrature points, their values (3, n_points, n) of
        the leading n modes) for blocks of ``_AIRY_BLOCK_ROWS`` element rows.
        A block reads the columns of F and G from the first to the last of
        its abscissae (all x, a few y), which are the distinct abscissae of
        its points, so each value is the one its mode's ``at_quad`` gives,
        bit for bit."""
        ux, F, uy, G = self.quad
        ops = _ops(mesh)
        step = _AIRY_BLOCK_ROWS * (ops.nq // mesh.nely)
        coefs = self.coefs[:n]
        for s in range(0, ops.nq, step):
            q = slice(s, s + step)
            ix = np.searchsorted(ux, ops.qx[q])
            iy = np.searchsorted(uy, ops.qy[q])
            x0, y0 = ix.min(), iy.min()
            tables = (F[..., x0:ix.max() + 1], G[..., y0:iy.max() + 1],
                      ix - x0, iy - y0)
            yield q, _airy_values(tables, coefs)

    def grams(self, mesh):
        """The L2 Gram of the modes and the Gram of their planar traces, as
        ``tensor_gram`` and ``scalar_gram`` sum them, summed over the
        ``quad_blocks``; not symmetrized."""
        w, fac = quad_metric(mesh)
        G, Gt = np.zeros((2, len(self.coefs), len(self.coefs)))
        for q, B in self.quad_blocks(mesh):
            for c, f in enumerate(fac):
                G += f * _weighted_product(w[q], B[c], B[c])
            B[0] += B[1]
            Gt += fac[0] * _weighted_product(w[q], B[0], B[0])
        return G, Gt


def _potential_indices(n: int):
    """(j, k) of the first n potentials f_j(x) g_k(y) in order of total
    degree d = j + k, then of j: the leading n pairs of
    [(j, d - j) for d in range(n) for j in range(d + 1)], without the
    others."""
    i = np.arange(n)
    # pair i lies on the diagonal d with d (d+1) / 2 <= i < (d+1) (d+2) / 2;
    # the float root is corrected by one where it rounds across a diagonal
    d = ((np.sqrt(8.0 * i + 1.0) - 1.0) // 2).astype(np.int64)
    d += (d + 1) * (d + 2) // 2 <= i
    d -= d * (d + 1) // 2 > i
    j = i - d * (d + 1) // 2
    return j, d - j


def airy_bump_basis(mesh: RectangleMesh, n: int) -> BasisSet:
    """n orthonormalized stress fields from clamped polynomial potentials.

    Potentials psi_jk(x, y) = f_j(x) f_k(y) vanish with their gradients on the
    boundary, so sigma = (psi_yy, psi_xx, -psi_xy) is exactly traction-free and
    divergence-free. Near-dependent combinations are truncated (reported in
    provenance) when the Gram matrix loses numerical rank.

    A mode is its J x K matrix of potential coefficients. Every point set
    (nodes, quadrature points, a side) is a tensor grid: the factors are
    tabulated once per set (``_bump_tables``) and the modes evaluated from
    the tables (``_airy_values``); a mode's ``fn`` tabulates the points it
    is given. The basis keeps the coefficients and the tables of the
    quadrature points and of the nodes (``_AiryModes``), neither quadrature
    nor nodal values: a mode forms its nodal components when they are read,
    and the build forms them once, to fix the mode's sign. The potentials'
    Grams are summed over the same blocks of quadrature points as the built
    basis's (``_AiryModes.grams``) and orthogonalized one mirror-parity
    class of the mesh at a time.
    """
    if n < 1:
        raise BasisError("n must be >= 1")
    jr, kr = _potential_indices(n)
    Lx, Ly = mesh.domain.Lx, mesh.domain.Ly
    fy = _bump_polys(kr.max() + 1, Ly)
    # on a square the x polynomials are a leading block of the y ones
    fx = (fy[:jr.max() + 5, :, :jr.max() + 1] if Lx == Ly
          else _bump_polys(jr.max() + 1, Lx))

    ops = _ops(mesh)
    ux, uy = np.unique(ops.qx), np.unique(ops.qy)
    quad = (ux, nppoly.polyval(ux, fx), uy, nppoly.polyval(uy, fy))
    # the Grams of the potentials, the modes of one-hot coefficients, over
    # the blocks of quadrature points that the built basis reads too
    raw = np.zeros((n, fx.shape[2], fy.shape[2]))
    raw[np.arange(n), jr, kr] = 1.0
    G, Gt = map(_symmetric, _AiryModes(fx, fy, raw, quad).grams(mesh))
    # canonical orthogonalization, one mirror-parity class of the mesh
    # (``parity_classes``) at a time: f_j has parity (-1)^j about the
    # midline, so the Gram couples no two classes. The pairs (j, k), (k, j)
    # of a square lie in the two classes that the x <-> y swap exchanges,
    # so their modes keep the orientation of their classes
    sx, sy = 1 - 2 * (jr % 2), 1 - 2 * (kr % 2)
    found = []      # (eigenvalues, eigenvectors over all potentials)
    for px, py in parity_classes(mesh):
        idx = np.flatnonzero(((px == 0) | (sx == px))
                             & ((py == 0) | (sy == py)))
        w, Uc = eigh(G[np.ix_(idx, idx)])
        U = np.zeros((n, len(idx)))
        U[idx] = Uc
        found.append((w, U))
    w = np.concatenate([v for v, _ in found])
    U = np.hstack([V for _, V in found])
    tags = np.repeat(np.arange(len(found)), [len(v) for v, _ in found])
    keep = w > 1e-10 * w.max()
    truncated = int(np.sum(~keep))
    w, U, tags = w[keep], U[:, keep], tags[keep]
    # dominant first, merged as ``solve_basis_rectangle`` merges its classes
    order = _merge_order(-w, tags)
    # column c of T: output mode c in terms of the potentials
    T = U[:, order] / np.sqrt(w[order])
    coefs = np.zeros((T.shape[1], fx.shape[2], fy.shape[2]))
    coefs[:, jr, kr] = T.T

    airy = _AiryModes(fx, fy, coefs, quad,
                      _bump_tables(fx, fy, *mesh.node_coords.T))
    modes = []
    for c, C in enumerate(coefs):
        # the nodal values are formed here only to fix the sign
        flipped = _sign_fixed(airy.nodal(c))[1]
        if flipped:
            T[:, c] = -T[:, c]
            C *= -1.0
        modes.append(airy.field(mesh, C, functools.partial(airy.nodal, c,
                                                           flipped)))
    return BasisSet(modes, None, _symmetric(T.T @ Gt @ T), {
        "backend": "airy-bump",
        "mesh_hash": mesh.mesh_hash(),
        "mesh": {"Lx": mesh.domain.Lx, "Ly": mesh.domain.Ly,
                 "xs": mesh.xs.tolist(), "ys": mesh.ys.tolist()},
        "n_requested": n,
        "rank_truncated": truncated,
    }, airy=airy)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class BasisReport:
    max_offdiag_l2: float
    max_offdiag_h1: float | None
    max_div_residual: float
    max_boundary_traction: float
    max_rayleigh_dev: float | None
    passed: bool
    failures: list

    def __str__(self):
        lines = [f"L2 off-diagonal     : {self.max_offdiag_l2:.3e}"]
        if self.max_offdiag_h1 is not None:
            lines.append(f"H1 off-diagonal     : {self.max_offdiag_h1:.3e}")
        lines.append(f"divergence residual : {self.max_div_residual:.3e}")
        lines.append(f"boundary traction   : {self.max_boundary_traction:.3e}")
        if self.max_rayleigh_dev is not None:
            lines.append(f"Rayleigh deviation  : {self.max_rayleigh_dev:.3e}")
        lines.append("PASS" if self.passed else
                     "FAIL: " + "; ".join(self.failures))
        return "\n".join(lines)


def _h1_gram(basis: BasisSet) -> np.ndarray:
    """H1 Gram of the modes, with the component and theta factors of the one
    L2 metric (``quad_metric``). It reads the nodal components in place and
    holds one product of a component's stiffness rows with the modes
    (k, n_nodes), as ``fields.nodal_gram`` does."""
    mesh = basis.mesh
    ops = _ops(mesh)
    nn = mesh.n_nodes
    G = np.zeros((len(basis), len(basis)))
    for key, idx in basis.groups().items():
        m, parity = key or (None, None)
        fac = quad_metric(mesh, m, parity)[1]
        V = basis._nodal(m, parity)
        if m is None:
            # (stiffness rows of component c, the modes' dofs they act on)
            rows = [(ops.Ks, V[:, c]) for c in range(3)]
        else:
            A = _radial_blocks(ops, m)[0]
            if parity == "sin":
                # the radial blocks encode the cos family's profile
                # convention, in which the sin family's shear has the other
                # sign
                s = sp.diags(np.repeat([1.0, 1.0, -1.0], nn))
                A = (s @ A @ s).tocsr()
            # the blocks count the shear twice already, and their
            # normal-shear cross block 4mW vanishes at m = 0, where the
            # factors differ
            fac = (fac[0], fac[1], fac[2] / 2)
            rows = [(A[c * nn:(c + 1) * nn], V.reshape(len(V), -1))
                    for c in range(3)]
        Gg = np.zeros((len(V),) * 2)
        Y = np.empty(V[:, 0].shape)
        for c, (Kc, dofs) in enumerate(rows):
            Gg += fac[c] * (V[:, c] @ sparse_rows(Kc, dofs, Y).T)
        G[np.ix_(idx, idx)] = Gg
    return G


def _l2_gram(basis: BasisSet) -> np.ndarray:
    """L2 Gram of the modes, one tag group at a time (``BasisSet.gram``)."""
    G = np.zeros((len(basis), len(basis)))
    for key, idx in basis.groups().items():
        G[np.ix_(idx, idx)] = basis.gram(*(key or ()))
    return G


# the tolerances of ``verify_basis``: the largest L2 off-diagonal, the
# largest relative H1 off-diagonal and the largest relative Rayleigh
# deviation of the eigenvalues; a mode's divergence residual, at most
# DIV_TOL_FACTOR h lambda^0.75 for an eigenmode (an empirical bound on the
# strong divergence of weakly divergence-free discrete modes, with a 4x
# safety factor) and EXACT_DIV_TOL for an airy mode, which is exactly
# divergence-free; and a mode's largest boundary traction
L2_TOL = 1e-8
H1_TOL = 1e-6
RAYLEIGH_TOL = 1e-6
DIV_TOL_FACTOR = 4.0
EXACT_DIV_TOL = 1e-8
BOUNDARY_TOL = 1e-8


def div_tolerance_rule() -> str:
    """The eigenmode divergence tolerance as ``report.json`` states it."""
    return f"{DIV_TOL_FACTOR:g} * h * lambda^0.75"


def _airy_residuals(basis: BasisSet):
    """The interior divergence and boundary traction of every airy mode, as
    ``equilibrium_residual`` measures them, with each side tabulated once
    for all modes."""
    airy = basis.airy
    ops = _ops(basis.mesh)
    div = np.array([_interior_norm(md) for md in basis.modes])
    bc = np.zeros(len(basis))
    for tag in ("left", "right", "bottom", "top"):
        ex, ey, _ = ops.edge_quad(tag)
        ev = airy.values(ex, ey, airy.coefs)
        bc = np.maximum(bc, _traction_mismatch(ops, tag, ev))
    return div, bc


def verify_basis(basis: BasisSet) -> BasisReport:
    """Orthogonality, equilibrium and Rayleigh-consistency report, every
    figure measured from the modes."""
    n = len(basis.modes)
    G = _l2_gram(basis)
    offdiag = np.abs(G - np.diag(np.diag(G)))
    max_l2 = float(offdiag.max()) if n > 1 else 0.0
    diag_dev = float(np.abs(np.diag(G) - 1).max())

    failures = []
    if max_l2 > L2_TOL:
        failures.append(f"L2 off-diagonal {max_l2:.2e} > {L2_TOL:.0e}")
    if diag_dev > 1e-10:
        failures.append(f"L2 diagonal deviates by {diag_dev:.2e}")

    eigen = basis.eigenvalues is not None
    max_h1 = None
    max_ray = None
    if eigen:
        H = _h1_gram(basis)
        d = np.sqrt(np.abs(np.diag(H)))
        scale = np.outer(d, d)
        rel = np.abs(H - np.diag(np.diag(H))) / np.where(scale == 0, 1.0, scale)
        max_h1 = float(rel.max()) if n > 1 else 0.0
        if max_h1 > H1_TOL:
            failures.append(f"H1 off-diagonal {max_h1:.2e} > {H1_TOL:.0e}")
        lam = basis.eigenvalues
        max_ray = float(np.max(np.abs(np.diag(H) - lam) / lam))
        if max_ray > RAYLEIGH_TOL:
            failures.append(f"Rayleigh deviation {max_ray:.2e} > {RAYLEIGH_TOL:.0e}")

    if basis.airy is None:
        reports = [equilibrium_residual(md) for md in basis.modes]
        div = np.array([r.interior_norm for r in reports])
        bc = np.array([r.boundary_mismatch for r in reports])
    else:
        div, bc = _airy_residuals(basis)
    if eigen:
        h = basis.provenance["h"]
        dtol = np.array([DIV_TOL_FACTOR * h * float(lam) ** 0.75
                         for lam in basis.eigenvalues])
    else:
        dtol = np.full(n, EXACT_DIV_TOL)
    max_div = float(div.max())
    if np.any(div > dtol):
        worst = int(np.argmax(div / dtol))
        failures.append(
            f"divergence residual of mode {worst} ({div[worst]:.2e}) exceeds "
            f"the backend tolerance ({dtol[worst]:.2e})")
    max_bc = float(bc.max())
    if max_bc > BOUNDARY_TOL:
        failures.append(f"boundary traction {max_bc:.2e} > {BOUNDARY_TOL:.0e}")

    return BasisReport(max_l2, max_h1, max_div, max_bc, max_ray,
                       not failures, failures)


# ---------------------------------------------------------------------------
# SBBASIS cache format
# ---------------------------------------------------------------------------

# the tag line of a basis file; it names the layout (``_cache.write_tagged``)
# only. The file stores the build's ``verify_basis`` report, which a load
# returns unchecked: an edit to ``verify_basis`` changes the build identity
# the cache checks a file against, so the file is rebuilt
_BASIS_FORMAT = "SBBASIS 3"


def save_basis(basis: BasisSet, path: str, key: dict | None = None):
    """Write the SBBASIS file of an eigenbasis; its meta holds the
    provenance, the ``verify_basis`` report and the cache ``key``."""
    if basis.eigenvalues is None:
        raise BasisError("an airy basis is built on every run, never saved")
    mtags = np.array([m.m if m.m is not None else -1 for m in basis.modes])
    ptags = np.array([_PARITIES.index(m.parity) if m.parity else -1
                      for m in basis.modes])
    arrays = {
        "components": basis.nodal,
        "m_tags": mtags,
        "parity_tags": ptags,
        "trace_gram": basis.trace_gram,
        "eigenvalues": basis.eigenvalues,
    }
    mesh = basis.mesh
    if isinstance(mesh, RadialMesh):
        arrays["radial_nodes"] = mesh.nodes
    else:
        arrays["xs"] = mesh.xs
        arrays["ys"] = mesh.ys
        arrays["feature_x"] = np.asarray(mesh.feature_x)
        arrays["feature_y"] = np.asarray(mesh.feature_y)
    report = basis.report if basis.report is not None else verify_basis(basis)
    write_tagged(path, _BASIS_FORMAT, {"key": key,
                                       "provenance": basis.provenance,
                                       "report": asdict(report)}, arrays)


def load_basis(path: str, mesh=None, key: dict | None = None) -> BasisSet:
    """Read an SBBASIS file; BasisFileError when it is not a trusted one
    (``_cache.read_tagged``) or its arrays' shapes disagree.

    When ``mesh`` equals the file's mesh, the modes are built on ``mesh``
    itself, so they share its operators with the caller's other fields.
    """
    try:
        meta, arrays = read_tagged(path, _BASIS_FORMAT, key)
        if "radial_nodes" in arrays:
            r = arrays["radial_nodes"]
            stored = RadialMesh(Domain.annulus(r[0], r[-1]), (len(r) - 1) // 2)
        else:
            xs, ys = arrays["xs"], arrays["ys"]
            stored = RectangleMesh(
                Domain.rectangle(xs[-1] - xs[0], ys[-1] - ys[0]), xs, ys,
                arrays["feature_x"], arrays["feature_y"])
        comps = arrays["components"]
        mtags = arrays["m_tags"]
        ptags = arrays["parity_tags"]
        lam = arrays["eigenvalues"]
        trace_gram = arrays["trace_gram"]
        prov, report = meta["provenance"], BasisReport(**meta["report"])
    except (ValueError, KeyError, TypeError) as exc:
        raise BasisFileError(
            f"{path}: not a complete {_BASIS_FORMAT} file ({exc})") from exc
    if mesh is None or mesh != stored:
        mesh = stored
    k = len(comps)
    shapes = [(comps.shape, (k, 3, mesh.n_nodes)), (mtags.shape, (k,)),
              (ptags.shape, (k,)), (trace_gram.shape, (k, k)),
              (lam.shape, (k,))]
    if k == 0 or any(got != want for got, want in shapes):
        raise BasisFileError(f"{path}: inconsistent {_BASIS_FORMAT} arrays")
    modes = []
    for i in range(k):
        m = None if mtags[i] < 0 else int(mtags[i])
        parity = None if ptags[i] < 0 else _PARITIES[int(ptags[i])]
        modes.append(SymTensorField2(mesh, comps[i], m=m, parity=parity))
    return BasisSet(modes, lam, trace_gram, prov, report, nodal=comps)
