"""Self-equilibrated, traction-free stress basis functions.

The basis functions are eigenfunctions of the constrained eigenproblem

    -Lap(sigma) + grad_s(mu) = lambda sigma,   div sigma = 0   in Omega,
    sigma n = 0,  d(sigma)/dn . (t ox t) = 0                   on dOmega,

discretized with equal-order continuous quadratic elements for all stress and
multiplier components. On the rectangle the divergence constraint is kept as a
saddle block and the pencil is solved by shift-invert Lanczos; on the annulus
the problem reduces per azimuthal wavenumber m to a radial system whose
constraint is eliminated by LU: with C^T = P L U (row pivoting), the kernel of
C is spanned by the columns of P [-L1^-T L2^T; I], and the reduced dense pencil
is solved by a symmetric-definite eigensolver.

An alternative non-eigen backend generates stress fields from products of
clamped polynomial "bump" potentials (exactly divergence-free and
traction-free) and orthonormalizes them.
"""
from __future__ import annotations

import io
import json
import os
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly
from scipy.linalg import LinAlgWarning, eigh, lu_factor, solve_triangular
# unused; kept importable: the benchmark's traced run wraps it by name
from scipy.linalg import null_space  # noqa: F401
from scipy.sparse.linalg import eigsh

from . import fem2d
from .fields import (SymTensorField2, planar_trace, scalar_gram, tensor_gram,
                     theta_factors)
from .meshes import (Domain, RadialMesh, RectangleMesh, _atomic_write_bytes,
                     build_radial_grid)

_PARITIES = ("cos", "sin")


class BasisError(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenSolveConfig:
    """Parameters of one eigenbasis build."""

    n_modes: int = 20
    resolution: int = 128          # radial elements (annulus backend)
    shift: float = 0.0             # shift-invert target
    tol: float = 0.0               # eigensolver tolerance (0 = machine)
    degenerate_gap: float = 1e-6   # relative lambda gap for cluster detection

    def __post_init__(self):
        if self.n_modes < 1:
            raise BasisError("n_modes must be >= 1")


@dataclass
class BasisSet:
    """Ordered basis functions with eigenvalues and Gram diagnostics."""

    modes: list
    eigenvalues: np.ndarray | None
    gram_l2: np.ndarray
    trace_gram: np.ndarray
    provenance: dict
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

    def quad_matrix(self, indices) -> np.ndarray:
        """(3, nq, k) quadrature-point values of the selected modes."""
        key = ("quad", tuple(indices))
        if key not in self._cache:
            self._cache[key] = np.stack(
                [self.modes[i].at_quad() for i in indices], axis=2)
        return self._cache[key]

    def select(self, m=None, parity=None) -> list:
        """Indices of modes matching a radial tag (all modes on rectangles)."""
        if m is None:
            return list(range(len(self.modes)))
        return [i for i, md in enumerate(self.modes)
                if md.m == m and md.parity == parity]


# ---------------------------------------------------------------------------
# Rectangle backend
# ---------------------------------------------------------------------------

def solve_basis_rectangle(mesh: RectangleMesh, cfg: EigenSolveConfig) -> BasisSet:
    """First n_modes eigenpairs on a rectangle mesh.

    sigma n = 0 is imposed strongly on boundary nodes (all three components at
    corners); the tangential natural condition is built into the weak form;
    div sigma = 0 enters through the multiplier saddle block with three pinned
    multiplier dofs removing the symmetric-gradient kernel.
    """
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
    # pin three multiplier dofs (kernel of the symmetric gradient)
    pins = {0, nn, (mesh.nny - 1) * mesh.nnx}
    keep_m = np.array([i for i in range(2 * nn) if i not in pins])
    C = C[keep_m]

    nm = C.shape[0]
    K = sp.bmat([[Ak, C.T], [C, None]], format="csc")
    M = sp.bmat([[Bk, None], [None, sp.csr_matrix((nm, nm))]], format="csc")
    max_k = Ak.shape[0] - C.shape[0]
    if cfg.n_modes > max_k:
        raise BasisError(
            f"n_modes={cfg.n_modes} exceeds the discrete subspace dimension {max_k}")
    v0 = np.ones(K.shape[0])
    try:
        vals, vecs = eigsh(K, k=cfg.n_modes, M=M, sigma=cfg.shift, which="LM",
                           v0=v0, tol=cfg.tol)
    except Exception as exc:  # noqa: BLE001 - eigensolver failures vary
        raise BasisError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    if np.any(vals <= 0):
        raise BasisError("eigensolver returned non-positive eigenvalues")

    ns = len(keep_s)
    modes = []
    for i in range(cfg.n_modes):
        full = np.zeros(3 * nn)
        full[keep_s] = vecs[:ns, i]
        comps = full.reshape(3, nn)
        modes.append(SymTensorField2(mesh, comps))

    h = float(max(np.diff(mesh.xs).max(), np.diff(mesh.ys).max()))
    basis = BasisSet(modes, vals, np.eye(len(modes)), np.eye(len(modes)), {
        "backend": "eigen-rectangle",
        "mesh_hash": mesh.mesh_hash(),
        "mesh": {"Lx": mesh.domain.Lx, "Ly": mesh.domain.Ly,
                 "xs": mesh.xs.tolist(), "ys": mesh.ys.tolist()},
        "n_modes": cfg.n_modes,
        "solver_tol": cfg.tol,
        "degenerate_gap": cfg.degenerate_gap,
        "h": h,
    })
    basis = orthonormalize(basis, degenerate_gap=cfg.degenerate_gap)
    _record_residuals(basis)
    return basis


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


def _kernel_by_lu(C: sp.spmatrix) -> np.ndarray:
    """A basis of ker C (dense, full column rank, not orthonormal).

    With C^T = P L U (row pivoting, L unit lower trapezoidal), z solves
    C z = 0 iff (P^T z)^T L = 0, so the kernel is spanned by P [-L1^-T L2^T; I]
    where L1 is the leading square block of L. Row pivoting bounds |L| by 1,
    which keeps the basis well conditioned. Rows of C whose pivot vanishes
    depend on earlier rows: trailing ones are cut off the factorization,
    others are dropped and C is factored again.
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
    n = LU.shape[0]
    perm = np.arange(n)
    for i, j in enumerate(swaps):
        perm[[i, j]] = perm[[j, i]]
    # only the strict lower triangle of LU[:r, :r] is read
    X = solve_triangular(LU[:r, :r], LU[r:, :r].T, trans="T", lower=True,
                         unit_diagonal=True, check_finite=False)
    Z = np.empty((n, n - r))
    Z[perm] = np.vstack([-X, np.eye(n - r)])
    return Z


def _solve_radial_m(mesh: RadialMesh, m: int, n_modes: int):
    """Eigenpairs of the radial reduction for one wavenumber (cos family)."""
    ops = fem2d.radial_ops(mesh)
    nn = mesh.n_nodes
    A, B, C = _radial_blocks(ops, m)
    # f_rr and f_rt at both ends
    keep = np.setdiff1d(np.arange(3 * nn), [0, nn - 1, 2 * nn, 3 * nn - 1])
    Zn = _kernel_by_lu(C[:, keep])
    if Zn.shape[1] == 0:
        return np.empty(0), np.empty((3 * nn, 0))
    Ak = A[keep][:, keep]
    Bk = B[keep][:, keep]
    # eigh B-normalizes the eigenvectors, so Zn need not be orthonormal
    lam, Yv = eigh(Zn.T @ (Ak @ Zn), Zn.T @ (Bk @ Zn))
    k = min(n_modes, len(lam))
    full = np.zeros((3 * nn, k))
    full[keep] = Zn @ Yv[:, :k]
    return lam[:k], full


def solve_basis_annulus(domain: Domain, wavenumbers, cfg: EigenSolveConfig,
                        mesh: RadialMesh | None = None) -> BasisSet:
    """Merged eigenbasis over the requested azimuthal wavenumbers.

    For every m the radial system is solved once; for m >= 1 each radial
    eigenfunction yields a degenerate cos/sin pair. Modes are merged and sorted
    by (lambda, m, parity) and truncated to n_modes.
    """
    if domain.kind != "annulus":
        raise BasisError("annulus backend requires an annulus domain")
    if mesh is None:
        mesh = build_radial_grid(domain, cfg.resolution)
    wavenumbers = sorted(set(int(m) for m in wavenumbers))
    if any(m < 0 for m in wavenumbers):
        raise BasisError("wavenumbers must be >= 0")

    entries = []  # (lambda, m, parity_index, profile columns)
    for m in wavenumbers:
        lam, cols = _solve_radial_m(mesh, m, cfg.n_modes)
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
    entries = entries[:cfg.n_modes]
    if len(entries) < cfg.n_modes:
        raise BasisError("requested more modes than the discrete subspace holds")

    modes = []
    vals = np.array([e[0] for e in entries])
    for lam_i, m, pi, comps in entries:
        modes.append(SymTensorField2(mesh, comps, m=m, parity=_PARITIES[pi]))

    h = float(mesh.nodes[2] - mesh.nodes[0])
    basis = BasisSet(modes, vals, np.eye(len(modes)), np.eye(len(modes)), {
        "backend": "eigen-annulus",
        "mesh_hash": mesh.mesh_hash(),
        "mesh": {"r_a": domain.r_a, "r_b": domain.r_b, "nel": mesh.nel},
        "wavenumbers": wavenumbers,
        "n_modes": cfg.n_modes,
        "solver_tol": cfg.tol,
        "degenerate_gap": cfg.degenerate_gap,
        "h": h,
    })
    basis = orthonormalize(basis, degenerate_gap=cfg.degenerate_gap)
    _record_residuals(basis)
    return basis


# ---------------------------------------------------------------------------
# Orthonormalization and diagnostics
# ---------------------------------------------------------------------------

def _sign_fix(mode: SymTensorField2) -> SymTensorField2:
    flat = mode.components.ravel()
    i = int(np.argmax(np.abs(flat)))
    if flat[i] < 0:
        return -1.0 * mode
    return mode


def _has_exact_form(md: SymTensorField2) -> bool:
    if md.fn is not None or md.div_fn is not None:
        return True
    if md.parts:
        return any(_has_exact_form(p) for _, p in md.parts)
    return False


def _symmetric(G: np.ndarray) -> np.ndarray:
    return 0.5 * (G + G.T)


def orthonormalize(basis: BasisSet, degenerate_gap: float | None = None) -> BasisSet:
    """Scale modes to unit L2 norm and orthogonalize degenerate clusters.

    Within each eigenvalue cluster (relative gap below the threshold) a
    modified Gram-Schmidt pass runs with the larger-trace-norm mode as the
    first axis. Mode signs follow the largest-absolute-nodal-value convention.

    Modes of distinct (m, parity) tags are orthogonal, so each output mode is
    a combination of the input modes of its own tag group, and the pass runs
    over the members of one tag in a cluster. The passes and the output Grams
    work on those coefficients, with inner products taken from the input
    Grams of the group (one BLAS product each).
    """
    gap = degenerate_gap if degenerate_gap is not None else \
        basis.provenance.get("degenerate_gap", 1e-6)
    n = len(basis.modes)

    # cluster detection on eigenvalues (airy backend: single MGS pass overall
    # is not needed -- its construction already orthonormalizes)
    clusters = []
    if basis.eigenvalues is not None:
        lam = basis.eigenvalues
        start = 0
        for i in range(1, n):
            if (lam[i] - lam[i - 1]) > gap * max(lam[i - 1], 1e-300):
                clusters.append(list(range(start, i)))
                start = i
        clusters.append(list(range(start, n)))

    fixed = [None] * n
    out = BasisSet(fixed, basis.eigenvalues, np.zeros((n, n)),
                   np.zeros((n, n)), dict(basis.provenance))
    for key, idx in basis.groups().items():
        m, parity = key or (None, None)
        Q = basis.quad_matrix(idx)
        Tr = Q[0] + Q[1]
        G = _symmetric(tensor_gram(basis.mesh, m, parity, Q, Q))
        Gt = _symmetric(scalar_gram(basis.mesh, m, parity, Tr, Tr))
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

        # materialize purely discrete modes as plain component fields so that
        # quadrature evaluation is bit-identical between a freshly built basis
        # and one reloaded from the cache (closed-form modes keep their exact
        # handles)
        tag = basis.modes[idx[0]]
        for p, i in enumerate(idx):
            parts = [(float(T[q, p]), basis.modes[idx[q]])
                     for q in np.flatnonzero(T[:, p])]
            raw = SymTensorField2(tag.mesh, m=tag.m, parity=tag.parity,
                                  parts=parts)
            md = _sign_fix(raw)
            if md is not raw:
                T[:, p] = -T[:, p]
            if not _has_exact_form(md):
                md = SymTensorField2(md.mesh, md.components.copy(), m=md.m,
                                     parity=md.parity)
            fixed[i] = md
        block = np.ix_(idx, idx)
        out.gram_l2[block] = _symmetric(T.T @ G @ T)
        out.trace_gram[block] = _symmetric(T.T @ Gt @ T)
    return out


def _record_residuals(basis: BasisSet):
    """Record per-mode equilibrium residuals and the backend tolerance."""
    from .fields import equilibrium_residual
    div = []
    bc = []
    for mode in basis.modes:
        rep = equilibrium_residual(mode)
        div.append(rep.interior_norm)
        bc.append(rep.boundary_mismatch)
    basis.provenance["div_residuals"] = [float(v) for v in div]
    basis.provenance["boundary_residuals"] = [float(v) for v in bc]
    if basis.eigenvalues is not None:
        h = basis.provenance.get("h", 0.0)
        # empirical bound on the strong divergence of weakly divergence-free
        # discrete modes; calibrated with a 4x safety factor
        tol = [4.0 * h * float(l) ** 0.75 for l in basis.eigenvalues]
    else:
        tol = [1e-8] * len(basis.modes)
    basis.provenance["div_tolerances"] = tol
    basis.provenance["boundary_tolerance"] = 1e-8


# ---------------------------------------------------------------------------
# Airy bump backend (non-eigen alternative on simply-connected rectangles)
# ---------------------------------------------------------------------------

def _bump_polys(count: int, L: float):
    """Clamped 1D polynomials f(0)=f'(0)=f(L)=f'(L)=0 and derivatives."""
    u2 = nppoly.Polynomial([0.0, 0.0, 1.0])           # u^2
    clamp = u2 * nppoly.Polynomial([1.0, -1.0]) ** 2  # u^2 (1-u)^2
    out = []
    for j in range(count):
        leg = npleg.Legendre.basis(j).convert(kind=nppoly.Polynomial)
        shifted = leg(nppoly.Polynomial([-1.0, 2.0]))  # P_j(2u - 1)
        f_u = clamp * shifted
        # substitute u = x / L
        coef = f_u.coef * (1.0 / L) ** np.arange(len(f_u.coef))
        f = nppoly.Polynomial(coef)
        out.append((f, f.deriv(1), f.deriv(2), f.deriv(3)))
    return out


def airy_bump_basis(mesh: RectangleMesh, n: int) -> BasisSet:
    """n orthonormalized stress fields from clamped polynomial potentials.

    Potentials psi_jk(x, y) = f_j(x) f_k(y) vanish with their gradients on the
    boundary, so sigma = (psi_yy, psi_xx, -psi_xy) is exactly traction-free and
    divergence-free. Near-dependent combinations are truncated (reported in
    provenance) when the Gram matrix loses numerical rank.
    """
    if n < 1:
        raise BasisError("n must be >= 1")
    pairs = []
    deg = 0
    while len(pairs) < n:
        for j in range(deg + 1):
            pairs.append((j, deg - j))
        deg += 1
    pairs = pairs[:n]
    jmax = max(p[0] for p in pairs) + 1
    kmax = max(p[1] for p in pairs) + 1
    fx = _bump_polys(jmax, mesh.domain.Lx)
    fy = _bump_polys(kmax, mesh.domain.Ly)

    raw = []
    for j, k in pairs:
        fj, dfj, d2fj, _ = fx[j]
        gk, dgk, d2gk, _ = fy[k]

        def fn(x, y, fj=fj, dfj=dfj, d2fj=d2fj, gk=gk, dgk=dgk, d2gk=d2gk):
            return np.stack([fj(x) * d2gk(y), d2fj(x) * gk(y), -dfj(x) * dgk(y)])

        def div_fn(x, y):
            z = np.zeros_like(np.asarray(x, dtype=float))
            return np.stack([z, z.copy()])

        raw.append(SymTensorField2(mesh, fn=fn, div_fn=div_fn))

    from .fields import l2_inner_tensor
    G = np.array([[l2_inner_tensor(a, b) for b in raw] for a in raw])
    w, U = eigh(G)
    keepcols = w > 1e-10 * w.max()
    truncated = int(np.sum(~keepcols))
    w, U = w[keepcols], U[:, keepcols]
    # canonical orthogonalization; reverse for a deterministic dominant-first order
    U = U[:, ::-1]
    w = w[::-1]
    modes = []
    for c in range(U.shape[1]):
        parts = [(float(U[r, c] / np.sqrt(w[c])), raw[r]) for r in range(len(raw))]
        modes.append(_sign_fix(SymTensorField2(mesh, parts=parts)))

    k = len(modes)
    gram = np.array([[l2_inner_tensor(a, b) for b in modes] for a in modes])
    from .fields import l2_inner_scalar
    traces = [planar_trace(m) for m in modes]
    tgram = np.array([[l2_inner_scalar(a, b) for b in traces] for a in traces])
    basis = BasisSet(modes, None, gram, tgram, {
        "backend": "airy-bump",
        "mesh_hash": mesh.mesh_hash(),
        "mesh": {"Lx": mesh.domain.Lx, "Ly": mesh.domain.Ly,
                 "xs": mesh.xs.tolist(), "ys": mesh.ys.tolist()},
        "n_requested": n,
        "rank_truncated": truncated,
    })
    _record_residuals(basis)
    return basis


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
    n = len(basis.modes)
    G = np.zeros((n, n))
    mesh = basis.mesh
    if isinstance(mesh, RadialMesh):
        ops = fem2d.radial_ops(mesh)
        for (m, parity), idx in basis.groups().items():
            A, _, _ = _radial_blocks(ops, m)
            fac_n, fac_s = theta_factors(m, parity)
            # the assembled radial blocks correspond to the full H1 integrand
            # with the theta measure already reduced; apply per-family factors
            cols = np.stack([basis.modes[i].components.ravel() for i in idx], axis=1)
            nn = mesh.n_nodes
            if parity == "sin":
                # map back to the cos-family profile convention (the assembled
                # radial blocks encode that family's theta reduction)
                cols = cols.copy()
                cols[2 * nn:] *= -1.0
            # split the quadratic form into normal-family and shear-family parts
            # by evaluating with zeroed complements
            cn = cols.copy()
            cn[2 * nn:] = 0.0
            cs = cols.copy()
            cs[:2 * nn] = 0.0
            Acs = A @ cs
            Gn = cn.T @ (A @ cn)
            Gs = cs.T @ Acs
            Gx = cn.T @ Acs
            if m == 0:
                sub = fac_n * Gn + fac_s * Gs
            else:
                sub = fac_n * (Gn + Gs + Gx + Gx.T)
            G[np.ix_(idx, idx)] = sub
        return G
    ops = fem2d.rect_ops(mesh)
    cols = np.stack([mode.components for mode in basis.modes], axis=2)
    Gx = np.zeros((n, n))
    for w, comp in ((1.0, 0), (1.0, 1), (2.0, 2)):
        V = cols[comp]
        Gx += w * (V.T @ (ops.Ks @ V))
    return Gx


def verify_basis(basis: BasisSet, l2_tol: float = 1e-8, h1_tol: float = 1e-6,
                 rayleigh_tol: float = 1e-6) -> BasisReport:
    """Orthogonality, equilibrium, and Rayleigh-consistency report."""
    n = len(basis.modes)
    G = basis.gram_l2
    offdiag = np.abs(G - np.diag(np.diag(G)))
    max_l2 = float(offdiag.max()) if n > 1 else 0.0
    diag_dev = float(np.abs(np.diag(G) - 1).max())

    failures = []
    if max_l2 > l2_tol:
        failures.append(f"L2 off-diagonal {max_l2:.2e} > {l2_tol:.0e}")
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
        if max_h1 > h1_tol:
            failures.append(f"H1 off-diagonal {max_h1:.2e} > {h1_tol:.0e}")
        lam = basis.eigenvalues
        max_ray = float(np.max(np.abs(np.diag(H) - lam) / lam))
        if max_ray > rayleigh_tol:
            failures.append(f"Rayleigh deviation {max_ray:.2e} > {rayleigh_tol:.0e}")

    div = np.asarray(basis.provenance.get("div_residuals", []))
    dtol = np.asarray(basis.provenance.get("div_tolerances", []))
    max_div = float(div.max()) if len(div) else 0.0
    if len(div) and np.any(div > dtol):
        worst = int(np.argmax(div / np.where(dtol == 0, 1.0, dtol)))
        failures.append(
            f"divergence residual of mode {worst} ({div[worst]:.2e}) exceeds "
            f"the backend tolerance ({dtol[worst]:.2e})")
    bc = np.asarray(basis.provenance.get("boundary_residuals", []))
    btol = basis.provenance.get("boundary_tolerance", 1e-8)
    max_bc = float(bc.max()) if len(bc) else 0.0
    if len(bc) and max_bc > btol:
        failures.append(f"boundary traction {max_bc:.2e} > {btol:.0e}")

    return BasisReport(max_l2, max_h1, max_div, max_bc, max_ray,
                       not failures, failures)


# ---------------------------------------------------------------------------
# SBBASIS cache format
# ---------------------------------------------------------------------------

def save_basis(basis: BasisSet, path: str):
    """Versioned cache: text header + JSON provenance + binary payload."""
    payload = io.BytesIO()
    comps = np.stack([m.components for m in basis.modes])
    mtags = np.array([m.m if m.m is not None else -1 for m in basis.modes])
    ptags = np.array([_PARITIES.index(m.parity) if m.parity else -1
                      for m in basis.modes])
    arrays = {
        "components": comps,
        "m_tags": mtags,
        "parity_tags": ptags,
        "gram_l2": basis.gram_l2,
        "trace_gram": basis.trace_gram,
    }
    if basis.eigenvalues is not None:
        arrays["eigenvalues"] = basis.eigenvalues
    mesh = basis.mesh
    if isinstance(mesh, RadialMesh):
        arrays["radial_nodes"] = mesh.nodes
    else:
        arrays["xs"] = mesh.xs
        arrays["ys"] = mesh.ys
        arrays["feature_x"] = np.asarray(mesh.feature_x)
        arrays["feature_y"] = np.asarray(mesh.feature_y)
    np.savez(payload, **arrays)
    prov = dict(basis.provenance)
    if basis.backend == "airy-bump":
        prov["note"] = "reloaded airy modes are nodal interpolants"
    header = ("SBBASIS 1\n" + json.dumps(prov, sort_keys=True) + "\n").encode()
    _atomic_write_bytes(path, header + payload.getvalue())


def load_basis(path: str) -> BasisSet:
    with open(path, "rb") as f:
        data = f.read()
    nl1 = data.find(b"\n")
    if nl1 < 0 or data[:nl1] != b"SBBASIS 1":
        raise BasisError(f"{path}: not an SBBASIS 1 file")
    nl2 = data.find(b"\n", nl1 + 1)
    prov = json.loads(data[nl1 + 1:nl2].decode())
    arrays = np.load(io.BytesIO(data[nl2 + 1:]))
    if "radial_nodes" in arrays:
        r = arrays["radial_nodes"]
        mesh = RadialMesh(Domain.annulus(r[0], r[-1]), (len(r) - 1) // 2)
    else:
        xs, ys = arrays["xs"], arrays["ys"]
        mesh = RectangleMesh(Domain.rectangle(xs[-1] - xs[0], ys[-1] - ys[0]),
                             xs, ys, arrays["feature_x"], arrays["feature_y"])
    comps = arrays["components"]
    mtags = arrays["m_tags"]
    ptags = arrays["parity_tags"]
    modes = []
    for i in range(len(comps)):
        m = None if mtags[i] < 0 else int(mtags[i])
        parity = None if ptags[i] < 0 else _PARITIES[int(ptags[i])]
        modes.append(SymTensorField2(mesh, comps[i], m=m, parity=parity))
    lam = arrays["eigenvalues"] if "eigenvalues" in arrays else None
    return BasisSet(modes, lam, arrays["gram_l2"], arrays["trace_gram"], prov)
