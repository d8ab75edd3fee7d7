"""Expansion-coefficient solvers and reconstruction of the approximate stress.

Given an equilibrated particular field sigma_p and a verified basis, the
approximate stress is sigma^N = sigma_p + sum_j a_j phi_j with coefficients
from one of three principles:

* ``SE``      -- strain-energy minimization: solve M a = f with
                 M(i,j) = <C^-1 phi_j, phi_i>, f(i) = -<C^-1 sigma_p, phi_i>;
* ``PT``      -- planar-trace projection: a_i = -<trace(sigma_p), trace(phi_i)>
                 (material-blind by construction);
* ``PT_body`` -- planar-trace projection with a body-force potential V:
                 a_i = -<trace(sigma_p) - V/(1-nu), trace(phi_i)>.

Diagnostics (objective, strain energy, approximation error against an oracle)
are reported for every n in the requested schedule from a single assembly.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import solve_triangular

from .basis import BasisSet
from .fields import (SymTensorField2, _call_on_quad, _ops, planar_trace,
                     scalar_gram, tensor_gram)
from .materials import (Material, compliance_on_quad, compliance_quad,
                        strain_energy)
from .meshes import RadialMesh


class SolverError(RuntimeError):
    pass


@dataclass
class Approximation:
    """Coefficients, reconstructed field, and per-n diagnostics of one solve."""

    coeffs: np.ndarray
    sigma_N: SymTensorField2
    principle: str
    diagnostics: dict
    mode_indices: list = dc_field(default_factory=list)


def _select_indices(basis: BasisSet, sigma_p: SymTensorField2, N: int):
    if isinstance(sigma_p.mesh, RadialMesh):
        idx = basis.select(m=sigma_p.m, parity=sigma_p.parity)
        if not idx:
            raise SolverError(
                f"basis holds no modes with tag (m={sigma_p.m}, {sigma_p.parity})")
    else:
        idx = basis.select()
    if N > len(idx):
        raise SolverError(f"N={N} exceeds the {len(idx)} available basis modes")
    if basis.mesh != sigma_p.mesh:
        raise SolverError("basis and particular field live on different meshes")
    return idx[:N]


def _se_gram(basis, idx, material, m, parity):
    """The symmetrized strain-energy Gram <C^-1 phi_j, phi_i> of the modes
    ``idx``, built once per (basis, material, mode selection) and kept in the
    basis cache; the SE solve and every diagnostic series share it.

    M is built in three row blocks, so that the compliance of a block is no
    larger than one component of the mode stack."""
    key = ("se_gram", material, tuple(idx))
    if key not in basis._cache:
        mesh = basis.mesh
        Phi = basis.quad_matrix(idx)
        M = np.empty((len(idx), len(idx)))
        b = -(-len(idx) // 3) or 1
        for s in range(0, len(idx), b):
            M[s:s + b] = tensor_gram(mesh, m, parity, compliance_on_quad(
                material, mesh, Phi[:, :, s:s + b]), Phi)
        M = 0.5 * (M + M.T)
        M.flags.writeable = False   # shared: a caller must not change it
        basis._cache[key] = M
    return basis._cache[key]


def _energy_pairing(basis, idx, material, sigma):
    """<C^-1 sigma, phi_i> for the modes ``idx``."""
    return tensor_gram(basis.mesh, sigma.m, sigma.parity,
                       compliance_quad(material, sigma), basis.quad_matrix(idx))


def assemble_se_system(basis: BasisSet, sigma_p: SymTensorField2,
                       material: Material, N: int):
    """The strain-energy normal system (M, f) for the leading N modes."""
    idx = _select_indices(basis, sigma_p, N)
    M = _se_gram(basis, idx, material, sigma_p.m, sigma_p.parity)
    return M, -_energy_pairing(basis, idx, material, sigma_p)


def _reconstruct(sigma_p, basis, idx, a):
    """sigma_p + sum_j a_j phi_j.

    The nodal modes are folded into one nodal field beside sigma_p, so the
    quadrature, divergence and edge values of the sum cost a fixed number of
    sparse products; modes with an exact form (an ``fn``) stay parts of
    their own. The nodal array is summed term by term, in mode order.
    """
    terms = [(float(a[j]), basis.modes[i]) for j, i in enumerate(idx)
             if a[j] != 0.0]
    tags = {"m": sigma_p.m, "parity": sigma_p.parity}
    parts = [(1.0, sigma_p)] + [(c, md) for c, md in terms
                                if md.fn is not None]
    nodal = [(c, md) for c, md in terms if md.fn is None]
    if nodal:
        folded = sum(c * md.components for c, md in nodal)
        parts.append((1.0, SymTensorField2(sigma_p.mesh, folded, **tags)))
    components = sum(c * f.components for c, f in [(1.0, sigma_p)] + terms)
    return SymTensorField2(sigma_p.mesh, components, parts=parts, **tags)


def _oracle_terms(basis, idx, sigma_p, sigma_true, material):
    """Ingredients of E_n = |sigma^n - sigma_true|_E / |sigma_true|_E besides
    the SE Gram: |sigma_p - sigma_true|_E^2, <C^-1 (sigma_p - sigma_true),
    phi_i> and |sigma_true|_E^2."""
    d = sigma_p - sigma_true
    dd = strain_energy(material, d)
    g = _energy_pairing(basis, idx, material, d)
    denom = strain_energy(material, sigma_true)
    if denom <= 0:
        raise SolverError("oracle stress has zero energy")
    return dd, g, denom


def _quadratic_series(c0, v, M, ans):
    """c0 + 2 a.v + a.M a for each coefficient vector a in ``ans`` (a holds
    the leading len(a) coefficients)."""
    return np.array([c0 + 2 * a @ v[:len(a)] + a @ M[:len(a), :len(a)] @ a
                     for a in ans], dtype=float)


def _error_series(oracle_terms, M, ans):
    dd, g, denom = oracle_terms
    return np.sqrt(np.maximum(_quadratic_series(dd, g, M, ans) / denom, 0.0))


def _schedule(N, ns):
    if ns is None:
        # N = 0 reports sigma_p alone, as one row
        return list(range(1, N + 1)) or [0]
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 0 or ns[-1] > N:
        raise SolverError("report schedule must lie within [0, N]")
    return ns


def solve_strain_energy(sigma_p: SymTensorField2, basis: BasisSet,
                        material: Material, N: int, ns=None,
                        oracle: SymTensorField2 | None = None) -> Approximation:
    """Coefficients by strain-energy minimization (M a = f, SPD factorization).

    M is factored once: the Cholesky factor of a leading block M[:n, :n] is
    the leading block of the factor, so every n in the schedule costs two
    triangular solves.
    """
    idx = _select_indices(basis, sigma_p, N)
    M, f = assemble_se_system(basis, sigma_p, material, N)
    sched = _schedule(N, ns)
    if N:
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"SE system is not positive definite within n={N}: "
                "broken basis or material") from exc

    def coeffs(n):
        if not n:
            return np.zeros(0)
        an = solve_triangular(L[:n, :n], f[:n], lower=True,
                              check_finite=False)
        return solve_triangular(L[:n, :n], an, trans="T", lower=True,
                                check_finite=False)

    ans = [coeffs(n) for n in sched]
    energy = _quadratic_series(strain_energy(material, sigma_p), -f, M, ans)
    # the schedule may leave N out; the coefficients are always those of N
    a = coeffs(N)
    diag = {"n": np.array(sched), "objective": energy, "energy": energy.copy(),
            "condition": float(np.linalg.cond(M)) if N else 1.0}
    if oracle is not None:
        diag["E_N"] = _error_series(
            _oracle_terms(basis, idx, sigma_p, oracle, material), M, ans)
    return Approximation(a, _reconstruct(sigma_p, basis, idx, a), "SE", diag,
                         list(idx))


def _pt_like(sigma_p, basis, N, ns, sbar_quad, principle):
    idx = _select_indices(basis, sigma_p, N)
    mesh, m, parity = sigma_p.mesh, sigma_p.m, sigma_p.parity
    Phi = basis.quad_matrix(idx)
    t = scalar_gram(mesh, m, parity, sbar_quad, Phi[0] + Phi[1])
    Tp = float(scalar_gram(mesh, m, parity, sbar_quad, sbar_quad))
    a = -t
    sched = _schedule(N, ns)
    diag = {"n": np.array(sched), "objective": _quadratic_series(
        Tp, t, basis.trace_gram[np.ix_(idx, idx)], [a[:n] for n in sched])}
    return Approximation(a, _reconstruct(sigma_p, basis, idx, a), principle,
                         diag, list(idx))


def solve_planar_trace(sigma_p: SymTensorField2, basis: BasisSet, N: int,
                       ns=None) -> Approximation:
    """Planar-trace projection. Never reads a material.

    Valid for homogeneous isotropic bodies with zero net force on every hole
    (caller's responsibility); each coefficient is an independent integral.
    """
    return _pt_like(sigma_p, basis, N, ns, planar_trace(sigma_p), "PT")


def solve_planar_trace_body(sigma_p: SymTensorField2, basis: BasisSet,
                            V, nu: float, N: int, ns=None) -> Approximation:
    """Planar-trace projection with body-force potential V (b = -grad V), a
    callable V(x, y) evaluated at the quadrature points."""
    Vq = _call_on_quad(V, sigma_p.mesh, _ops(sigma_p.mesh))
    sbar = planar_trace(sigma_p) - Vq / (1.0 - nu)
    return _pt_like(sigma_p, basis, N, ns, sbar, "PT_body")


def energy_series(approx: Approximation, sigma_p: SymTensorField2,
                  basis: BasisSet, material: Material) -> np.ndarray:
    """Strain energy of sigma^n for every n in the recorded schedule.

    Used to attach the energy column to material-blind (PT) solves.
    """
    idx = approx.mode_indices
    q = _energy_pairing(basis, idx, material, sigma_p)
    ans = [approx.coeffs[:n] for n in approx.diagnostics["n"]]
    M = _se_gram(basis, idx, material, sigma_p.m, sigma_p.parity)
    return _quadratic_series(strain_energy(material, sigma_p), q, M, ans)


def error_series(approx: Approximation, sigma_p: SymTensorField2,
                 basis: BasisSet, material: Material,
                 sigma_true: SymTensorField2) -> np.ndarray:
    """E_n against an oracle for every n in the recorded schedule."""
    idx = approx.mode_indices
    terms = _oracle_terms(basis, idx, sigma_p, sigma_true, material)
    M = _se_gram(basis, idx, material, sigma_p.m, sigma_p.parity)
    ans = [approx.coeffs[:n] for n in approx.diagnostics["n"]]
    return _error_series(terms, M, ans)


def galerkin_residual(approx: Approximation, sigma_p: SymTensorField2,
                      basis: BasisSet, material: Material) -> float:
    """max_i |<C^-1 sigma^N, phi_i>| over the solved modes (SE optimality)."""
    r = _energy_pairing(basis, approx.mode_indices, material, approx.sigma_N)
    return float(np.max(np.abs(r)))
