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
from .fields import ScalarField, SymTensorField2, scalar_gram, tensor_gram
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


def _se_gram(material, mesh, m, parity, Phi):
    """The symmetrized strain-energy Gram <C^-1 phi_j, phi_i>."""
    M = tensor_gram(mesh, m, parity, compliance_on_quad(material, mesh, Phi),
                    Phi)
    return 0.5 * (M + M.T)


def assemble_se_system(basis: BasisSet, sigma_p: SymTensorField2,
                       material: Material, N: int):
    """The strain-energy normal system (M, f) for the leading N modes."""
    idx = _select_indices(basis, sigma_p, N)
    mesh = basis.mesh
    Phi = basis.quad_matrix(idx)
    m, parity = sigma_p.m, sigma_p.parity
    M = _se_gram(material, mesh, m, parity, Phi)
    eq = compliance_quad(material, sigma_p)
    f = -tensor_gram(mesh, m, parity, eq, Phi)
    return M, f


def _trace_vector(basis, idx, sbar_quad, mesh, m, parity):
    """<sbar, trace(phi_i)> for a scalar quadrature field."""
    Phi = basis.quad_matrix(idx)
    return scalar_gram(mesh, m, parity, sbar_quad, Phi[0] + Phi[1])


def _reconstruct(sigma_p, basis, idx, a):
    parts = [(1.0, sigma_p)] + [(float(a[j]), basis.modes[i])
                                for j, i in enumerate(idx) if a[j] != 0.0]
    return SymTensorField2(sigma_p.mesh, m=sigma_p.m, parity=sigma_p.parity,
                           parts=parts)


def _oracle_terms(basis, idx, sigma_p, sigma_true, material):
    """Ingredients of E_n = |sigma^n - sigma_true|_E / |sigma_true|_E besides
    the SE Gram: |sigma_p - sigma_true|_E^2, <C^-1 (sigma_p - sigma_true),
    phi_i> and |sigma_true|_E^2."""
    mesh = sigma_p.mesh
    d = sigma_p - sigma_true
    dd = strain_energy(material, d)
    Cd = compliance_quad(material, d)
    Phi = basis.quad_matrix(idx)
    g = tensor_gram(mesh, sigma_p.m, sigma_p.parity, Cd, Phi)
    denom = strain_energy(material, sigma_true)
    if denom <= 0:
        raise SolverError("oracle stress has zero energy")
    return dd, g, denom


def _schedule(N, ns):
    if ns is None:
        return list(range(1, N + 1))
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
    Ep = strain_energy(material, sigma_p)
    if oracle is not None:
        dd, g, denom = _oracle_terms(basis, idx, sigma_p, oracle, material)
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

    objective = np.empty(len(sched))
    energy = np.empty(len(sched))
    errors = np.empty(len(sched)) if oracle is not None else None
    for k, n in enumerate(sched):
        an = coeffs(n)
        En = Ep - 2 * an @ f[:n] + an @ M[:n, :n] @ an
        objective[k] = En
        energy[k] = En
        if oracle is not None:
            e2 = (dd + 2 * an @ g[:n] + an @ M[:n, :n] @ an) / denom
            errors[k] = np.sqrt(max(e2, 0.0))
    # the schedule may leave N out; the coefficients are always those of N
    a = coeffs(N)
    diag = {"n": np.array(sched), "objective": objective, "energy": energy,
            "condition": float(np.linalg.cond(M)) if N else 1.0}
    if errors is not None:
        diag["E_N"] = errors
    return Approximation(a, _reconstruct(sigma_p, basis, idx, a), "SE", diag,
                         list(idx))


def _pt_like(sigma_p, basis, N, ns, sbar_quad, principle):
    idx = _select_indices(basis, sigma_p, N)
    mesh = sigma_p.mesh
    t = _trace_vector(basis, idx, sbar_quad, mesh, sigma_p.m, sigma_p.parity)
    Gt = basis.trace_gram[np.ix_(idx, idx)]
    a = -t
    Tp = float(scalar_gram(mesh, sigma_p.m, sigma_p.parity, sbar_quad,
                           sbar_quad))
    sched = _schedule(N, ns)
    objective = np.empty(len(sched))
    for k, n in enumerate(sched):
        an = a[:n]
        objective[k] = Tp + 2 * an @ t[:n] + an @ Gt[:n, :n] @ an
    diag = {"n": np.array(sched), "objective": objective}
    return Approximation(a, _reconstruct(sigma_p, basis, idx, a), principle,
                         diag, list(idx))


def solve_planar_trace(sigma_p: SymTensorField2, basis: BasisSet, N: int,
                       ns=None) -> Approximation:
    """Planar-trace projection. Never reads a material.

    Valid for homogeneous isotropic bodies with zero net force on every hole
    (caller's responsibility); each coefficient is an independent integral.
    """
    from .fields import planar_trace
    sbar = planar_trace(sigma_p).at_quad()
    return _pt_like(sigma_p, basis, N, ns, sbar, "PT")


def solve_planar_trace_body(sigma_p: SymTensorField2, basis: BasisSet,
                            V: ScalarField, nu: float, N: int,
                            ns=None) -> Approximation:
    """Planar-trace projection with body-force potential V (b = -grad V)."""
    from .fields import planar_trace
    sbar = planar_trace(sigma_p).at_quad() - V.at_quad() / (1.0 - nu)
    return _pt_like(sigma_p, basis, N, ns, sbar, "PT_body")


def energy_series(approx: Approximation, sigma_p: SymTensorField2,
                  basis: BasisSet, material: Material) -> np.ndarray:
    """Strain energy of sigma^n for every n in the recorded schedule.

    Used to attach the energy column to material-blind (PT) solves.
    """
    idx = approx.mode_indices
    mesh = sigma_p.mesh
    Phi = basis.quad_matrix(idx)
    M = _se_gram(material, mesh, sigma_p.m, sigma_p.parity, Phi)
    eq = compliance_quad(material, sigma_p)
    q = tensor_gram(mesh, sigma_p.m, sigma_p.parity, eq, Phi)
    Ep = strain_energy(material, sigma_p)
    a = approx.coeffs
    out = np.empty(len(approx.diagnostics["n"]))
    for k, n in enumerate(approx.diagnostics["n"]):
        an = a[:n]
        out[k] = Ep + 2 * an @ q[:n] + an @ M[:n, :n] @ an
    return out


def error_series(approx: Approximation, sigma_p: SymTensorField2,
                 basis: BasisSet, material: Material,
                 sigma_true: SymTensorField2) -> np.ndarray:
    """E_n against an oracle for every n in the recorded schedule."""
    idx = approx.mode_indices
    dd, g, denom = _oracle_terms(basis, idx, sigma_p, sigma_true, material)
    M = _se_gram(material, sigma_p.mesh, sigma_p.m, sigma_p.parity,
                 basis.quad_matrix(idx))
    a = approx.coeffs
    out = np.empty(len(approx.diagnostics["n"]))
    for k, n in enumerate(approx.diagnostics["n"]):
        an = a[:n]
        e2 = (dd + 2 * an @ g[:n] + an @ M[:n, :n] @ an) / denom
        out[k] = np.sqrt(max(e2, 0.0))
    return out


def galerkin_residual(approx: Approximation, sigma_p: SymTensorField2,
                      basis: BasisSet, material: Material) -> float:
    """max_i |<C^-1 sigma^N, phi_i>| over the solved modes (SE optimality)."""
    idx = approx.mode_indices
    mesh = sigma_p.mesh
    Phi = basis.quad_matrix(idx)
    eq = compliance_quad(material, approx.sigma_N)
    r = tensor_gram(mesh, sigma_p.m, sigma_p.parity, eq, Phi)
    return float(np.max(np.abs(r)))
