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

A solve keeps the coefficients of every n in its schedule (SE: the n-mode
minimizer; PT: the first n). For every principle, the strain energy (SE's
objective) and E_n come from these alone, in ``energy_series`` and
``error_series``, through one SE Gram per (basis, material, tag group).

The SE Gram and the pairings come from the basis (``BasisSet.gram`` and
``BasisSet.pairing``): an eigenbasis forms them from its nodal components,
so no solve evaluates its modes at the quadrature points; an airy basis
evaluates them one block of quadrature points at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import solve_triangular

from .basis import BasisSet
from .config import NumericFailure
from .fields import (SymTensorField2, _call_on_quad, _ops, planar_trace,
                     scalar_gram)
from .materials import Material, compliance_quad, strain_energy


class SolverError(NumericFailure, RuntimeError):
    pass


@dataclass
class Approximation:
    """Coefficients, reconstructed field, and per-n diagnostics of one solve."""

    coeffs: np.ndarray
    sigma_N: SymTensorField2
    principle: str
    diagnostics: dict
    mode_indices: list = dc_field(default_factory=list)
    # the n-mode coefficient vector of every n in diagnostics["n"]
    coeffs_by_n: list = dc_field(default_factory=list)


def _select_indices(basis: BasisSet, sigma_p: SymTensorField2, N: int):
    """The leading N modes of sigma_p's tag group (all on a rectangle)."""
    group = basis.select(m=sigma_p.m, parity=sigma_p.parity)
    if not group:
        raise SolverError(
            f"basis holds no modes with tag (m={sigma_p.m}, {sigma_p.parity})")
    if N > len(group):
        raise SolverError(f"N={N} exceeds the {len(group)} available basis modes")
    if basis.mesh != sigma_p.mesh:
        raise SolverError("basis and particular field live on different meshes")
    return group[:N]


def _se_gram(basis, material, m, parity, n=None):
    """M[:n, :n] of the symmetrized strain-energy Gram <C^-1 phi_j, phi_i> of
    the whole (m, parity) group, built once per (basis, material, group) and
    kept in the basis cache; the SE solve and every diagnostic series share
    it. n = 0 builds nothing."""
    if n == 0:
        return np.zeros((0, 0))
    key = ("se_gram", material, m, parity)
    M = basis._cache.get(key)
    if M is None:
        M = basis.gram(m, parity, material)
        M = 0.5 * (M + M.T)
        M.flags.writeable = False   # shared: a caller must not change it
        basis._cache[key] = M
    return M if n is None else M[:n, :n]


def _energy_pairing(basis, material, sigma, n):
    """<C^-1 sigma, phi_i> for the leading n modes of sigma's group."""
    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse inf
        return basis.pairing(sigma.m, sigma.parity,
                             compliance_quad(material, sigma), n)


def assemble_se_system(basis: BasisSet, sigma_p: SymTensorField2,
                       material: Material, N: int):
    """The strain-energy normal system (M, f) for the leading N modes."""
    _select_indices(basis, sigma_p, N)
    return (_se_gram(basis, material, sigma_p.m, sigma_p.parity, N),
            -_energy_pairing(basis, material, sigma_p, N))


def _reconstruct(sigma_p, basis, idx, a):
    """sigma_p + sum_j a_j phi_j.

    The modes are folded into one field beside sigma_p
    (``BasisSet._combination``), so the quadrature, divergence and edge
    values of the sum cost a fixed number of sparse products or one airy
    evaluation. The nodal array is summed term by term, in mode order.
    """
    terms = [(float(a[j]), i) for j, i in enumerate(idx) if a[j] != 0.0]
    tags = {"m": sigma_p.m, "parity": sigma_p.parity}
    parts = [(1.0, sigma_p)]
    if terms:
        parts.append((1.0, basis._combination(*zip(*terms))))
    components = sum(c * f.components for c, f in [(1.0, sigma_p)] + [
        (c, basis.modes[i]) for c, i in terms])
    return SymTensorField2(sigma_p.mesh, components, parts=parts, **tags)


def _quadratic_series(c0, v, M, ans):
    """c0 + 2 a.v + a.M a for each coefficient vector a in ``ans`` (a holds
    the leading len(a) coefficients)."""
    return np.array([c0 + 2 * a @ v[:len(a)] + a @ M[:len(a), :len(a)] @ a
                     for a in ans], dtype=float)


def _schedule(N, ns):
    if ns is None:
        # N = 0 reports sigma_p alone, as one row
        return list(range(1, N + 1)) or [0]
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 0 or ns[-1] > N:
        raise SolverError("report schedule must lie within [0, N]")
    return ns


def solve_strain_energy(sigma_p: SymTensorField2, basis: BasisSet,
                        material: Material, N: int, ns=None) -> Approximation:
    """Coefficients by strain-energy minimization (M a = f, SPD factorization).

    M is factored once: the Cholesky factor of a leading block M[:n, :n] is
    the leading block of the factor, so the n-mode solution of every n in the
    schedule costs two triangular solves. Its strain energy is the objective.
    """
    idx = _select_indices(basis, sigma_p, N)
    M, f = assemble_se_system(basis, sigma_p, material, N)
    sched = _schedule(N, ns)
    if not np.all(np.isfinite(f)):
        raise SolverError("SE load vector is not finite")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"SE system is not positive definite within n={N}: "
            "broken basis or material") from exc

    def coeffs(n):
        an = solve_triangular(L[:n, :n], f[:n], lower=True,
                              check_finite=False)
        return solve_triangular(L[:n, :n], an, trans="T", lower=True,
                                check_finite=False)

    # the schedule may leave N out; the coefficients are always those of N
    a = coeffs(N)
    res = Approximation(a, _reconstruct(sigma_p, basis, idx, a), "SE",
                        {"n": np.array(sched)}, list(idx),
                        [coeffs(n) for n in sched])
    res.diagnostics["objective"] = energy_series(res, sigma_p, basis, material,
                                                 pairing=-f)
    return res


def _pt_like(sigma_p, basis, N, ns, sbar_quad, principle):
    idx = _select_indices(basis, sigma_p, N)
    mesh, m, parity = sigma_p.mesh, sigma_p.m, sigma_p.parity
    # <sbar, trace(phi_i)> = <(sbar, sbar, 0), phi_i>: the normal components
    # share their factor
    t = basis.pairing(m, parity, np.stack(
        [sbar_quad, sbar_quad, np.zeros_like(sbar_quad)]), N)
    Tp = float(scalar_gram(mesh, m, parity, sbar_quad, sbar_quad))
    a = -t
    sched = _schedule(N, ns)
    ans = [a[:n] for n in sched]
    diag = {"n": np.array(sched), "objective": _quadratic_series(
        Tp, t, basis.trace_gram[np.ix_(idx, idx)], ans)}
    return Approximation(a, _reconstruct(sigma_p, basis, idx, a), principle,
                         diag, list(idx), ans)


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
                  basis: BasisSet, material: Material,
                  pairing=None) -> np.ndarray:
    """Strain energy of sigma_p + sum_j a_j phi_j for the coefficient vector
    a of every n in the recorded schedule, through the SE Gram of the modes'
    group: the objective of SE, a diagnostic of the PT principles.

    ``pairing`` is <C^-1 sigma_p, phi_i> over the modes, when the caller
    holds it already (the SE solve, from its load vector)."""
    n = len(approx.mode_indices)
    M = _se_gram(basis, material, sigma_p.m, sigma_p.parity, n)
    q = (_energy_pairing(basis, material, sigma_p, n) if pairing is None
         else pairing)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        e = _quadratic_series(strain_energy(material, sigma_p), q, M,
                              approx.coeffs_by_n)
    if not np.all(np.isfinite(e)):
        raise SolverError(f"{approx.principle} energy series is not finite")
    return e


def error_series(approx: Approximation, sigma_p: SymTensorField2,
                 basis: BasisSet, material: Material,
                 sigma_true: SymTensorField2) -> np.ndarray:
    """E_n = |sigma^n - sigma_true|_E / |sigma_true|_E against an oracle for
    every n in the recorded schedule."""
    denom = strain_energy(material, sigma_true)
    if not 0 < denom < np.inf:
        raise SolverError(f"oracle stress has energy {denom:.3e}")
    e = energy_series(approx, sigma_p - sigma_true, basis, material)
    return np.sqrt(np.maximum(e / denom, 0.0))
