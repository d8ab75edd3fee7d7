"""Equilibrated particular stress fields for the supported problem families.

Every constructor returns a ``ParticularStress`` whose field has been checked
against the weak-equilibrium invariant (interior residual <= 1e-8 relative,
boundary mismatch <= 1e-8 against the recorded loading) before it is handed to
any solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NumericFailure
from .fields import (SymTensorField2, _zero_divergence, equilibrium_residual,
                     l2_norm_tensor)
from .meshes import LoadingSpec, MeshError, RadialMesh, RectangleMesh

_REL_TOL = 1e-8


class ParticularStressError(NumericFailure, ValueError):
    pass


@dataclass
class ParticularStress:
    field: SymTensorField2
    loading: LoadingSpec
    construction: str
    tolerance: float = _REL_TOL
    interior_residual: float = 0.0
    boundary_residual: float = 0.0

    def __post_init__(self):
        rep = equilibrium_residual(self.field, self.loading)
        self.interior_residual = rep.interior_norm
        self.boundary_residual = rep.boundary_mismatch
        with np.errstate(over="ignore", invalid="ignore"):
            scale = max(l2_norm_tensor(self.field), 1e-300)
        if not np.isfinite(scale):
            raise ParticularStressError(
                f"{self.construction}: the field's norm overflows a float")
        if rep.interior_norm > self.tolerance * scale:
            raise ParticularStressError(
                f"{self.construction}: interior equilibrium residual "
                f"{rep.interior_norm:.3e} exceeds {self.tolerance:.0e} * |field|")
        if rep.boundary_mismatch > self.tolerance * max(1.0, scale):
            raise ParticularStressError(
                f"{self.construction}: boundary traction mismatch "
                f"{rep.boundary_mismatch:.3e} exceeds {self.tolerance:.0e}")


def axisym_airy_particular(mesh: RadialMesh, p_in: float = 1.0,
                           p_out: float = 0.0) -> ParticularStress:
    """Axisymmetric field from the potential c1 r + c2 r^2.

    s_rr = c1/r + 2 c2, s_tt = 2 c2, s_rt = 0, with constants fixed by
    s_rr(r_a) = -p_in and s_rr(r_b) = -p_out.
    """
    ra, rb = mesh.domain.r_a, mesh.domain.r_b
    # solve c1/ra + 2 c2 = -p_in ; c1/rb + 2 c2 = -p_out
    c1 = (p_out - p_in) * ra * rb / (rb - ra)
    c2 = (-p_in - c1 / ra) / 2.0

    def fn(r):
        r = np.asarray(r, dtype=float)
        srr = c1 / r + 2 * c2
        stt = np.full_like(r, 2 * c2)
        return np.stack([srr, stt, np.zeros_like(r)])

    # d(srr)/dr + (srr - stt)/r = -c1/r^2 + (c1/r)/r = 0
    field = SymTensorField2(mesh, m=0, parity="cos", fn=fn,
                            div_fn=_zero_divergence)
    loading = LoadingSpec.for_annulus(m=0, inner=(-p_in, 0.0), outer=(-p_out, 0.0))
    return ParticularStress(field, loading, "axisym_airy")


def _band_profile(profile: str, p: float):
    if profile == "discontinuous":
        def prof(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= 0.25) & (x <= 0.75), -p, 0.0)
    elif profile == "quartic":
        def prof(x):
            x = np.asarray(x, dtype=float)
            v = -p * 256.0 * (x - 0.25) ** 2 * (x - 0.75) ** 2
            return np.where((x >= 0.25) & (x <= 0.75), v, 0.0)
    else:
        raise ValueError(f"unknown band profile {profile!r}")
    return prof


def band_pressure_particular(mesh: RectangleMesh, p: float = 1.0,
                             profile: str = "discontinuous") -> ParticularStress:
    """Vertical band pressure on the unit square: s_yy = profile(x), rest zero.

    The field is constant in y, hence divergence-free; the discontinuous
    profile jumps on the feature lines x = 1/4, 3/4 which must be element
    breakpoints. The nodal array takes the two-sided average on the jump lines.
    """
    if abs(mesh.domain.Lx - 1) > 1e-12 or abs(mesh.domain.Ly - 1) > 1e-12:
        raise MeshError("band pressure is defined on the unit square")
    for line in (0.25, 0.75):
        if not np.any(np.abs(mesh.xs - line) < 1e-12):
            raise MeshError(
                f"mesh lacks the feature line x={line} required by the band jump")
    prof = _band_profile(profile, p)

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        syy = prof(x)
        z = np.zeros_like(syy)
        return np.stack([z, syy, z.copy()])

    field = SymTensorField2(mesh, fn=fn, div_fn=_zero_divergence)
    if profile == "discontinuous":
        # two-sided average at the jump nodes (dump/reconstruction only)
        comps = field.components.copy()
        nodes_x = mesh.node_x
        for line, inside_val in ((0.25, -p / 2), (0.75, -p / 2)):
            cols = np.where(np.abs(nodes_x - line) < 1e-12)[0]
            for c in cols:
                comps[1][c::mesh.nnx] = inside_val
        field = SymTensorField2(mesh, comps, fn=fn, div_fn=_zero_divergence)

    def top(x, y):
        return np.zeros_like(x), prof(x)

    def bottom(x, y):
        return np.zeros_like(x), -prof(x)

    loading = LoadingSpec.for_rectangle({"top": top, "bottom": bottom})
    return ParticularStress(field, loading, f"band:{profile}")


def uniform_pressure_particular(mesh: RectangleMesh,
                                p: float = 1.0) -> ParticularStress:
    """Uniform pressure p on the top and bottom edges: s_yy = -p everywhere."""

    def fn(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return np.stack([z, np.full_like(z, -p), z.copy()])

    def top(x, y):
        return np.zeros_like(x), np.full_like(x, -p)

    def bottom(x, y):
        return np.zeros_like(x), np.full_like(x, p)

    field = SymTensorField2(mesh, fn=fn, div_fn=_zero_divergence)
    loading = LoadingSpec.for_rectangle({"top": top, "bottom": bottom})
    return ParticularStress(field, loading, "uniform_pressure")


def gravity_particular(mesh: RectangleMesh, rho1: float = 1.0, rho2: float = 3.0,
                       g: float = 1.0) -> ParticularStress:
    """Two-density block under gravity (density rho1 above y=1/2, rho2 below).

    s_yy = rho1 g (y - 1)                          for y >= 1/2,
    s_yy = rho2 g y - (rho1 + rho2) g / 2          for y <  1/2,
    other components zero; continuous at y = 1/2, zero at the top, and equal to
    the assumed uniform bottom reaction -(rho1+rho2) g / 2 at y = 0. The body
    force is b = (0, -rho(y) g) with potential V listed below.
    """
    if abs(mesh.domain.Lx - 1) > 1e-12 or abs(mesh.domain.Ly - 1) > 1e-12:
        raise MeshError("gravity block is defined on the unit square")
    if not np.any(np.abs(mesh.ys - 0.5) < 1e-12):
        raise MeshError("mesh lacks the feature line y=1/2")

    def syy(y):
        y = np.asarray(y, dtype=float)
        return np.where(y >= 0.5, rho1 * g * (y - 1.0),
                        rho2 * g * y - (rho1 + rho2) * g / 2)

    def fn(x, y):
        v = syy(np.broadcast_to(y, np.shape(x)))
        z = np.zeros_like(v)
        return np.stack([z, v, z.copy()])

    def div_fn(x, y):
        # d(s_yy)/dy = rho(y) g exactly cancels the body force below
        y = np.asarray(y, dtype=float)
        rho = np.where(y >= 0.5, rho1, rho2)
        z = np.zeros_like(rho, dtype=float)
        return np.stack([z, rho * g])

    def body_force(x, y):
        y = np.asarray(y, dtype=float)
        rho = np.where(y >= 0.5, rho1, rho2)
        return np.zeros_like(rho, dtype=float), -rho * g

    def potential(x, y):
        # V with b = -grad V: V = rho1 g y + (rho2-rho1) g / 2 above the
        # interface, rho2 g y below
        y = np.asarray(y, dtype=float)
        return np.where(y >= 0.5, rho1 * g * y + (rho2 - rho1) * g / 2,
                        rho2 * g * y)

    def bottom(x, y):
        return np.zeros_like(x), np.full_like(x, (rho1 + rho2) * g / 2)

    field = SymTensorField2(mesh, fn=fn, div_fn=div_fn)
    loading = LoadingSpec.for_rectangle({"bottom": bottom}, body_force=body_force,
                                        body_potential=potential)
    return ParticularStress(field, loading, "gravity")


def annulus_m1_particular(mesh: RadialMesh) -> ParticularStress:
    """The m=1 equilibrated field with nonzero net force on the hole.

    Radial profiles (baked for r_a = 0.1, r_b = 0.3):
        s_rr = r/3 - 13/120 + 0.003/(4 r^2) + 0.1/r
        s_tt = r - 13/60
        s_rt = r/3 - 13/120 + 0.003/(4 r^2)
    giving boundary values s_rr(r_a)=1, s_rt(r_a)=0, s_rr(r_b)=1/3,
    s_rt(r_b)=0.1/0.3 - ... (the outer shear closes the force balance).
    """
    ra, rb = mesh.domain.r_a, mesh.domain.r_b
    if abs(ra - 0.1) > 1e-12 or abs(rb - 0.3) > 1e-12:
        raise MeshError(
            "the m=1 particular field is baked for r_a=0.1, r_b=0.3")

    def profiles(r):
        r = np.asarray(r, dtype=float)
        srr = r / 3 - 13 / 120 + 0.003 / (4 * r**2) + 0.1 / r
        stt = r - 13 / 60
        srt = r / 3 - 13 / 120 + 0.003 / (4 * r**2)
        return np.stack([srr, stt, srt])

    field = SymTensorField2(mesh, m=1, parity="cos", fn=profiles,
                            div_fn=_zero_divergence)
    prof_b = profiles(np.array([rb]))
    loading = LoadingSpec.for_annulus(
        m=1, inner=(1.0, 0.0), outer=(float(prof_b[0, 0]), float(prof_b[2, 0])))
    return ParticularStress(field, loading, "annulus_m1")


def oracle_as_particular(field: SymTensorField2, loading: LoadingSpec,
                         tol: float = _REL_TOL) -> ParticularStress:
    """Wrap an externally computed equilibrated field (e.g. a reference FEM
    solution for a different material) for use as a particular stress.

    Analytic fields meet the default gate; discrete reference fields satisfy
    equilibrium only to discretization accuracy, so callers wrapping those
    must pass the honest measured tolerance explicitly (it is recorded on the
    returned object together with the measured residuals).
    """
    return ParticularStress(field, loading, "oracle", tolerance=tol)
