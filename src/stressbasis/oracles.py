"""Independent reference solutions and the Cesaro compatibility diagnostic.

Three reference constructions are provided:

* ``lame_oracle`` -- the classical pressurized thick-cylinder closed form;
* ``annulus_m1_oracle`` -- the closed-form (Michell m=1) solution of the
  radial system for the annulus problem with a nonzero net hole force;
* ``displacement_fem_oracle`` -- a standard displacement-based plane-strain
  solve on a refined rectangle mesh, restricted back to the requested mesh.

Diagnostic: the two in-plane Cesaro loop integrals whose vanishing
characterizes compatibility around a hole. E_N against a reference is formed
by ``solvers.error_series``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fem2d
from .config import NumericFailure
from .fields import SymTensorField2, _zero_divergence
from .materials import Material, MaterialError
from .meshes import LoadingSpec, MeshError, RadialMesh, RectangleMesh


class OracleError(NumericFailure, RuntimeError):
    pass


@dataclass
class OracleSolution:
    """A reference stress field with its loading and construction metadata."""

    field: SymTensorField2
    loading: LoadingSpec
    method: str  # analytic | displacement-fem
    metadata: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------------

def lame_oracle(mesh: RadialMesh, p: float = 1.0) -> OracleSolution:
    """Pressurized annulus: s_rr = A + B/r^2, s_tt = A - B/r^2, s_rt = 0,
    with s_rr(r_a) = -p and s_rr(r_b) = 0. The planar trace is the constant
    2A, so the field is compatible for any isotropic material."""
    r_a, r_b = mesh.domain.r_a, mesh.domain.r_b
    A = p * r_a**2 / (r_b**2 - r_a**2)
    B = -A * r_b**2

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.stack([A + B / r**2, A - B / r**2, np.zeros_like(r)])

    # d(srr)/dr + (srr - stt)/r = -2B/r^3 + 2B/r^3 = 0
    field = SymTensorField2(mesh, m=0, parity="cos", fn=fn,
                            div_fn=_zero_divergence)
    loading = LoadingSpec.for_annulus(m=0, inner=(-p, 0.0), outer=(0.0, 0.0))
    return OracleSolution(field, loading, "analytic",
                          {"A": A, "B": B, "p": p, "nel": mesh.nel})


def annulus_m1_oracle(mesh: RadialMesh,
                      material: Material) -> OracleSolution:
    """Reference solution of the m=1 annulus problem with net hole force.

    Equilibrium and trace compatibility reduce to a radial system in
    (f_rr, f_rt, S = f_rr + f_tt, r S') whose coefficients are constant in
    t = ln r. Its solutions are the Michell m=1 family (J. H. Michell, Proc.
    London Math. Soc. 31, 1899; J. R. Barber, Elasticity, "Problems in polar
    coordinates"), which satisfies both equilibrium rows identically:

        S    = a r + b/r,
        f_rr = a r/4 + (b + c)/(2r) + d/(2r^3),
        f_rt = a r/4 + (b - c)/(2r) + d/(2r^3),    f_tt = S - f_rr.

    Boundary conditions: f_rr(r_a) = 1, f_rt(r_a) = 0, f_rr(r_b) = 1/3, and
    the one-dimensional reduction of the Cesaro integral condition at r_a,
    2 e_rt + e_rr - r_a e_tt' = 0; one 4x4 solve gives (a, b, c, d). The
    remaining traction condition f_rt(r_b) = 0 is implied by these four (the
    outer shear closes automatically) and is recorded a posteriori. The
    material must be isotropic with a uniform modulus.
    """
    if material.kind != "isotropic" or not material.uniform:
        raise MaterialError("the m=1 reference requires a uniform isotropic "
                            "material")
    r_a, r_b = mesh.domain.r_a, mesh.domain.r_b
    # (f_rr, f_tt, f_rt) = sum_p K[:, :, p] r^P[p]: a row of K per
    # coefficient (a, b, c, d), a column per power
    P = np.array([1.0, -1.0, -3.0])
    K = np.array([[[1, 0, 0], [0, 2, 0], [0, 2, 0], [0, 0, 2]],       # f_rr
                  [[3, 0, 0], [0, 2, 0], [0, -2, 0], [0, 0, -2]],     # f_tt
                  [[1, 0, 0], [0, 2, 0], [0, -2, 0], [0, 0, 2]]]) / 4  # f_rt
    val_a, val_b = K @ r_a**P, K @ r_b**P
    # strains of the family at r_a (column 0) and of its r-derivative
    # (column 1): the compliance is linear, so e_tt' is the latter's e_tt
    e = material.compliance_on_values(
        np.stack([val_a, K @ (P * r_a**(P - 1))], axis=1))
    A = np.stack([val_a[0], val_a[2], val_b[0],
                  2 * e[2, 0] + e[0, 0] - r_a * e[1, 1]])
    coef = K.transpose(0, 2, 1) @ np.linalg.solve(A, [1.0, 0.0, 1 / 3, 0.0])
    srt_b = float(coef[2] @ r_b**P)

    def fn(r):
        return np.tensordot(coef, np.power.outer(np.asarray(r, float), P),
                            axes=(1, -1))

    field = SymTensorField2(mesh, m=1, parity="cos", fn=fn,
                            div_fn=_zero_divergence)
    loading = LoadingSpec.for_annulus(m=1, inner=(1.0, 0.0),
                                      outer=(1.0 / 3.0, srt_b))
    meta = {"outer_shear": srt_b,
            "dropped_condition": "srt(r_b)=0 implied; residual recorded",
            "dropped_residual": abs(srt_b)}
    return OracleSolution(field, loading, "analytic", meta)


def displacement_fem_oracle(mesh: RectangleMesh, loading: LoadingSpec,
                            material: Material,
                            refine: int = 2) -> OracleSolution:
    """Displacement-based plane-strain reference on a ``refine`` x finer mesh.

    Rigid-body motion is removed by three point constraints; the recovered
    nodal stress is restricted back to the nodes of the requested mesh.
    """
    if refine < 1:
        raise OracleError("refine must be >= 1")
    fine = mesh.refined(refine) if refine > 1 else mesh
    stress_fine = fem2d.solve_displacement(fine, material, loading)
    if not np.isfinite(stress_fine).all():
        raise OracleError("the FEM reference stress is not finite: the "
                          "displacement solve overflowed")
    if refine > 1:
        ix = np.arange(mesh.nnx) * refine
        iy = np.arange(mesh.nny) * refine
        take = (iy[:, None] * fine.nnx + ix[None, :]).ravel()
        if not (np.allclose(fine.node_x[ix], mesh.node_x)
                and np.allclose(fine.node_y[iy], mesh.node_y)):
            raise OracleError("refined mesh does not nest the requested mesh")
        comps = stress_fine[:, take]
    else:
        comps = stress_fine
    field = SymTensorField2(mesh, comps)
    meta = {"refine": refine, "fine_nodes": fine.n_nodes,
            "mesh_hash": mesh.mesh_hash()}
    return OracleSolution(field, loading, "displacement-fem", meta)


# ---------------------------------------------------------------------------
# Cesaro diagnostic
# ---------------------------------------------------------------------------

# the Cesaro loop: a positively oriented circle about the hole at the origin,
# sampled at this many equally spaced points, with the reference point X of
# the integrands at the origin
_LOOP_POINTS = 720
_LOOP_REFERENCE = (0.0, 0.0)


def _profile_at(mesh: RadialMesh, vals: np.ndarray, r: float):
    """Value and radial derivative of a nodal P2 profile at radius r."""
    nodes = mesh.nodes
    e = int(np.clip(np.searchsorted(nodes[2::2], r), 0, mesh.nel - 1))
    i0 = 2 * e
    x0, x2 = nodes[i0], nodes[i0 + 2]
    J = (x2 - x0) / 2
    xi = (r - x0) / J - 1.0
    N = np.array([xi * (xi - 1) / 2, 1 - xi**2, xi * (xi + 1) / 2])
    dN = np.array([xi - 0.5, -2 * xi, xi + 0.5]) / J
    v = vals[i0:i0 + 3]
    return float(N @ v), float(dN @ v)


def cesaro_diagnostic(sigma: SymTensorField2, radius: float,
                      material: Material) -> tuple[float, float]:
    """The two in-plane Cesaro integrals F_i = loop integral of U_ij dx_j
    around the circle of the given radius about the hole.

    U_11 = e_11 + (X_2 - x_2) c ebar_,2,   U_12 = e_12 - (X_2 - x_2) c ebar_,1,
    U_21 = e_21 - (X_1 - x_1) c ebar_,2,   U_22 = e_22 + (X_1 - x_1) c ebar_,1,
    with c = (1 - nu)/(1 - 2 nu) and ebar the planar strain trace. Both vanish
    for a compatible field; F points along the net force the displacement
    field would have to absorb across the cut.
    """
    mesh = sigma.mesh
    if not isinstance(mesh, RadialMesh):
        raise MeshError("the Cesaro diagnostic is computed on annulus fields")
    if material.kind != "isotropic" or not material.uniform:
        raise MaterialError(
            "the Cesaro diagnostic requires a uniform isotropic material")
    R = radius
    if not (mesh.domain.r_a <= R <= mesh.domain.r_b):
        raise MeshError(f"Cesaro loop radius {R} must lie inside the annulus "
                        f"[{mesh.domain.r_a}, {mesh.domain.r_b}]")
    nu = material.nu
    m = sigma.m

    err, ett, ert = material.compliance_on_values(sigma.components)
    ebar = err + ett

    err_R, _ = _profile_at(mesh, err, R)
    ett_R, _ = _profile_at(mesh, ett, R)
    ert_R, _ = _profile_at(mesh, ert, R)
    h_val, h_der = _profile_at(mesh, ebar, R)

    n = _LOOP_POINTS
    th = np.arange(n) * (2 * np.pi / n)
    dth = 2 * np.pi / n
    ct, st = np.cos(th), np.sin(th)
    if sigma.parity == "cos":
        cm, sm = np.cos(m * th), np.sin(m * th)
        e_rr, e_tt, e_rt = err_R * cm, ett_R * cm, ert_R * sm
        ebx = h_der * cm * ct + (m / R) * h_val * sm * st
        eby = h_der * cm * st - (m / R) * h_val * sm * ct
    else:
        cm, sm = np.cos(m * th), np.sin(m * th)
        e_rr, e_tt, e_rt = err_R * sm, ett_R * sm, ert_R * cm
        ebx = h_der * sm * ct - (m / R) * h_val * cm * st
        eby = h_der * sm * st + (m / R) * h_val * cm * ct

    exx = e_rr * ct**2 + e_tt * st**2 - 2 * e_rt * ct * st
    eyy = e_rr * st**2 + e_tt * ct**2 + 2 * e_rt * ct * st
    exy = (e_rr - e_tt) * ct * st + e_rt * (ct**2 - st**2)

    X1, X2 = _LOOP_REFERENCE
    x1, x2 = R * ct, R * st
    dx1, dx2 = -R * st * dth, R * ct * dth
    c = (1 - nu) / (1 - 2 * nu)
    U11 = exx + (X2 - x2) * c * eby
    U12 = exy - (X2 - x2) * c * ebx
    U21 = exy - (X1 - x1) * c * eby
    U22 = eyy + (X1 - x1) * c * ebx
    F1 = float(np.sum(U11 * dx1 + U12 * dx2))
    F2 = float(np.sum(U21 * dx1 + U22 * dx2))
    return F1, F2
