"""Reference instruments of the test suite.

Independent computations that the tests compare the package against. No run
executes them, so they live here rather than in ``stressbasis``.
"""
import numpy as np

from stressbasis import fem2d
from stressbasis.fields import SymTensorField2, equilibrium_residual
from stressbasis.oracles import OracleError
from stressbasis.solvers import _energy_pairing

# the parts of a boundary a load acts on; "body" is the body force
_PARTS = {"rectangle": ("left", "right", "bottom", "top", "body"),
          "annulus": ("inner", "outer")}


def constant_tensor_field(mesh, sxx, syy, sxy, m=None, parity=None):
    comps = np.stack([np.full(mesh.n_nodes, float(v)) for v in (sxx, syy, sxy)])
    return SymTensorField2(mesh, comps, m=m, parity=parity)


def _load_on(loading, mesh, part):
    """Points (x, y), weights and the Cartesian load (fx, fy) on the body
    along one part of the boundary, or over the body for "body"."""
    if loading.kind == "annulus":
        # open uniform grid: trapezoid rule on the circle, exact for trig
        # polynomials
        th = np.arange(1440) * (2 * np.pi / 1440)
        radius = mesh.domain.r_a if part == "inner" else mesh.domain.r_b
        srr_amp, srt_amp = loading.boundary_stress.get(part, (0.0, 0.0))
        cm, sm = np.cos(loading.m * th), np.sin(loading.m * th)
        srr, srt = (srr_amp * cm, srt_amp * sm) if loading.parity == "cos" \
            else (srr_amp * sm, srt_amp * cm)
        sign = 1.0 if part == "outer" else -1.0   # outward normal of the body
        tr, tt = sign * srr, sign * srt
        x, y = radius * np.cos(th), radius * np.sin(th)
        w = np.full(th.shape, radius * (th[1] - th[0]))
        return (x, y, w, tr * np.cos(th) - tt * np.sin(th),
                tr * np.sin(th) + tt * np.cos(th))
    ops = fem2d.rect_ops(mesh)
    if part != "body":
        x, y, w = ops.edge_quad(part)
        return (x, y, w) + loading.traction_at(part, x, y)
    x, y, w = ops.qx, ops.qy, ops.qw
    if loading.body_force is None:
        return x, y, w, np.zeros_like(x), np.zeros_like(x)
    bx, by = loading.body_force(x, y)
    return x, y, w, np.broadcast_to(bx, x.shape), np.broadcast_to(by, x.shape)


def resultant(loading, mesh, parts=None) -> np.ndarray:
    """(F_x, F_y, M): the net force and the moment about the origin that
    ``loading`` applies to the body on ``parts`` of its boundary (side or
    circle tags, and "body" for the body force); all parts by default."""
    out = np.zeros(3)
    for part in parts or _PARTS[loading.kind]:
        x, y, w, fx, fy = _load_on(loading, mesh, part)
        out += [w @ fx, w @ fy, w @ (x * fy - y * fx)]
    return out


def assert_balanced(loading, mesh, tol=1e-10):
    """The loading is self-equilibrated: its net force and moment are within
    ``tol`` times the largest boundary stress amplitude (at least 1)."""
    scale = 1.0
    if loading.kind == "annulus":
        scale = max([1.0] + [abs(v) for pair in loading.boundary_stress.values()
                             for v in pair])
    res = resultant(loading, mesh)
    assert np.abs(res).max() <= tol * scale, \
        f"loading is not self-equilibrated: force {res[:2]}, moment {res[2]}"


def mode_residuals(basis) -> np.ndarray:
    """The divergence residual of each mode of ``basis``, in mode order, as
    ``equilibrium_residual`` measures it."""
    return np.array([equilibrium_residual(md).interior_norm
                     for md in basis.modes])


def galerkin_residual(approx, basis, material) -> float:
    """max_i |<C^-1 sigma^N, phi_i>| over the solved modes (SE optimality)."""
    r = _energy_pairing(basis, material, approx.sigma_N,
                        len(approx.mode_indices))
    return float(np.max(np.abs(r)))


def lame_energy_closed_form(r_a: float, r_b: float, p: float,
                            material) -> float:
    """The 1D closed-form radial integral of C^-1 s . s r dr * 2 pi of the
    pressurized annulus (``lame_oracle``).

    The law is written out by hand on purpose, not taken from
    ``Material.compliance_on_values``: this is an independent reference that
    the tests compare the quadrature against.
    """
    if material.kind != "isotropic" or not material.uniform:
        raise OracleError("closed form requires a uniform isotropic material")
    Y, nu = float(material.Y), material.nu
    A = p * r_a**2 / (r_b**2 - r_a**2)
    B = -A * r_b**2
    # e_rr srr + e_tt stt = ((1-nu^2)(srr^2+stt^2) - 2 nu(1+nu) srr stt)/Y with
    # srr^2 + stt^2 = 2A^2 + 2B^2/r^4 and srr stt = A^2 - B^2/r^4; integrating
    # r dr over [r_a, r_b] and multiplying by 2 pi:
    I1 = (r_b**2 - r_a**2) / 2            # int r dr
    I2 = (r_a**-2 - r_b**-2) / 2          # int r^-3 dr
    val = ((1 - nu**2) * (2 * A**2 * I1 + 2 * B**2 * I2)
           - 2 * nu * (1 + nu) * (A**2 * I1 - B**2 * I2)) / Y
    return 2 * np.pi * val
