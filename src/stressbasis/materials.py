"""Plane-strain constitutive models and the energy norms they induce.

A law is a compliance ``S`` (3x3, at unit modulus) and a modulus ``Y`` (a
number, a callable Y(x, y), or 1 when the moduli sit inside S): the tensor
strains (e_xx, e_yy, e_xy) of a stress s = (s_xx, s_yy, s_xy) are (S s) / Y.
All laws are plane strain; the entries of S not given here are 0:

    isotropic:   S_00 = S_11 = 1-nu^2,  S_01 = S_10 = -nu(1+nu),  S_22 = 1+nu
    orthotropic: S_00 = (1-nu_xy^2)/Y_x,  S_11 = (1-nu_xy^2)/Y_y,
                 S_01 = S_10 = -nu_xy(1+nu_xy)/Y_y,  S_22 = 1/(2 G_xy)

A law is valid when its energy form diag(1, 1, 2) S is positive definite and
Y is finite and positive.
The same component relations apply verbatim to polar components of
axisymmetrically decomposed fields (isotropic, uniform modulus only).
"""
from __future__ import annotations

import numpy as np

from .fields import SymTensorField2, _ops, tensor_gram
from .meshes import RadialMesh

_NU_MAX = 0.49


class MaterialError(ValueError):
    pass


class Material:
    """Immutable plane-strain law (S, Y); ``nu`` for isotropic laws only,
    ``kind`` a label."""

    def __init__(self, kind, S, Y=1.0, nu=None):
        self.kind, self.nu = kind, nu
        self.S = np.array(S, dtype=float)
        self.Y = Y if callable(Y) else float(Y)
        if self.uniform:
            self.modulus_at(0.0, 0.0)     # a finite, positive number
        try:
            np.linalg.cholesky(self.S * [[1.0], [1.0], [2.0]])
        except np.linalg.LinAlgError:
            raise MaterialError("compliance is not positive definite") from None

    @staticmethod
    def isotropic(Y, nu) -> "Material":
        if Y is None or nu is None:
            raise MaterialError("isotropic material requires Y and nu")
        if not (0.0 <= nu <= _NU_MAX):
            raise MaterialError(f"nu must lie in [0, {_NU_MAX}]")
        nu = float(nu)
        a, b = 1 - nu**2, -(nu * (1 + nu))
        return Material("isotropic", [[a, b, 0], [b, a, 0], [0, 0, 1 + nu]],
                        Y=Y, nu=nu)

    @staticmethod
    def orthotropic(Y_x, Y_y, nu_xy, G_xy) -> "Material":
        if any(v is None for v in (Y_x, Y_y, nu_xy, G_xy)):
            raise MaterialError("orthotropic material requires Y_x, Y_y, nu_xy, G_xy")
        if not (Y_x > 0 and Y_y > 0 and G_xy > 0):
            raise MaterialError("orthotropic moduli must be positive")
        if not (0.0 <= nu_xy <= _NU_MAX):
            raise MaterialError(f"nu_xy must lie in [0, {_NU_MAX}]")
        a, b = 1 - nu_xy**2, -(nu_xy * (1 + nu_xy))
        return Material("orthotropic", [[a / Y_x, b / Y_y, 0],
                                        [b / Y_y, a / Y_y, 0],
                                        [0, 0, 1 / (2 * G_xy)]])

    @property
    def uniform(self) -> bool:
        return not callable(self.Y)

    def modulus_at(self, x, y):
        """The modulus Y at points (x, y)."""
        if callable(self.Y):
            Y = np.broadcast_to(self.Y(x, y), np.shape(x)).astype(float)
        else:
            Y = np.full(np.shape(x) or (), self.Y)
        if not np.all(np.isfinite(Y) & (Y > 0)):
            raise MaterialError("Y must be finite and positive everywhere")
        return Y

    def compliance_on_values(self, s: np.ndarray, Y=None) -> np.ndarray:
        """Strain components (S s) / Y for stress components ``s`` of shape
        (3, n, ...).

        ``Y`` (broadcastable to the points) is required for a spatially
        varying modulus. Returned shear component is the tensor strain e_xy.
        """
        s = np.asarray(s, dtype=float)
        if Y is None:
            if not self.uniform:
                raise MaterialError("pointwise Y needed for varying modulus")
            Y = self.Y
        # term by term, zero entries skipped and no BLAS (whose FMA rounds
        # differently): each component keeps the last bit of its formula
        e = []
        for row in self.S:
            (c0, a0), *rest = [(c, a) for c, a in enumerate(row) if a != 0]
            e.append(sum((a * s[c] for c, a in rest), a0 * s[c0]) / Y)
        return np.stack(e)


def modulus_on_quad(material: Material, mesh):
    """The modulus Y at the quadrature points of ``mesh``, shape (nq,), or
    the number Y of a uniform law; MaterialError where the law is not
    defined on the mesh."""
    varying = not material.uniform
    if isinstance(mesh, RadialMesh) and (varying
                                         or material.kind == "orthotropic"):
        law = "a varying modulus" if varying else "the orthotropic law"
        raise MaterialError(f"{law} is defined on rectangle meshes only")
    if not varying:
        return material.Y
    ops = _ops(mesh)
    return material.modulus_at(ops.qx, ops.qy)


def compliance_on_quad(material: Material, mesh, values: np.ndarray) -> np.ndarray:
    """C^{-1} applied to quadrature-point stresses of shape (3, nq, ...)."""
    Y = modulus_on_quad(material, mesh)
    if not material.uniform:
        Y = Y.reshape(Y.shape + (1,) * (np.ndim(values) - 2))
    return material.compliance_on_values(values, Y=Y)


def compliance_quad(material: Material, sigma: SymTensorField2) -> np.ndarray:
    """C^{-1} sigma evaluated at quadrature points, shape (3, nq)."""
    return compliance_on_quad(material, sigma.mesh, sigma.at_quad())


def energy_inner(material: Material, A: SymTensorField2, B: SymTensorField2) -> float:
    """The energy inner product <C^{-1} A, B>."""
    if A.mesh != B.mesh:
        raise MaterialError("mesh mismatch")
    if (A.m, A.parity) != (B.m, B.parity):
        raise MaterialError("wavenumber mismatch")
    return float(tensor_gram(A.mesh, A.m, A.parity, compliance_quad(material, A),
                             B.at_quad()))


def strain_energy(material: Material, sigma: SymTensorField2) -> float:
    """The squared energy norm  E(sigma) = int C^{-1} sigma . sigma dA >= 0."""
    return energy_inner(material, sigma, sigma)


# -- named modulus profiles -------------------------------------------------

def discontinuous_modulus(Y_top: float, Y_bottom: float, y_interface: float = 0.5):
    """Y jumps across the horizontal line y = y_interface (value Y_top on it)."""
    def Y(x, y):
        return np.where(np.asarray(y) >= y_interface, Y_top, Y_bottom)
    return Y


def ramp_modulus(Y_top: float, Y_bottom: float, zeta: float = 0.05,
                 y_interface: float = 0.5):
    """Linear ramp of width 2*zeta centered on y = y_interface."""
    def Y(x, y):
        y = np.asarray(y, dtype=float)
        t = np.clip((y - (y_interface - zeta)) / (2 * zeta), 0.0, 1.0)
        return Y_bottom + (Y_top - Y_bottom) * t
    return Y
