"""Plane-strain constitutive models and the energy norms they induce.

Isotropic (Young's modulus possibly varying in space, Poisson's ratio constant)
and homogeneous orthotropic laws are supported. All relations are plane strain:

    isotropic:   e_xx = ((1-nu^2) s_xx - nu(1+nu) s_yy) / Y
                 e_xy = (1+nu) s_xy / Y
    orthotropic: e_xx = (1-nu_xy^2) s_xx / Y_x - nu_xy(1+nu_xy) s_yy / Y_y
                 e_yy = -nu_xy(1+nu_xy) s_xx / Y_y + (1-nu_xy^2) s_yy / Y_y
                 e_xy = s_xy / (2 G_xy)

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
    """Immutable plane-strain material description."""

    def __init__(self, kind, Y=None, nu=None, Y_x=None, Y_y=None,
                 nu_xy=None, G_xy=None):
        self.kind = kind
        if kind == "isotropic":
            if Y is None or nu is None:
                raise MaterialError("isotropic material requires Y and nu")
            if not (0.0 <= nu <= _NU_MAX):
                raise MaterialError(f"nu must lie in [0, {_NU_MAX}]")
            self.Y = Y  # a number or a callable Y(x, y)
            self.nu = float(nu)
            self.Y_x = self.Y_y = self.nu_xy = self.G_xy = None
        elif kind == "orthotropic":
            vals = {"Y_x": Y_x, "Y_y": Y_y, "nu_xy": nu_xy, "G_xy": G_xy}
            if any(v is None for v in vals.values()):
                raise MaterialError("orthotropic material requires Y_x, Y_y, nu_xy, G_xy")
            if Y_x <= 0 or Y_y <= 0 or G_xy <= 0:
                raise MaterialError("orthotropic moduli must be positive")
            if not (0.0 <= nu_xy <= _NU_MAX):
                raise MaterialError(f"nu_xy must lie in [0, {_NU_MAX}]")
            self.Y_x, self.Y_y = float(Y_x), float(Y_y)
            self.nu_xy, self.G_xy = float(nu_xy), float(G_xy)
            self.Y = self.nu = None
        else:
            raise MaterialError(f"unknown material kind {kind!r}")
        self._check_definite()

    @staticmethod
    def isotropic(Y, nu) -> "Material":
        return Material("isotropic", Y=Y, nu=nu)

    @staticmethod
    def orthotropic(Y_x, Y_y, nu_xy, G_xy) -> "Material":
        return Material("orthotropic", Y_x=Y_x, Y_y=Y_y, nu_xy=nu_xy, G_xy=G_xy)

    @property
    def uniform(self) -> bool:
        return self.kind == "orthotropic" or np.isscalar(self.Y) or \
            isinstance(self.Y, (int, float))

    def modulus_at(self, x, y):
        """Young's modulus at points (isotropic only)."""
        if callable(self.Y):
            Y = np.broadcast_to(self.Y(x, y), np.shape(x)).astype(float)
        else:
            Y = np.full(np.shape(x) or (), float(self.Y))
        if np.any(Y <= 0):
            raise MaterialError("Y must be positive everywhere")
        return Y

    def compliance_on_values(self, s: np.ndarray, Y=None) -> np.ndarray:
        """Strain components for stress components ``s`` of shape (3, n).

        ``Y`` (same length as the points) is required for spatially varying
        isotropic moduli. Returned shear component is the tensor strain e_xy.
        """
        s = np.asarray(s, dtype=float)
        if self.kind == "isotropic":
            if Y is None:
                if not self.uniform:
                    raise MaterialError("pointwise Y needed for varying modulus")
                Y = float(self.Y)
            nu = self.nu
            exx = ((1 - nu**2) * s[0] - nu * (1 + nu) * s[1]) / Y
            eyy = ((1 - nu**2) * s[1] - nu * (1 + nu) * s[0]) / Y
            exy = (1 + nu) * s[2] / Y
            return np.stack([exx, eyy, exy])
        nxy = self.nu_xy
        exx = (1 - nxy**2) * s[0] / self.Y_x - nxy * (1 + nxy) * s[1] / self.Y_y
        eyy = -nxy * (1 + nxy) * s[0] / self.Y_y + (1 - nxy**2) * s[1] / self.Y_y
        exy = s[2] / (2 * self.G_xy)
        return np.stack([exx, eyy, exy])

    def _check_definite(self):
        # probe the compliance quadratic form on a spanning set of stresses
        probes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                           [1, -1, 0], [1, 0, 1], [0.3, -0.7, 0.2]], dtype=float).T
        Y = None
        if self.kind == "isotropic" and not self.uniform:
            Y = np.ones(probes.shape[1])
        e = self.compliance_on_values(probes, Y=Y)
        quad = e[0] * probes[0] + e[1] * probes[1] + 2 * e[2] * probes[2]
        if np.any(quad <= 0):
            raise MaterialError("compliance is not positive definite")


def _compliance_on(material: Material, mesh, values: np.ndarray,
                   at_nodes: bool) -> np.ndarray:
    """C^{-1} applied to stress components ``values`` of shape (3, n, ...)
    sampled at the nodes of ``mesh`` or at its quadrature points."""
    varying = material.kind == "isotropic" and not material.uniform
    if isinstance(mesh, RadialMesh) and (varying
                                         or material.kind == "orthotropic"):
        law = "a varying modulus" if varying else "the orthotropic law"
        raise MaterialError(f"{law} is defined on rectangle meshes only")
    Y = None
    if varying:
        ops = _ops(mesh)
        Y = material.modulus_at(*(mesh.node_coords.T if at_nodes
                                  else (ops.qx, ops.qy)))
        Y = Y.reshape(Y.shape + (1,) * (np.ndim(values) - 2))
    return material.compliance_on_values(values, Y=Y)


def compliance_apply(material: Material, sigma: SymTensorField2) -> SymTensorField2:
    """Nodewise strain field epsilon = C^{-1} sigma."""
    eps = _compliance_on(material, sigma.mesh, sigma.components, at_nodes=True)
    return SymTensorField2(sigma.mesh, eps, m=sigma.m, parity=sigma.parity)


def compliance_on_quad(material: Material, mesh, values: np.ndarray) -> np.ndarray:
    """C^{-1} applied to quadrature-point stresses of shape (3, nq, ...)."""
    return _compliance_on(material, mesh, values, at_nodes=False)


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
