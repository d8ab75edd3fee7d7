"""stressbasis: planar stress decomposition over self-equilibrated bases.

A stress field in equilibrium with the applied loads is written as
sigma = sigma_p + sigma_h, where sigma_p is any conveniently constructed
equilibrated field and sigma_h is expanded in an orthonormal basis of
traction-free, divergence-free tensor fields. Expansion coefficients come
from strain-energy minimization or from a material-blind projection of the
planar trace.

The names below are resolved on first access (PEP 562), so importing the
package, or a light module of it such as ``config``, loads no numpy.
"""
import importlib

__version__ = "0.1.0"

# defining module of every public name
_HOMES = {
    "basis": ("BasisSet", "airy_bump_basis", "load_basis", "orthonormalize",
              "save_basis", "solve_basis_annulus", "solve_basis_rectangle",
              "verify_basis"),
    "fields": ("SymTensorField2", "equilibrium_residual", "l2_inner_tensor",
               "planar_trace"),
    "materials": ("Material", "strain_energy"),
    "meshes": ("Domain", "LoadingSpec", "build_radial_grid",
               "build_rectangle_mesh"),
    "oracles": ("OracleSolution", "annulus_m1_oracle", "cesaro_diagnostic",
                "displacement_fem_oracle", "lame_oracle"),
    "particular": ("ParticularStress", "annulus_m1_particular",
                   "axisym_airy_particular", "band_pressure_particular",
                   "gravity_particular", "oracle_as_particular"),
    "quadrature": ("QuadratureRule", "gauss_1d", "gauss_2d"),
    "solvers": ("Approximation", "assemble_se_system", "solve_planar_trace",
                "solve_planar_trace_body", "solve_strain_energy"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
