"""stressbasis: planar stress decomposition over self-equilibrated bases.

A stress field in equilibrium with the applied loads is written as
sigma = sigma_p + sigma_h, where sigma_p is any conveniently constructed
equilibrated field and sigma_h is expanded in an orthonormal basis of
traction-free, divergence-free tensor fields. Expansion coefficients come
from strain-energy minimization or from a material-blind projection of the
planar trace.
"""

from .basis import (BasisSet, airy_bump_basis, load_basis, orthonormalize,
                    save_basis, solve_basis_annulus, solve_basis_rectangle,
                    verify_basis)
from .fields import (SymTensorField2, equilibrium_residual, l2_inner_tensor,
                     planar_trace)
from .materials import Material, strain_energy
from .meshes import (Domain, LoadingSpec, build_radial_grid,
                     build_rectangle_mesh)
from .oracles import (OracleSolution, annulus_m1_oracle, cesaro_diagnostic,
                      displacement_fem_oracle, lame_oracle)
from .particular import (ParticularStress, annulus_m1_particular,
                         axisym_airy_particular, band_pressure_particular,
                         gravity_particular, oracle_as_particular)
from .quadrature import QuadratureRule, gauss_1d, gauss_2d
from .solvers import (Approximation, assemble_se_system, solve_planar_trace,
                      solve_planar_trace_body, solve_strain_energy)

__version__ = "0.1.0"

__all__ = [
    "Approximation", "BasisSet", "Domain", "LoadingSpec", "Material",
    "OracleSolution", "ParticularStress", "QuadratureRule", "SymTensorField2",
    "airy_bump_basis", "annulus_m1_oracle", "annulus_m1_particular",
    "assemble_se_system", "axisym_airy_particular", "band_pressure_particular",
    "build_radial_grid", "build_rectangle_mesh", "cesaro_diagnostic",
    "displacement_fem_oracle", "equilibrium_residual", "gauss_1d", "gauss_2d",
    "gravity_particular", "l2_inner_tensor", "lame_oracle", "load_basis",
    "oracle_as_particular", "orthonormalize", "planar_trace", "save_basis",
    "solve_basis_annulus", "solve_basis_rectangle", "solve_planar_trace",
    "solve_planar_trace_body", "solve_strain_energy", "strain_energy",
    "verify_basis",
]
