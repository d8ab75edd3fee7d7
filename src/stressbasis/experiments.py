"""Declarative experiment runner.

An experiment is a JSON-serializable configuration naming a domain, mesh,
material, particular-stress recipe, solution principle(s), mode schedule, and
reference solution. Running one writes, into the output directory:

* ``convergence.csv``            -- columns ``N,objective,energy,E_N`` for the
  primary (first-listed) principle; with several principles, additionally one
  ``convergence_<principle>.csv`` per principle;
* ``sigma_N.csv`` / ``sigma_p.csv`` / ``sigma_h.csv`` -- the final approximate
  stress, the particular stress, and their difference;
* ``coeffs.csv``                 -- expansion coefficients per principle;
* ``report.json``                -- provenance, tolerances, fitted slopes, and
  pass/fail results of the checks bound to the preset.

The config itself (``ExperimentConfig``, its schema and the presets) lives in
``config``. Eigenbases and reference fields are cached (``_cache``). All
outputs are written atomically and contain no timestamps, so a rerun with the
same configuration is byte-identical.
"""
from __future__ import annotations

import io
import json
import os

import numpy as np

from ._cache import _one_blas_thread, atomic_write_text, digest, \
    get_or_build, read_tagged, write_tagged
from .basis import (H1_TOL, L2_TOL, BasisSet, airy_bump_basis,
                    div_tolerance_rule, load_basis, save_basis,
                    solve_basis_annulus, solve_basis_rectangle, verify_basis)
# get_preset is named here too: the benchmark and the acceptance tests read
# the presets through this module
from .config import (ExperimentConfig, NumericFailure,  # noqa: F401
                     UsageError, get_preset)
from .fields import SymTensorField2, dump_field_csv, equilibrium_residual
from .materials import (Material, discontinuous_modulus, ramp_modulus,
                        strain_energy)
from .meshes import (Domain, RadialMesh, build_radial_grid,
                     build_rectangle_mesh)
from .oracles import (OracleSolution, annulus_m1_oracle, cesaro_diagnostic,
                      displacement_fem_oracle, lame_oracle)
from .particular import (annulus_m1_particular, axisym_airy_particular,
                         band_pressure_particular, gravity_particular,
                         oracle_as_particular, uniform_pressure_particular)
from .solvers import (energy_series, error_series, solve_planar_trace,
                      solve_planar_trace_body, solve_strain_energy)

_FMT = "%.17g"
# the tag line of a FEM reference cache file; it names the layout
# (``_cache.write_tagged``) only
_ORACLE_FORMAT = "SBORACLE 5"


class ExperimentError(NumericFailure, RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _build_domain(spec: dict) -> Domain:
    if spec["kind"] == "rectangle":
        return Domain.rectangle(spec.get("Lx", 1.0), spec.get("Ly", 1.0))
    return Domain.annulus(spec.get("r_a", 0.1), spec.get("r_b", 0.3))


def _build_mesh(domain: Domain, spec: dict):
    if domain.kind == "rectangle":
        features = {"x": spec.get("feature_x", []), "y": spec.get("feature_y", [])}
        return build_rectangle_mesh(domain, spec.get("nx", 48),
                                    spec.get("ny", 48), feature_lines=features)
    return build_radial_grid(domain, spec.get("nel", 128))


def _build_material(spec: dict) -> Material:
    if spec["kind"] == "orthotropic":
        return Material.orthotropic(spec["Y_x"], spec["Y_y"], spec["nu_xy"],
                                    spec["G_xy"])
    Y = spec["Y"]
    if isinstance(Y, dict):
        if Y["profile"] == "discontinuous":
            Y = discontinuous_modulus(Y["Y_top"], Y["Y_bottom"],
                                      Y.get("y_interface", 0.5))
        elif Y["profile"] == "ramp":
            Y = ramp_modulus(Y["Y_top"], Y["Y_bottom"], Y.get("zeta", 0.05),
                             Y.get("y_interface", 0.5))
        else:
            raise UsageError(f"unknown modulus profile {Y['profile']!r}")
    return Material.isotropic(Y, spec["nu"])


def get_basis(mesh, spec: dict, use_cache: bool = True) -> BasisSet:
    """The basis ``spec`` names, with its ``verify_basis`` report: an
    eigenbasis goes through the cache, an airy basis is built every call."""
    backend = spec["backend"]
    n_modes = int(spec["n_modes"])
    wavenumbers = list(spec.get("wavenumbers", [0]))

    def build():
        if backend == "airy":
            basis = airy_bump_basis(mesh, n_modes)
        elif isinstance(mesh, RadialMesh):
            basis = solve_basis_annulus(mesh, wavenumbers, n_modes)
        else:
            basis = solve_basis_rectangle(mesh, n_modes)
        basis.report = verify_basis(basis)
        return basis

    if backend == "airy":
        return build()
    key = {"mesh": mesh.mesh_hash(), "backend": backend, "n_modes": n_modes}
    if isinstance(mesh, RadialMesh):
        # the annulus build reads the wavenumbers
        key["wavenumbers"] = wavenumbers
    return get_or_build("basis-{}.sbbasis", key, build, save_basis,
                        lambda path, key: load_basis(path, mesh, key),
                        use_cache)


def _build_particular(mesh, spec: dict, use_cache: bool = True):
    recipe = spec["recipe"]
    if recipe == "axisym_airy":
        return axisym_airy_particular(mesh, spec.get("p_in", 1.0),
                                      spec.get("p_out", 0.0))
    if recipe == "band":
        return band_pressure_particular(mesh, spec.get("p", 1.0),
                                        spec.get("profile", "discontinuous"))
    if recipe == "uniform_pressure":
        return uniform_pressure_particular(mesh, spec.get("p", 1.0))
    if recipe == "gravity":
        return gravity_particular(mesh, spec.get("rho1", 1.0),
                                  spec.get("rho2", 3.0), spec.get("g", 1.0))
    if recipe == "annulus_m1":
        return annulus_m1_particular(mesh)
    if recipe == "oracle":
        # the loading comes from a named recipe; the field is the reference
        # solution for a (generally different) stand-in material
        inner = _build_particular(mesh, spec["loading"])
        orc = get_oracle(mesh, {"kind": "fem"}, inner.loading,
                         spec["material"], loading_id=spec["loading"],
                         use_cache=use_cache)
        # discrete reference field: equilibrium holds to discretization
        # accuracy only, so it is gated at ``tol``, which the report states
        return oracle_as_particular(orc.field, inner.loading,
                                    tol=spec.get("tol", 0.05))
    raise UsageError(f"unknown particular recipe {recipe!r}")


def get_oracle(mesh, spec: dict, loading, material_spec: dict,
               loading_id=None, use_cache: bool = True):
    """Build (or load from the cache) the reference solution.

    ``material_spec`` is the config's material block. The FEM reference is
    cached under a key of the mesh, the refinement and the material and
    loading specs.
    """
    kind = spec.get("kind", "none")
    if kind == "none":
        return None
    material = _build_material(material_spec)
    if kind == "lame":
        return lame_oracle(mesh, spec.get("p", 1.0))
    if kind == "ode_bvp":
        return annulus_m1_oracle(mesh, material)
    if kind == "fem":
        refine = int(spec.get("refine", 2))
        key = {"mesh": mesh.mesh_hash(), "kind": "fem", "refine": refine,
               "material": material_spec, "loading": loading_id}

        def build():
            return displacement_fem_oracle(mesh, loading, material,
                                           refine=refine).field

        def save(field, path, key):
            write_tagged(path, _ORACLE_FORMAT, {"key": key},
                         {"components": field.components})

        def load(path, key):
            _, arrays = read_tagged(path, _ORACLE_FORMAT, key)
            return SymTensorField2(mesh, arrays["components"])

        field = get_or_build("oracle-{}.sboracle", key, build, save, load,
                             use_cache)
        return OracleSolution(field, loading, "displacement-fem",
                              {"refine": refine})
    raise UsageError(f"unknown oracle kind {kind!r}")


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

def fit_slope(ns, values, window) -> float:
    """Least-squares slope of log(values) vs log(ns) inside the window."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (ns >= lo) & (ns <= hi) & (ns > 0)
    if mask.sum() < 5:
        raise ExperimentError(
            f"slope window [{lo}, {hi}] holds {int(mask.sum())} points; need >= 5")
    v = values[mask]
    if np.any(v <= 0):
        raise ExperimentError("slope fit requires positive values")
    x = np.log(ns[mask])
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.log(v), rcond=None)
    return float(sol[0])


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _solve(principle, ps, basis, material, N, ns):
    if principle == "SE":
        return solve_strain_energy(ps.field, basis, material, N, ns=ns)
    if principle == "PT":
        return solve_planar_trace(ps.field, basis, N, ns=ns)
    if principle == "PT_body":
        if ps.loading.body_potential is None or material.nu is None:
            raise UsageError("PT_body needs an isotropic material and a "
                             "particular recipe with a body-force potential")
        return solve_planar_trace_body(ps.field, basis,
                                       ps.loading.body_potential,
                                       material.nu, N, ns=ns)
    raise UsageError(f"unknown principle {principle!r}")


def _convergence_csv(path, ns, objective, energy, errors):
    errors = [_FMT % e for e in errors] if errors is not None else [""] * len(ns)
    rows = (f"{int(n)},{_FMT % o},{_FMT % e},{x}\n"
            for n, o, e, x in zip(ns, objective, energy, errors))
    atomic_write_text(path, "N,objective,energy,E_N\n" + "".join(rows))


def _coeffs_csv(path, results):
    buf = io.StringIO()
    names = list(results)
    buf.write("i," + ",".join(f"a_{p}" for p in names) + "\n")
    nmax = max(len(results[p].coeffs) for p in names)
    for i in range(nmax):
        row = [str(i + 1)]
        for p in names:
            a = results[p].coeffs
            row.append(_FMT % a[i] if i < len(a) else "")
        buf.write(",".join(row) + "\n")
    atomic_write_text(path, buf.getvalue())


def _run_checks(cfg, ctx) -> dict:
    """Evaluate the acceptance checks bound to the preset."""
    out = {}
    for name, spec in cfg.checks.items():
        try:
            out[name] = _one_check(name, spec, ctx)
        except Exception as exc:  # noqa: BLE001 - report, never crash the run
            out[name] = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
    return out


def _series(ctx, principle):
    res = ctx["results"][principle]
    d = res.diagnostics
    return np.asarray(d["n"]), d


def _one_check(name, spec, ctx):
    kind = spec["kind"]
    primary = ctx["primary"]
    if kind == "energy_rel_excess":
        ns, d = _series(ctx, spec.get("principle", primary))
        at = int(spec["at"])
        i = int(np.where(ns == at)[0][0])
        etrue = ctx["true_energy"]
        val = (d["energy"][i] - etrue) / etrue
        return {"passed": bool(abs(val) <= spec["tol"]), "value": val,
                "tol": spec["tol"], "at": at}
    if kind == "monotone_energy":
        _, d = _series(ctx, spec.get("principle", primary))
        dec = np.diff(d["energy"])
        val = float(dec.max()) if len(dec) else 0.0
        return {"passed": bool(val <= 1e-12), "max_increase": val}
    if kind == "slope":
        ns, d = _series(ctx, spec.get("principle", primary))
        window = spec.get("window", ctx["cfg"].slope_window)
        s = fit_slope(ns, d["E_N"], window)
        lo, hi = spec["range"]
        return {"passed": bool(lo <= s <= hi), "value": s, "range": [lo, hi],
                "window": list(window)}
    if kind == "error_at":
        ns, d = _series(ctx, spec.get("principle", primary))
        i = int(np.where(ns == int(spec["at"]))[0][0])
        val = float(d["E_N"][i])
        lo, hi = spec["range"]
        return {"passed": bool(lo <= val <= hi), "value": val,
                "range": [lo, hi], "at": int(spec["at"])}
    if kind == "plateau":
        ns, d = _series(ctx, spec.get("principle", primary))
        i0 = int(np.where(ns == int(spec["from"]))[0][0])
        i1 = int(np.where(ns == int(spec["to"]))[0][0])
        ratio = float(d["E_N"][i1] / d["E_N"][i0])
        return {"passed": bool(ratio >= spec["min_ratio"]), "value": ratio,
                "min_ratio": spec["min_ratio"]}
    if kind == "se_below_plateau":
        _, dse = _series(ctx, "SE")
        _, dpt = _series(ctx, "PT")
        val = float(dse["E_N"][-1])
        bound = spec["factor"] * float(dpt["E_N"][-1])
        return {"passed": bool(val <= bound), "value": val, "bound": bound}
    if kind == "cesaro_magnitude":
        F = ctx["cesaro"][spec.get("principle", primary)]
        target = spec["target"]
        val = abs(F[1])
        rel = abs(val - target) / target
        return {"passed": bool(rel <= spec["rel_tol"]), "F": list(F),
                "target": target, "rel_dev": rel}
    if kind == "cesaro_zero":
        F = ctx["cesaro"][spec.get("principle", primary)]
        val = max(abs(F[0]), abs(F[1]))
        return {"passed": bool(val <= spec["tol"]), "F": list(F),
                "tol": spec["tol"]}
    if kind == "airy_span_energy":
        val = ctx["airy_energy_rel_dev"]
        return {"passed": bool(abs(val) <= spec["tol"]), "value": val,
                "tol": spec["tol"]}
    raise UsageError(f"unknown check kind {kind!r}")


@_one_blas_thread()
def run_experiment(cfg: ExperimentConfig, out_dir: str,
                   full: bool = False, use_cache: bool = True) -> dict:
    """Run one experiment; write artifacts into out_dir; return the report.
    The run holds both OpenBLAS libraries at one thread (``_one_blas_thread``),
    so its artifacts are the same bytes whatever ``OPENBLAS_NUM_THREADS``
    says."""
    if full and cfg.full:
        cfg = cfg.at_full_scale()
    os.makedirs(out_dir, exist_ok=True)

    domain = _build_domain(cfg.domain)
    mesh = _build_mesh(domain, cfg.mesh)
    material = _build_material(cfg.material)
    basis = get_basis(mesh, cfg.basis, use_cache=use_cache)
    ps = _build_particular(mesh, cfg.particular, use_cache)
    oracle = get_oracle(mesh, cfg.oracle, ps.loading, cfg.material,
                        loading_id=cfg.particular, use_cache=use_cache)
    oracle_field = oracle.field if oracle is not None else None

    ns = cfg.ns
    results = {}
    for principle in cfg.principles:
        res = _solve(principle, ps, basis, material, cfg.N, ns)
        d = res.diagnostics
        # the SE objective is the energy series already
        d["energy"] = (d["objective"] if principle == "SE" else
                       energy_series(res, ps.field, basis, material))
        if oracle_field is not None:
            d["E_N"] = error_series(res, ps.field, basis, material,
                                    oracle_field)
        results[principle] = res

    primary = cfg.principles[0]
    for principle, res in results.items():
        d = res.diagnostics
        names = ["convergence.csv"] if principle == primary else []
        names += [f"convergence_{principle}.csv"] if len(results) > 1 else []
        for name in names:
            _convergence_csv(os.path.join(out_dir, name), d["n"],
                             d["objective"], d["energy"], d.get("E_N"))

    prim = results[primary]
    dump_field_csv(prim.sigma_N, os.path.join(out_dir, "sigma_N.csv"))
    dump_field_csv(ps.field, os.path.join(out_dir, "sigma_p.csv"))
    dump_field_csv(prim.sigma_N - ps.field, os.path.join(out_dir, "sigma_h.csv"))
    _coeffs_csv(os.path.join(out_dir, "coeffs.csv"), results)

    ctx = {"cfg": cfg, "results": results, "primary": primary,
           "true_energy": (strain_energy(material, oracle_field)
                           if oracle_field is not None else None)}

    cesaro = {}
    if cfg.cesaro is not None:
        radius = cfg.cesaro.get("radius", 0.2)
        for principle, res in results.items():
            cesaro[principle] = cesaro_diagnostic(res.sigma_N, radius,
                                                  material)
    ctx["cesaro"] = cesaro

    airy_dev = None
    if cfg.airy_compare:
        n_airy = int(cfg.airy_compare)
        abasis = airy_bump_basis(mesh, n_airy)
        ea, ee = (solve_strain_energy(ps.field, b, material, n, ns=[n])
                  .diagnostics["objective"][-1]
                  for b in (abasis, basis) for n in [min(n_airy, len(b))])
        airy_dev = float((ea - ee) / ee)
    ctx["airy_energy_rel_dev"] = airy_dev

    checks = _run_checks(cfg, ctx)

    slopes = {}
    if cfg.slope_window is not None and oracle_field is not None:
        for principle, res in results.items():
            d = res.diagnostics
            try:
                slopes[principle] = fit_slope(d["n"], d["E_N"],
                                              cfg.slope_window)
            except ExperimentError as exc:
                slopes[principle] = f"unavailable: {exc}"

    eq = equilibrium_residual(prim.sigma_N, ps.loading)
    report = {
        "name": cfg.name,
        "config": cfg.to_dict(),
        "basis": {
            "provenance_hash": digest(basis.provenance),
            "backend": basis.backend,
            "mesh_hash": mesh.mesh_hash(),
            "n_modes": len(basis),
            "verified": basis.report.passed,
            "verify_failures": basis.report.failures,
        },
        "tolerances": {
            "basis_l2": L2_TOL, "basis_h1": H1_TOL,
            "particular_residual": float(ps.tolerance),
            "div_tolerance_rule": div_tolerance_rule(),
        },
        "slope_window": cfg.slope_window,
        "slopes": slopes,
        "true_energy": ctx["true_energy"],
        "final_energy": {p: float(r.diagnostics["energy"][-1])
                         for p, r in results.items()},
        "final_error": {p: float(r.diagnostics["E_N"][-1])
                        for p, r in results.items()
                        if "E_N" in r.diagnostics},
        "cesaro": {p: list(v) for p, v in cesaro.items()},
        "airy_energy_rel_dev": airy_dev,
        "sigma_N_equilibrium": {"interior": eq.interior_norm,
                                "boundary_mismatch": eq.boundary_mismatch},
        "checks": checks,
        "all_checks_passed": all(c.get("passed") for c in checks.values()),
    }
    atomic_write_text(os.path.join(out_dir, "report.json"),
                       json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
