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

Eigenbases and reference fields are cached (``_cache``). All outputs are
written atomically and contain no timestamps, so a rerun with the same
configuration is byte-identical.
"""
from __future__ import annotations

import io
import json
import os
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
import jsonschema

from ._cache import atomic_write_text, digest, get_or_build, read_tagged, \
    write_tagged
from .basis import (H1_TOL, L2_TOL, BasisSet, _blas_threads, airy_bump_basis,
                    div_tolerance_rule, load_basis, save_basis,
                    solve_basis_annulus, solve_basis_rectangle, verify_basis)
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


class ExperimentError(RuntimeError):
    pass


class UsageError(ValueError):
    """Bad invocation (unknown preset, malformed config); CLI exit code 2."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _numbers(*keys) -> dict:
    """Schema properties: each key a number."""
    return {k: {"type": "number"} for k in keys}


# the fields each check kind reads from its own entry
_CHECK_FIELDS = {
    "energy_rel_excess": ["at", "tol"], "monotone_energy": [],
    "slope": ["range"], "error_at": ["at", "range"],
    "plateau": ["from", "to", "min_ratio"], "se_below_plateau": ["factor"],
    "cesaro_magnitude": ["target", "rel_tol"], "cesaro_zero": ["tol"],
    "airy_span_energy": ["tol"]}
# the type of each field a check may carry
_CHECK_FIELD_TYPES = {
    **{k: {"type": "integer"} for k in ("at", "from", "to")},
    **_numbers("tol", "factor", "min_ratio", "target", "rel_tol"),
    "range": {"type": "array", "minItems": 2, "maxItems": 2,
              "items": {"type": "number"}},
    "window": {"type": "array", "minItems": 2, "maxItems": 2,
               "items": {"type": "integer"}},
    "principle": {"$ref": "#/properties/principles/items"}}
# the check kinds that read the reference: its energy or E_N
_REFERENCE_CHECKS = {"energy_rel_excess", "slope", "error_at", "plateau",
                     "se_below_plateau"}


CONFIG_SCHEMA = {
    "type": "object",
    "required": ["name", "domain", "mesh", "material", "basis", "particular",
                 "principles", "N"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "domain": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["rectangle", "annulus"]},
                **_numbers("Lx", "Ly", "r_a", "r_b")},
        },
        "mesh": {
            "type": "object",
            "properties": {
                "nx": {"type": "integer"}, "ny": {"type": "integer"},
                "nel": {"type": "integer"},
                "feature_x": {"type": "array", "items": {"type": "number"}},
                "feature_y": {"type": "array", "items": {"type": "number"}},
            },
        },
        "material": {
            "type": "object", "required": ["kind"],
            "properties": {
                "kind": {"enum": ["isotropic", "orthotropic"]},
                "Y": {"type": ["number", "object"],
                      "if": {"type": "object"}, "then": {
                          "required": ["profile", "Y_top", "Y_bottom"],
                          "properties": _numbers("Y_top", "Y_bottom",
                                                 "y_interface", "zeta")}},
                **_numbers("nu", "Y_x", "Y_y", "nu_xy", "G_xy")},
            "allOf": [
                {"if": {"properties": {"kind": {"const": "isotropic"}}},
                 "then": {"required": ["Y", "nu"]}},
                {"if": {"properties": {"kind": {"const": "orthotropic"}}},
                 "then": {"required": ["Y_x", "Y_y", "nu_xy", "G_xy"]}},
            ],
        },
        "basis": {
            "type": "object",
            "required": ["backend", "n_modes"],
            "properties": {
                "backend": {"enum": ["eigen", "airy"]},
                "n_modes": {"type": "integer", "minimum": 1},
                "wavenumbers": {"type": "array", "minItems": 1, "items": {
                    "type": "integer", "minimum": 0}},
            },
        },
        "particular": {
            "type": "object", "required": ["recipe"],
            "properties": {"recipe": {"enum": [
                               "axisym_airy", "band", "uniform_pressure",
                               "gravity", "annulus_m1", "oracle"]},
                           "profile": {"enum": ["discontinuous", "quartic"]},
                           **_numbers("p", "p_in", "p_out", "rho1", "rho2",
                                      "g", "tol")},
            "if": {"properties": {"recipe": {"const": "oracle"}}},
            "then": {"required": ["material", "loading"], "properties": {
                "material": {"$ref": "#/properties/material"},
                "loading": {"$ref": "#/properties/particular"}}},
        },
        "principles": {
            "type": "array", "minItems": 1,
            "items": {"enum": ["SE", "PT", "PT_body"]},
        },
        "N": {"type": "integer", "minimum": 0},
        "ns": {"type": ["array", "null"], "items": {"type": "integer"}},
        "oracle": {"type": "object", "properties": {
            "kind": {"enum": ["none", "lame", "ode_bvp", "fem"]},
            "refine": {"type": "integer", "minimum": 1}, **_numbers("p")}},
        "slope_window": {
            "type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "integer"},
        },
        "cesaro": {"type": "object", "properties": _numbers("radius")},
        "airy_compare": {"type": ["integer", "null"], "minimum": 0},
        "checks": {"type": "object", "additionalProperties": {
            "type": "object", "required": ["kind"],
            "properties": {"kind": {"enum": list(_CHECK_FIELDS)},
                           **_CHECK_FIELD_TYPES},
            "allOf": [{"if": {"required": ["kind"],
                              "properties": {"kind": {"const": kind}}},
                       "then": {"required": fields}}
                      for kind, fields in _CHECK_FIELDS.items() if fields]}},
        "full": {"type": "object"},
    },
}


# built once per process; the schema itself is checked by the test suite,
# not on every load
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(
    CONFIG_SCHEMA)

# the domain kind that a particular recipe, a reference kind, the airy
# backend and airy_compare (which builds an airy basis) work on; the rest
# work on both
_DOMAIN_KIND = {
    ("recipe", "band"): "rectangle", ("recipe", "gravity"): "rectangle",
    ("recipe", "uniform_pressure"): "rectangle",
    ("recipe", "oracle"): "rectangle", ("oracle", "fem"): "rectangle",
    ("backend", "airy"): "rectangle", ("airy_compare", True): "rectangle",
    ("recipe", "axisym_airy"): "annulus", ("recipe", "annulus_m1"): "annulus",
    ("oracle", "lame"): "annulus", ("oracle", "ode_bvp"): "annulus",
}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment."""

    name: str
    domain: dict
    mesh: dict
    material: dict
    basis: dict
    particular: dict
    principles: list
    N: int
    ns: list | None = None
    oracle: dict = dc_field(default_factory=lambda: {"kind": "none"})
    slope_window: list | None = None
    cesaro: dict | None = None
    airy_compare: int | None = None
    checks: dict = dc_field(default_factory=dict)
    full: dict = dc_field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        error = jsonschema.exceptions.best_match(
            _CONFIG_VALIDATOR.iter_errors(raw))
        if error is not None:
            raise UsageError(f"invalid experiment config: {error.message}")
        cfg = ExperimentConfig(**raw)
        have = cfg.domain["kind"]
        part = cfg.particular
        for field, value in (
                ("recipe", part["recipe"]),
                ("recipe", part["recipe"] == "oracle"
                 and part["loading"]["recipe"]),
                ("oracle", cfg.oracle.get("kind")),
                ("backend", cfg.basis["backend"]),
                ("airy_compare", bool(cfg.airy_compare))):
            need = _DOMAIN_KIND.get((field, value), have)
            if need != have:
                what = field if value is True else f"{field} {value!r}"
                raise UsageError(f"{what} works on {need} domains only")
        for name, check in cfg.checks.items():
            kind = check["kind"]
            reads = ({"PT", "SE"} if kind == "se_below_plateau"
                     else {check.get("principle", cfg.principles[0])})
            for what, missing in (
                    (" and ".join(sorted(reads)) + " among the principles",
                     not reads <= set(cfg.principles)),
                    ("a reference", kind in _REFERENCE_CHECKS
                     and cfg.oracle.get("kind", "none") == "none"),
                    ("a cesaro block",
                     kind.startswith("cesaro_") and cfg.cesaro is None),
                    ("airy_compare",
                     kind == "airy_span_energy" and not cfg.airy_compare),
                    ("a window or slope_window", kind == "slope" and
                     check.get("window", cfg.slope_window) is None)):
                if missing:
                    raise UsageError(f"check {name!r} ({kind}) needs {what}")
        if cfg.ns is not None:
            ns = list(cfg.ns)
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise UsageError("mode schedule must be strictly increasing")
            if not ns or ns[0] < 0 or ns[-1] > cfg.N:
                raise UsageError("mode schedule must be non-empty and lie "
                                 f"in [0, N={cfg.N}]")
        return cfg

    def to_dict(self) -> dict:
        """The config as ``from_dict`` accepts it: unset fields are left out."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def at_full_scale(self) -> "ExperimentConfig":
        raw = self.to_dict()
        raw.update({k: v for k, v in self.full.items()})
        raw["full"] = {}
        return ExperimentConfig.from_dict(raw)


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
        # the annulus build reads the wavenumbers, and its dense solve's
        # bytes depend on the BLAS thread counts
        key.update(wavenumbers=wavenumbers, blas_threads=_blas_threads())
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


def run_experiment(cfg: ExperimentConfig, out_dir: str,
                   full: bool = False, use_cache: bool = True) -> dict:
    """Run one experiment; write artifacts into out_dir; return the report."""
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
        d["energy"] = energy_series(res, ps.field, basis, material)
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


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _square48(feature_y=(0.5,)):
    return {"domain": {"kind": "rectangle", "Lx": 1.0, "Ly": 1.0},
            "mesh": {"nx": 48, "ny": 48, "feature_x": [0.25, 0.75],
                     "feature_y": sorted(feature_y)}}


_ISO = {"kind": "isotropic", "Y": 1.0, "nu": 0.33}


def _presets() -> dict:
    p = {}
    p["example1"] = {
        "name": "example1",
        "domain": {"kind": "annulus", "r_a": 0.1, "r_b": 0.3},
        "mesh": {"nel": 256},
        "material": _ISO,
        "basis": {"backend": "eigen", "n_modes": 120, "wavenumbers": [0]},
        "particular": {"recipe": "axisym_airy", "p_in": 1.0},
        "principles": ["PT"],
        "N": 120,
        "oracle": {"kind": "lame", "p": 1.0},
        "slope_window": [20, 120],
        "checks": {
            "energy_within_0p01pct_at_10": {
                "kind": "energy_rel_excess", "at": 10, "tol": 1e-4},
            "monotone_energy": {"kind": "monotone_energy"},
        },
        "full": {
            "mesh": {"nel": 1024},
            "basis": {"backend": "eigen", "n_modes": 500, "wavenumbers": [0]},
            "N": 500,
            "slope_window": [100, 500],
            "checks": {
                "energy_within_0p01pct_at_10": {
                    "kind": "energy_rel_excess", "at": 10, "tol": 1e-4},
                "monotone_energy": {"kind": "monotone_energy"},
                "slope": {"kind": "slope", "range": [-1.8, -1.2]},
            },
        },
    }
    p["example2_dp"] = {
        "name": "example2_dp",
        **_square48(),
        "material": _ISO,
        "basis": {"backend": "eigen", "n_modes": 120},
        "particular": {"recipe": "band", "p": 1.0, "profile": "discontinuous"},
        "principles": ["PT"],
        "N": 120,
        "oracle": {"kind": "fem", "refine": 2},
        "slope_window": [10, 60],
        "checks": {
            "slope": {"kind": "slope", "range": [-0.37, -0.07]},
        },
    }
    p["example2_cp"] = {
        "name": "example2_cp",
        **_square48(),
        "material": _ISO,
        "basis": {"backend": "eigen", "n_modes": 120},
        "particular": {"recipe": "band", "p": 1.0, "profile": "quartic"},
        "principles": ["PT"],
        "N": 120,
        "oracle": {"kind": "fem", "refine": 2},
        "slope_window": [10, 60],
        "checks": {
            "slope": {"kind": "slope", "range": [-0.92, -0.52]},
            "energy_within_1pct_at_20": {
                "kind": "energy_rel_excess", "at": 20, "tol": 0.01},
        },
    }
    p["example4"] = {
        "name": "example4",
        **_square48(),
        "material": _ISO,
        "basis": {"backend": "eigen", "n_modes": 120},
        "particular": {"recipe": "gravity", "rho1": 1.0, "rho2": 3.0, "g": 1.0},
        "principles": ["PT_body"],
        "N": 120,
        "ns": list(range(0, 121)),
        "oracle": {"kind": "fem", "refine": 2},
        "slope_window": [10, 60],
        "checks": {
            "error_at_0": {"kind": "error_at", "at": 0,
                           "range": [0.03, 0.05]},
            "slope": {"kind": "slope", "range": [-0.83, -0.33]},
        },
    }
    p["example5"] = {
        "name": "example5",
        "domain": {"kind": "annulus", "r_a": 0.1, "r_b": 0.3},
        "mesh": {"nel": 128},
        "material": _ISO,
        "basis": {"backend": "eigen", "n_modes": 400, "wavenumbers": [1]},
        "particular": {"recipe": "annulus_m1"},
        "principles": ["PT", "SE"],
        "N": 200,
        "oracle": {"kind": "ode_bvp"},
        "cesaro": {"radius": 0.2},
        "checks": {
            "pt_plateau": {"kind": "plateau", "principle": "PT", "from": 40,
                           "to": 200, "min_ratio": 0.8},
            "se_below_plateau": {"kind": "se_below_plateau", "factor": 0.1},
            "pt_cesaro_force": {"kind": "cesaro_magnitude", "principle": "PT",
                                "target": 0.4178318229274425,
                                "rel_tol": 0.05},
            "se_cesaro_zero": {"kind": "cesaro_zero", "principle": "SE",
                               "tol": 1e-3},
        },
    }
    p["example7_dc"] = {
        "name": "example7_dc",
        **_square48(),
        "material": {"kind": "isotropic", "nu": 0.33,
                     "Y": {"profile": "discontinuous", "Y_top": 1.0,
                           "Y_bottom": 3.0}},
        "basis": {"backend": "eigen", "n_modes": 120},
        "particular": {"recipe": "uniform_pressure", "p": 1.0},
        "principles": ["SE"],
        "N": 120,
        "oracle": {"kind": "fem", "refine": 2},
        "slope_window": [10, 60],
        "checks": {
            "slope": {"kind": "slope", "range": [-0.42, -0.02]},
        },
    }
    p["example7_ramp"] = {
        "name": "example7_ramp",
        **_square48(feature_y=(0.45, 0.5, 0.55)),
        "material": {"kind": "isotropic", "nu": 0.33,
                     "Y": {"profile": "ramp", "Y_top": 1.0, "Y_bottom": 3.0,
                           "zeta": 0.05}},
        "basis": {"backend": "eigen", "n_modes": 120},
        "particular": {"recipe": "uniform_pressure", "p": 1.0},
        "principles": ["SE"],
        "N": 120,
        "oracle": {"kind": "fem", "refine": 2},
        "slope_window": [10, 60],
        "checks": {
            "slope": {"kind": "slope", "range": [-0.62, -0.22]},
            "energy_within_0p1pct_at_40": {
                "kind": "energy_rel_excess", "at": 40, "tol": 1e-3},
        },
    }
    p["example8_square_ortho"] = {
        "name": "example8_square_ortho",
        **_square48(),
        "material": {"kind": "orthotropic", "Y_x": 1.0, "Y_y": 2.0,
                     "nu_xy": 0.33, "G_xy": 1.0},
        "basis": {"backend": "eigen", "n_modes": 120},
        "particular": {"recipe": "oracle", "material": _ISO,
                       "loading": {"recipe": "band", "p": 1.0,
                                   "profile": "quartic"}},
        "principles": ["SE"],
        "N": 120,
        "oracle": {"kind": "fem", "refine": 2},
        "slope_window": [10, 60],
        "airy_compare": 40,
        "checks": {
            "airy_span_energy": {"kind": "airy_span_energy", "tol": 0.01},
        },
    }
    return p


PRESET_NAMES = ("example1", "example2_dp", "example2_cp", "example4",
                "example5", "example7_dc", "example7_ramp",
                "example8_square_ortho")


def get_preset(name: str) -> ExperimentConfig:
    presets = _presets()
    if name not in presets:
        raise UsageError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return ExperimentConfig.from_dict(presets[name])


def list_presets(machine: bool = False) -> str:
    if machine:
        return "\n".join(PRESET_NAMES)
    return "available presets: " + ", ".join(PRESET_NAMES)
