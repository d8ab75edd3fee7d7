"""Experiment configs: the schema, its checks and the built-in presets.

This module reads and checks configs only; it imports neither numpy, scipy
nor any package module that does, so the CLI verbs that build nothing
(``preset list``, ``preset dump``, ``--help`` and any config refused as a
usage error) run on the standard library and jsonschema alone.

It also defines the two bases of the package's errors, which give the CLI
its exit codes: a ``UsageError`` (a bad invocation, config, material or
mesh) exits 2, a ``NumericFailure`` (a solve, basis, reference or
particular stress that fails numerically) exits 1.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field

import jsonschema


class UsageError(ValueError):
    """Bad invocation (unknown preset, malformed config); CLI exit code 2."""


class NumericFailure(Exception):
    """A computation that failed numerically; CLI exit code 1."""


# ---------------------------------------------------------------------------
# Schema
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
