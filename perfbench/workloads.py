"""Workloads of the stressbasis benchmark and the correctness record.

Each workload is a list of preset runs, made serially in one iteration. A run
names a preset and the scale it runs at; ``make_config`` turns the preset's
``preset dump`` output into the ``--config`` file the run is given.

The scales are smaller than the presets' desk scale so that every benchmark
run (set-up plus measurement) stays well under a minute on 2 vCPUs:

* ``rect_cold``: example7_dc on a 16x16 mesh, 60 modes, empty cache. The
  ARPACK shift-invert eigensolve dominates, as it does at 48x48.
* ``rect_warm``: the five presets sharing the feature-line square mesh, at
  36x36 with 39 modes, against a cache filled in set-up. 36x36 is the
  coarsest grid on which example8's FEM-built particular stress passes its
  own equilibrium gate (5e-2 relative); at 32x32 the run is refused.
* ``annulus_cold``: example1's full-scale recipe at nel 384 with 200 modes
  (the dense null-space SVD dominates, as at nel 1024), then example5 at desk
  scale, with an empty cache.

Every mode count closes a degenerate eigenvalue cluster (on the 36x36 square
modes 40 and 41 are a pair, hence 39), so the values at N do not depend on
how a solver orients the modes inside a cluster; record_reference.py checks
this.
"""
from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field

# relative tolerance for scale-free report values. The known warm-cache
# defect (a reloaded airy basis is a nodal interpolant of the fresh one)
# moves airy_energy_rel_dev by about 1e-3 relative, so it always shows
VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-15

# the seed scales each load by 2**j: binary floating point scales every
# output exactly, so scale-free values match the record to the last bit
LOAD_EXPONENTS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Run:
    preset: str
    full: bool = False          # merge the preset's "full" block first
    mesh: dict = field(default_factory=dict)
    n_modes: int | None = None
    N: int | None = None            # default: the preset's N, capped at n_modes
    slope_window: tuple | None = None

    @property
    def key(self) -> str:
        return self.preset + ("_full" if self.full else "")


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    warm: bool
    why: str


_SQ36 = {"nx": 36, "ny": 36}
_WARM_PRESETS = ("example2_dp", "example2_cp", "example4", "example7_dc",
                 "example8_square_ortho")

WORKLOADS = {
    "rect_cold": Workload(
        "rect_cold",
        (Run("example7_dc", mesh={"nx": 16, "ny": 16}, n_modes=60),),
        warm=False,
        why="first run on a new rectangle mesh: eigensolve, FEM oracle, "
            "cache write"),
    "rect_warm": Workload(
        "rect_warm",
        tuple(Run(p, mesh=_SQ36, n_modes=39) for p in _WARM_PRESETS),
        warm=True,
        why="five presets on one cached basis: coefficient solves, "
            "diagnostics, artifact I/O, cache reads"),
    "annulus_cold": Workload(
        "annulus_cold",
        (Run("example1", full=True, mesh={"nel": 384}, n_modes=200,
             slope_window=(40, 200)),
         Run("example5")),
        warm=False,
        why="annulus backend on an empty cache: null-space SVD, dense eigh, "
            "orthonormalize"),
}

# seconds-long variants for the benchmark's own tests. example8 is left out:
# its FEM-built particular stress is refused below a 36x36 grid.
SMOKE = {
    "rect_cold": Workload(
        "rect_cold", (Run("example7_dc", mesh={"nx": 8, "ny": 8},
                          n_modes=12),), False, "smoke"),
    "rect_warm": Workload(
        "rect_warm", tuple(Run(p, mesh={"nx": 8, "ny": 8}, n_modes=12)
                           for p in _WARM_PRESETS[:4]), True, "smoke"),
    "annulus_cold": Workload(
        "annulus_cold",
        (Run("example1", full=True, mesh={"nel": 48}, n_modes=30,
             slope_window=(6, 30)),
         Run("example5", mesh={"nel": 32}, n_modes=80, N=40)), False,
        "smoke"),
}


# ---------------------------------------------------------------------------
# Config generation
# ---------------------------------------------------------------------------

def _load_slot(cfg: dict):
    """(dict, key) holding the load magnitude of a config, or None."""
    part = cfg["particular"]
    if part["recipe"] == "oracle":
        part = part["loading"]
    key = {"band": "p", "uniform_pressure": "p", "gravity": "g",
           "axisym_airy": "p_in"}.get(part["recipe"])
    return (part, key) if key else None


def load_factors(workload: Workload, seed: int) -> list:
    """One load factor per run (unused by recipes without a magnitude)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [2.0 ** rng.choice(LOAD_EXPONENTS) for _ in workload.runs]


def make_config(dumped: dict, run: Run, factor: float) -> dict:
    """A valid ``--config`` from ``preset dump`` output, at the run's scale.

    ``preset dump`` writes null for unset optional fields, which the config
    schema rejects, so those fields are dropped here.
    """
    cfg = {k: v for k, v in dumped.items() if v is not None}
    if run.full:
        cfg.update(cfg.get("full", {}))
        cfg["full"] = {}
    cfg["mesh"] = {**cfg["mesh"], **run.mesh}
    if run.n_modes is not None:
        cfg["basis"] = {**cfg["basis"], "n_modes": run.n_modes}
        cfg["N"] = run.N if run.N is not None else min(cfg["N"], run.n_modes)
        if "ns" in cfg:
            cfg["ns"] = [n for n in cfg["ns"] if n <= cfg["N"]]
    if run.slope_window is not None:
        cfg["slope_window"] = list(run.slope_window)
    slot = _load_slot(cfg)
    if slot is not None:
        part, key = slot
        part[key] = part.get(key, 1.0) * factor
        if key == "p_in" and cfg.get("oracle", {}).get("kind") == "lame":
            cfg["oracle"] = {**cfg["oracle"],
                             "p": cfg["oracle"].get("p", 1.0) * factor}
    return cfg


# ---------------------------------------------------------------------------
# Output extraction and comparison with the record
# ---------------------------------------------------------------------------

def extract(out_dir: str, closing) -> dict:
    """Check verdicts and scale-free values of one run's artifacts.

    Values are taken only at mode counts in ``closing`` (counts that close a
    degenerate eigenvalue cluster): E_N, and the strain energy over the
    reference energy, per principle; plus airy_energy_rel_dev.
    """
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)
    closing = set(closing)
    principles = report["config"]["principles"]
    true_energy = report.get("true_energy")
    values = {}
    for p in principles:
        name = f"convergence_{p}.csv" if len(principles) > 1 \
            else "convergence.csv"
        with open(os.path.join(out_dir, name)) as f:
            for row in csv.DictReader(f):
                n = int(row["N"])
                if n not in closing:
                    continue
                if row["E_N"]:
                    values[f"{p}.E_N@{n}"] = float(row["E_N"])
                if true_energy:
                    values[f"{p}.energy_rel@{n}"] = \
                        float(row["energy"]) / true_energy
    if report.get("airy_energy_rel_dev") is not None:
        values["airy_energy_rel_dev"] = report["airy_energy_rel_dev"]
    checks = {k: bool(v.get("passed")) for k, v in report["checks"].items()}
    return {"checks": checks, "values": values,
            "basis_verified": bool(report["basis"]["verified"])}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * abs(b) + VALUE_ATOL


def compare(observed: dict, expected: dict) -> list:
    """Mismatches between one run's extract and its record, as
    (key, observed, expected) tuples."""
    bad = []
    for k, want in expected["checks"].items():
        got = observed["checks"].get(k)
        if got != want:
            bad.append((f"check:{k}", got, want))
    if observed["basis_verified"] != expected["basis_verified"]:
        bad.append(("basis_verified", observed["basis_verified"],
                     expected["basis_verified"]))
    for k, want in expected["values"].items():
        got = observed["values"].get(k)
        if got is None or not _close(got, want):
            bad.append((k, got, want))
    return bad


def known_defect(reference_run: dict, mismatches: list) -> bool:
    """True when every mismatch is a recorded warm-cache defect value."""
    known = reference_run.get("warm_defects", {})
    return bool(mismatches) and all(
        k in known and got is not None and _close(got, known[k]["warm"])
        for k, got, _ in mismatches)
