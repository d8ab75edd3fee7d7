import filecmp
import json
import os

import numpy as np
import pytest

from stressbasis.cli import main
from stressbasis.experiments import (ExperimentConfig, ExperimentError,
                                     PRESET_NAMES, UsageError, fit_slope,
                                     get_basis, get_preset, list_presets,
                                     run_experiment)


SMALL_CFG = {
    "name": "tiny",
    "domain": {"kind": "annulus", "r_a": 0.1, "r_b": 0.3},
    "mesh": {"nel": 64},
    "material": {"kind": "isotropic", "Y": 1.0, "nu": 0.3},
    "basis": {"backend": "eigen", "n_modes": 10, "wavenumbers": [0]},
    "particular": {"recipe": "axisym_airy"},
    "principles": ["PT"],
    "N": 10,
    "oracle": {"kind": "lame"},
    "slope_window": [2, 10],
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_config_schema_rejections():
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict({"name": "x"})  # missing required keys
    bad = dict(SMALL_CFG, N="ten")
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict(bad)
    bad = dict(SMALL_CFG, extra_knob=1)
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict(bad)
    bad = dict(SMALL_CFG, ns=[5, 5, 10])
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict(bad)


def test_full_scale_override():
    cfg = get_preset("example1")
    full = cfg.at_full_scale()
    assert full.N == 500
    assert full.mesh["nel"] == 1024
    assert full.slope_window == [100, 500]
    assert full.full == {}
    # presets without a full block are returned unchanged by the runner flag
    cfg2 = get_preset("example5")
    assert cfg2.full == {}


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

def test_fit_slope_synthetic():
    ns = np.arange(1, 50)
    assert fit_slope(ns, ns**-1.5, [5, 40]) == pytest.approx(-1.5, abs=1e-12)
    assert fit_slope(ns, np.full(len(ns), 0.37), [5, 40]) \
        == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_errors():
    ns = np.arange(1, 50)
    with pytest.raises(ExperimentError):
        fit_slope(ns, ns**-1.0, [45, 48])  # fewer than 5 points
    with pytest.raises(ExperimentError):
        fit_slope(ns, np.zeros(len(ns)), [5, 40])


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def test_preset_registry():
    assert len(PRESET_NAMES) == 8
    listed = list_presets()
    for name in PRESET_NAMES:
        assert name in listed
    assert list_presets(machine=True).splitlines() == list(PRESET_NAMES)
    with pytest.raises(UsageError) as exc:
        get_preset("nope")
    for name in PRESET_NAMES:  # the error names every available preset
        assert name in str(exc.value)


def test_every_preset_parses():
    for name in PRESET_NAMES:
        cfg = get_preset(name)
        assert cfg.name == name
        assert cfg.N >= 1


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_dump_is_a_valid_config(name, capsys):
    assert main(["preset", "dump", name]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert ExperimentConfig.from_dict(dumped) == get_preset(name)


# ---------------------------------------------------------------------------
# Runner: determinism and caching
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    cfg = ExperimentConfig.from_dict(SMALL_CFG)
    d1 = tmp_path_factory.mktemp("run1")
    d2 = tmp_path_factory.mktemp("run2")
    r1 = run_experiment(cfg, str(d1))
    r2 = run_experiment(cfg, str(d2))
    return d1, d2, r1, r2


def test_rerun_is_byte_identical(tiny_runs):
    d1, d2, _, _ = tiny_runs
    names = sorted(os.listdir(d1))
    assert "convergence.csv" in names and "report.json" in names
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def test_report_contents(tiny_runs):
    _, _, report, _ = tiny_runs
    assert report["basis"]["verified"]
    assert "provenance_hash" in report["basis"]
    assert report["slope_window"] == [2, 10]
    assert isinstance(report["slopes"]["PT"], float)
    assert report["true_energy"] > 0
    assert report["sigma_N_equilibrium"]["interior"] < 1.0


def test_convergence_csv_columns(tiny_runs):
    d1, _, _, _ = tiny_runs
    lines = (d1 / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "N,objective,energy,E_N"
    assert len(lines) == 1 + SMALL_CFG["N"]


def test_basis_cache_round_trip(ann_mesh):
    spec = {"backend": "eigen", "n_modes": 10, "wavenumbers": [0]}
    b1 = get_basis(ann_mesh, spec, use_cache=True)   # builds and saves
    b2 = get_basis(ann_mesh, spec, use_cache=True)   # loads
    assert np.array_equal(b1.eigenvalues, b2.eigenvalues)
    for m1, m2 in zip(b1.modes, b2.modes):
        assert np.array_equal(m1.components, m2.components)


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def test_cli_usage_errors(capsys):
    assert main(["run"]) == 2                      # neither preset nor config
    assert main(["run", "nope"]) == 2              # unknown preset
    err = capsys.readouterr().err
    assert "example1" in err                       # lists the presets
    assert main(["run", "example1", "--config", "x.json"]) == 2
    assert main(["basis", "verify", "/no/such/file"]) == 2
    assert main(["frobnicate"]) == 2               # argparse rejection


@pytest.mark.parametrize("change, code, words", [
    ({"material": {"kind": "isotropic", "Y": 1.0, "nu": 0.6}}, 2, "nu"),
    ({"domain": {"kind": "annulus", "r_a": 0.3, "r_b": 0.1}}, 2, "r_a"),
    ({"N": 11}, 1, "N=11"),
], ids=["material", "mesh", "solver"])
def test_cli_schema_valid_bad_input(tmp_path, capsys, change, code, words):
    """Input errors exit 2 and numeric failures exit 1, with one line each."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CFG, **change)))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and words in err


def test_cli_preset_verbs(capsys):
    assert main(["preset", "list", "--machine"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines() == list(PRESET_NAMES)
    assert main(["preset", "dump", "example1"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["name"] == "example1"
    assert dumped["N"] == 120


def test_cli_run_config(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(SMALL_CFG))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "sigma_h.csv").exists()
