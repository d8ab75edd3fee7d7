import ctypes
import dataclasses
import filecmp
import gc
import json
import os
import shutil
import subprocess
import sys
import threading

import jsonschema
import numpy as np
import pytest
import scipy

import stressbasis
from stressbasis import _cache, basis as basis_mod, cli, experiments, fem2d
from stressbasis import solvers
from stressbasis.basis import (BasisError, BasisFileError, load_basis,
                               save_basis, verify_basis)
from stressbasis.cli import main
from stressbasis.config import (CONFIG_SCHEMA, PRESET_NAMES, ExperimentConfig,
                                NumericFailure, UsageError, get_preset,
                                list_presets)
from stressbasis.experiments import (ExperimentError, _ORACLE_FORMAT,
                                     fit_slope, get_basis, get_oracle,
                                     run_experiment)
from stressbasis.materials import MaterialError
from stressbasis.meshes import MeshError
from stressbasis.oracles import OracleError
from stressbasis.particular import ParticularStressError
from stressbasis.solvers import SolverError
from stressbasis._cache import (build_identity, digest, read_tagged,
                                write_tagged)

from helpers import mode_residuals


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


def test_config_schema_is_a_valid_schema():
    """Loads skip the schema's own check; this test makes it instead."""
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
        CONFIG_SCHEMA)


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


def test_div_tolerance_rule_follows_the_factor(tiny_runs, monkeypatch):
    """``report.json`` states the divergence tolerance from
    ``basis.DIV_TOL_FACTOR``, the factor ``verify_basis`` applies."""
    _, _, report, _ = tiny_runs
    assert report["tolerances"]["div_tolerance_rule"] == "4 * h * lambda^0.75"
    monkeypatch.setattr(basis_mod, "DIV_TOL_FACTOR", 2.5)
    assert basis_mod.div_tolerance_rule() == "2.5 * h * lambda^0.75"


def test_read_tagged_holds_no_copy_of_the_file(tmp_path, traced_peak):
    """A cache file is read from the open file: at its peak the read holds
    the arrays and less than a quarter of the file besides (a read of the
    whole file and of its payload held two copies)."""
    path = str(tmp_path / "big.npz")
    arrays = {"a": np.arange(600_000, dtype=float), "b": np.ones((3, 4))}
    write_tagged(path, "SBTEST 1", {"key": 1}, arrays)
    size = os.path.getsize(path)
    (meta, back), peak = traced_peak(read_tagged, path, "SBTEST 1", 1)
    assert meta == {"key": 1}
    assert all(np.array_equal(back[k], v) for k, v in arrays.items())
    assert peak <= sum(a.nbytes for a in back.values()) + 0.25 * size


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


# a feature-line square small enough for a cold run in seconds, with a FEM
# reference on a varying modulus
RECT_CFG = {
    "name": "tiny_rect",
    "domain": {"kind": "rectangle", "Lx": 1.0, "Ly": 1.0},
    "mesh": {"nx": 8, "ny": 8, "feature_x": [0.25, 0.75], "feature_y": [0.5]},
    "material": {"kind": "isotropic", "nu": 0.33,
                 "Y": {"profile": "discontinuous", "Y_top": 1.0,
                       "Y_bottom": 3.0}},
    "basis": {"backend": "eigen", "n_modes": 12},
    "particular": {"recipe": "uniform_pressure", "p": 1.0},
    "principles": ["SE"],
    "N": 12,
    "oracle": {"kind": "fem", "refine": 1},
}


def _rect_cfg(y_bottom=3.0):
    raw = json.loads(json.dumps(RECT_CFG))
    raw["material"]["Y"]["Y_bottom"] = y_bottom
    return ExperimentConfig.from_dict(raw)


def _cached(cache, prefix):
    return sorted(p for p in os.listdir(cache) if p.startswith(prefix))


@pytest.mark.parametrize("raw", [SMALL_CFG, RECT_CFG],
                         ids=["annulus", "rectangle"])
def test_eigen_runs_evaluate_no_mode_stack(raw, tmp_path, monkeypatch):
    """Cold and warm eigen runs (SE and PT) form the Grams and pairings from
    the modes' nodal components: no product with the quadrature evaluation
    P, or its transpose, takes more than three columns, so no stack of modes
    is evaluated at the quadrature points."""
    from scipy.sparse import _compressed

    cfg = ExperimentConfig.from_dict(dict(raw, principles=["SE", "PT"]))
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "cache"))
    nq = set()
    for ops in (fem2d.RectOps, fem2d.RadialOps):
        monkeypatch.setattr(ops, "__init__", lambda self, mesh, init=(
            ops.__init__): init(self, mesh) or nq.add(self.P.shape[0]))
    products = []
    real = _compressed._cs_matrix._matmul_multivector

    def spy(self, other):
        if nq & set(self.shape):
            products.append((self.shape, other.shape))
        return real(self, other)
    monkeypatch.setattr(_compressed._cs_matrix, "_matmul_multivector", spy)
    run_experiment(cfg, str(tmp_path / "cold"))
    assert _cached(tmp_path / "cache", "basis-")
    run_experiment(cfg, str(tmp_path / "warm"))
    assert nq and all(cols <= 3 for _, (_, cols) in products), products


def test_se_run_forms_the_load_pairing_once(tmp_path, monkeypatch):
    """An SE run pairs sigma_p with the modes once: the solve's load vector is
    also its objective's pairing, and the objective is the reported energy.
    The error series pairs sigma_p - sigma_true, another field."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "cache"))
    built, paired = [], []
    build, pairing = experiments._build_particular, solvers._energy_pairing

    def build_spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def pairing_spy(basis, material, sigma, n):
        paired.append(sigma)
        return pairing(basis, material, sigma, n)
    monkeypatch.setattr(experiments, "_build_particular", build_spy)
    monkeypatch.setattr(solvers, "_energy_pairing", pairing_spy)
    report = run_experiment(ExperimentConfig.from_dict(RECT_CFG),
                            str(tmp_path / "out"))
    assert len(built) == 1
    assert sum(sigma is built[0].field for sigma in paired) == 1
    assert len(paired) == 2 and "SE" in report["final_error"]


def test_oracle_cache_keyed_on_material_spec(tmp_path, monkeypatch):
    """Moduli that differ only in a parameter get their own FEM reference."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("SB_CACHE_DIR", str(cache))
    r3 = run_experiment(_rect_cfg(3.0), str(tmp_path / "y3"))
    r30 = run_experiment(_rect_cfg(30.0), str(tmp_path / "y30"))
    assert len(_cached(cache, "oracle-")) == 2
    assert len(_cached(cache, "basis-")) == 1
    assert r3["final_error"]["SE"] != r30["final_error"]["SE"]
    fresh = run_experiment(_rect_cfg(30.0), str(tmp_path / "fresh"),
                           use_cache=False)
    assert r30["final_error"] == fresh["final_error"]


def test_run_without_cache_leaves_the_cache_alone(tmp_path, monkeypatch):
    """``use_cache=False`` also reaches the FEM reference behind an
    ``oracle`` particular recipe: nothing is read or written. The report
    states the recipe's equilibrium gate ``tol``, not the strict default."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("SB_CACHE_DIR", str(cache))
    raw = json.loads(json.dumps(RECT_CFG))
    raw["particular"] = {"recipe": "oracle", "tol": 1.0,
                         "material": {"kind": "isotropic", "Y": 1.0,
                                      "nu": 0.3},
                         "loading": RECT_CFG["particular"]}
    rep = run_experiment(ExperimentConfig.from_dict(raw),
                         str(tmp_path / "out"), use_cache=False)
    assert not cache.exists() or os.listdir(cache) == []
    assert rep["tolerances"]["particular_residual"] == 1.0


def test_damaged_cache_files_are_rebuilt(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SB_CACHE_DIR", str(cache))
    cfg_path = tmp_path / "rect.json"
    cfg_path.write_text(json.dumps(RECT_CFG))

    def run(tag):
        out = tmp_path / tag
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return (out / "report.json").read_bytes()

    cold = run("cold")
    files = _cached(cache, "basis-") + _cached(cache, "oracle-")
    assert len(files) == 2
    built = {name: (cache / name).read_bytes() for name in files}

    def flip_payload_byte(data):
        # a byte in the middle of the npz payload, past the tag line
        start = data.index(b"\n") + 1
        data = bytearray(data)
        data[(start + len(data)) // 2] ^= 0xFF
        return bytes(data)

    def narrow_dtype(data):
        # '<f8' -> '<f4' in an npy header keeps the shape, so the array still
        # parses; np.load then stops short of the member's end and its CRC
        assert data.count(b"'<f8'") >= 1
        return data.replace(b"'<f8'", b"'<f4'", 1)

    def edit_meta(data):
        # a meta edit that is still valid JSON: the basis file's mesh size
        if b'"h": 0.125' not in data:
            return data
        return data.replace(b'"h": 0.125', b'"h": 0.925')

    def stale_tag(data):
        # the basis file's tag line names the layout before, which stored a
        # trace Gram
        head = basis_mod._BASIS_FORMAT.encode() + b"\n"
        if not data.startswith(head):
            return data
        return b"SBBASIS 3\n" + data[len(head):]

    for tag, damage in (("truncated", lambda data: data[:len(data) // 2]),
                        ("flipped", flip_payload_byte),
                        ("narrowed", narrow_dtype),
                        ("meta", edit_meta),
                        ("stale tag", stale_tag)):
        damaged = {name: damage(data) for name, data in built.items()}
        assert damaged != built, tag
        for name, data in damaged.items():
            (cache / name).write_bytes(data)
        assert run(tag) == cold, tag
        # each damaged file was rebuilt, to the cold run's bytes
        assert {name: (cache / name).read_bytes() for name in files} == built
    assert run("warm") == cold


@pytest.fixture(scope="module")
def rect_run(tmp_path_factory):
    """RECT_CFG run once on its own cache: (config path, cache directory)."""
    d = tmp_path_factory.mktemp("rect_run")
    cfg_path = d / "rect.json"
    cfg_path.write_text(json.dumps(RECT_CFG))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SB_CACHE_DIR", str(d / "cache"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(d / "out")]) == 0
    return cfg_path, d / "cache"


def test_basis_build_writes_the_basis_run_caches(rect_run, tmp_path):
    """``basis build --config`` builds the config's basis on its own mesh,
    feature lines included."""
    cfg_path, cache = rect_run
    out = tmp_path / "b.sbbasis"
    assert main(["basis", "build", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    [name] = _cached(cache, "basis-")
    built, cached = load_basis(str(out)), load_basis(str(cache / name))
    assert len(built) == RECT_CFG["basis"]["n_modes"]
    assert np.array_equal(built.eigenvalues, cached.eigenvalues)
    for a, b in zip(built.modes, cached.modes):
        assert np.array_equal(a.components, b.components)


def test_warm_run_does_no_verification_work(rect_run, tmp_path, monkeypatch):
    """A warm run reads the basis's stored report: it neither verifies the
    basis nor builds its H1 Gram."""
    cfg_path, cache = rect_run
    monkeypatch.setenv("SB_CACHE_DIR", str(cache))
    calls = []
    for mod, name in ((basis_mod, "verify_basis"), (basis_mod, "_h1_gram"),
                      (experiments, "verify_basis")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name, **k:
                            calls.append(name) or fn(*a, **k))
    before = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "warm")]) == 0
    assert calls == []
    assert {p.name: p.stat().st_mtime_ns for p in cache.iterdir()} == before


def test_warm_run_builds_no_scalar_matrices(rect_run, tmp_path, monkeypatch):
    """Only the basis solve and its H1 Gram read Ks, Ms, Dx and Dy, so a
    warm run never builds them."""
    cfg_path, cache = rect_run
    monkeypatch.setenv("SB_CACHE_DIR", str(cache))
    built = []
    real = fem2d._scalar_matrices
    monkeypatch.setattr(fem2d, "_scalar_matrices",
                        lambda ops: built.append(ops.mesh) or real(ops))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "warm")]) == 0
    assert built == []


def test_stored_report_equals_a_fresh_verification(tmp_path, monkeypatch,
                                                   rect_mesh, ann_mesh):
    """The report a cached basis carries is ``verify_basis`` of the loaded
    basis, field for field, and the report of the cold build. An airy basis
    is built on every call, with a fresh report, and writes no file."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path))
    for mesh, spec in ((rect_mesh, {"backend": "eigen", "n_modes": 6}),
                       (ann_mesh, {"backend": "eigen", "n_modes": 8,
                                   "wavenumbers": [0, 1]})):
        cold = get_basis(mesh, spec)
        warm = get_basis(mesh, spec)
        assert warm is not cold and warm.report is not cold.report
        assert dataclasses.asdict(warm.report) == \
            dataclasses.asdict(verify_basis(warm)) == \
            dataclasses.asdict(cold.report), spec
        assert warm.report.passed, spec
    monkeypatch.setattr(experiments, "get_or_build", lambda *a, **k:
                        pytest.fail("an airy basis went through the cache"))
    airy = get_basis(rect_mesh, {"backend": "airy", "n_modes": 4})
    assert dataclasses.asdict(airy.report) == \
        dataclasses.asdict(verify_basis(airy))
    assert airy.report.passed
    assert len(_cached(tmp_path, "basis-")) == 2


# tiny runs on each dense path: the annulus at m = 0 (SMALL_CFG's recipe)
# and m = 1 (example5's), and a rectangle; big enough that OpenBLAS splits
# the dense annulus products between two threads
_THREAD_CFGS = {
    "annulus_m0": dict(SMALL_CFG, mesh={"nel": 256},
                       basis={"backend": "eigen", "n_modes": 40,
                              "wavenumbers": [0]}, N=40, slope_window=[4, 40]),
    "annulus_m1": dict(SMALL_CFG, mesh={"nel": 128},
                       basis={"backend": "eigen", "n_modes": 60,
                              "wavenumbers": [1]}, N=30,
                       particular={"recipe": "annulus_m1"},
                       principles=["PT", "SE"], oracle={"kind": "ode_bvp"},
                       slope_window=[3, 30]),
    "rectangle": RECT_CFG,
}


@pytest.mark.parametrize("name", sorted(_THREAD_CFGS))
def test_run_artifacts_ignore_blas_thread_count(name, tmp_path, monkeypatch):
    """A run holds both OpenBLAS libraries at one thread, so its artifacts
    and its cached basis are the same bytes under OPENBLAS_NUM_THREADS 1
    and 2, each on its own cache."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_THREAD_CFGS[name]))
    runs = [tmp_path / threads for threads in ("1", "2")]
    for run in runs:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", run.name)
        out = _process(run, "run", "--config", str(cfg_path),
                       "--out", str(run / "out"))
        assert out.returncode == 0, out.stderr
    one, two = runs
    names = sorted(os.listdir(one / "out"))
    assert "report.json" in names
    assert sorted(os.listdir(two / "out")) == names
    for fname in names:
        assert filecmp.cmp(one / "out" / fname, two / "out" / fname,
                           shallow=False), fname
    (file,) = _cached(one / "c", "basis-")
    a, b = (read_tagged(str(run / "c" / file), basis_mod._BASIS_FORMAT)[1]
            for run in runs)
    assert sorted(a) == sorted(b)
    for key in a:
        assert a[key].tobytes() == b[key].tobytes(), key


def _blas_counts():
    """The thread counts of the OpenBLAS bundled with scipy and of the one
    bundled with numpy."""
    return [_cache._openblas(pkg, f"scipy_openblas_get_num_threads{sfx}")()
            for pkg, sfx in ((scipy, ""), (np, "64_"))]


def _set_blas_counts(counts):
    for (pkg, sfx), n in zip(((scipy, ""), (np, "64_")), counts):
        _cache._openblas(pkg, f"scipy_openblas_set_num_threads{sfx}",
                         (ctypes.c_int,), None)(n)


def test_run_restores_the_blas_thread_counts(tmp_path, monkeypatch):
    """A run holds both OpenBLAS libraries at one thread, an entry nested in
    it (the basis solve) changing nothing, and gives back the counts they
    had, after it returns and after it raises."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "cache"))
    inside = []
    real = experiments.get_basis

    def spy(*args, **kwargs):
        inside.append(_blas_counts())
        basis = real(*args, **kwargs)
        inside.append(_blas_counts())
        return basis
    monkeypatch.setattr(experiments, "get_basis", spy)
    refused = get_preset("example8_square_ortho").to_dict()
    refused["mesh"].update(nx=12, ny=12)
    refused.update(basis={"backend": "eigen", "n_modes": 10}, N=10)
    saved = _blas_counts()
    try:
        _set_blas_counts([2, 2])
        before = _blas_counts()
        run_experiment(ExperimentConfig.from_dict(SMALL_CFG),
                       str(tmp_path / "ok"))
        assert _blas_counts() == before
        with pytest.raises(NumericFailure, match="equilibrium"):
            run_experiment(ExperimentConfig.from_dict(refused),
                           str(tmp_path / "refused"))
        assert _blas_counts() == before
    finally:
        _set_blas_counts(saved)
    assert inside == [[1, 1]] * 4


def test_eigen_file_under_its_key_is_loaded(tmp_path, monkeypatch,
                                            rect_mesh):
    """A rectangle eigenbasis file named by the content key of its mesh,
    backend and mode count, which stores that key with the build identity,
    is loaded, not rebuilt."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path))
    spec = {"backend": "eigen", "n_modes": 4}
    key = {"mesh": rect_mesh.mesh_hash(), "backend": "eigen", "n_modes": 4}
    save_basis(get_basis(rect_mesh, spec, use_cache=False),
               str(tmp_path / f"basis-{digest(key)}.sbbasis"),
               dict(key, build=build_identity()))
    built = []
    real = experiments.solve_basis_rectangle
    monkeypatch.setattr(experiments, "solve_basis_rectangle",
                        lambda *a: built.append(a) or real(*a))
    get_basis(rect_mesh, spec)
    assert built == []


def test_rectangle_basis_file_is_shared_across_wavenumbers(tmp_path,
                                                           monkeypatch,
                                                           rect_mesh):
    """The rectangle build ignores wavenumbers, so two specs that differ
    only in them share one file."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path))
    for wavenumbers in ([0], [3]):
        get_basis(rect_mesh, {"backend": "eigen", "n_modes": 6,
                              "wavenumbers": wavenumbers})
    assert len(_cached(tmp_path, "basis-")) == 1


def _edit_one_source_byte(monkeypatch, tmp_path):
    """Point the build identity at a copy of the package with one byte of
    basis.py changed; the installed files stay as they are."""
    copy = tmp_path / "package"
    shutil.copytree(_cache._PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    data = bytearray((copy / "basis.py").read_bytes())
    data[len(data) // 2] ^= 1
    (copy / "basis.py").write_bytes(bytes(data))
    monkeypatch.setattr(_cache, "_PACKAGE", copy)


@pytest.mark.parametrize("change", ["source", "scipy"])
def test_cache_files_of_another_build_are_rebuilt_under_their_names(
        change, tmp_path, monkeypatch, rect_mesh):
    """A basis and a FEM reference cached by other code (one byte of a
    module) or under another scipy are rebuilt under the same file names,
    one file each; an unchanged build identity loads both and builds
    nothing."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("SB_CACHE_DIR", str(cache))
    loading_id = {"recipe": "uniform_pressure", "p": 1.0}
    ps = experiments._build_particular(rect_mesh, loading_id)
    builds = []
    for name in ("solve_basis_rectangle", "displacement_fem_oracle"):
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, real=real, name=name, **k:
                            builds.append(name) or real(*a, **k))

    def lookup():
        builds.clear()
        get_basis(rect_mesh, {"backend": "eigen", "n_modes": 4})
        get_oracle(rect_mesh, {"kind": "fem", "refine": 1}, ps.loading,
                   SMALL_CFG["material"], loading_id=loading_id)
        return sorted(builds), sorted(os.listdir(cache))

    cold = lookup()
    assert cold[0] == ["displacement_fem_oracle", "solve_basis_rectangle"]
    assert len(cold[1]) == 2
    assert lookup() == ([], cold[1])
    if change == "source":
        _edit_one_source_byte(monkeypatch, tmp_path)
    else:
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + "+x")
    assert lookup() == cold
    assert lookup() == ([], cold[1])


def test_oracle_build_writes_the_cached_reference(rect_run, tmp_path):
    """``oracle build --config`` writes the reference the run caches, as a
    CSV with the columns of sigma_p.csv."""
    cfg_path, cache = rect_run
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "build", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "x,y,sxx,syy,sxy"
    [name] = _cached(cache, "oracle-")
    _, arrays = read_tagged(str(cache / name), _ORACLE_FORMAT)
    csv = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(csv[:, 2:].T, arrays["components"])


def test_rectangle_warm_run_matches_cold_on_one_operator_set(tmp_path,
                                                            monkeypatch):
    """A warm rectangle run (cached eigenbasis and FEM reference, airy basis
    built again) writes the cold run's bytes, and every field of it shares
    one RectOps."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "cache"))
    raw = json.loads(json.dumps(RECT_CFG))
    raw["principles"] = ["SE", "PT"]
    raw["airy_compare"] = 4
    cfg = ExperimentConfig.from_dict(raw)
    run_experiment(cfg, str(tmp_path / "cold"))
    built = []
    init = fem2d.RectOps.__init__
    monkeypatch.setattr(fem2d.RectOps, "__init__",
                        lambda self, mesh: built.append(mesh) or
                        init(self, mesh))
    run_experiment(cfg, str(tmp_path / "warm"))
    assert len(built) == 1
    names = sorted(os.listdir(tmp_path / "cold"))
    assert names == sorted(os.listdir(tmp_path / "warm"))
    assert "convergence_PT.csv" in names and "sigma_h.csv" in names
    for name in names:
        assert filecmp.cmp(tmp_path / "cold" / name, tmp_path / "warm" / name,
                           shallow=False), name


def test_basis_cache_rebuilds_on_mode_count_mismatch(tmp_path, monkeypatch,
                                                     rect_mesh):
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path))
    spec = {"backend": "eigen", "n_modes": 6}
    get_basis(rect_mesh, spec)
    [name] = _cached(tmp_path, "basis-")
    save_basis(get_basis(rect_mesh, {"backend": "eigen", "n_modes": 4},
                         use_cache=False), str(tmp_path / name))
    assert len(get_basis(rect_mesh, spec)) == 6
    assert len(load_basis(str(tmp_path / name))) == 6


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    """The package, its CLI and a run of the closed-form m = 1 reference
    import none of scipy.integrate and the modules that come with it. A
    subprocess, since this one has imported them already."""
    src = os.path.dirname(os.path.dirname(stressbasis.__file__))
    env = dict(os.environ, PYTHONPATH=src, SB_CACHE_DIR=str(tmp_path / "c"))
    cfg_path = tmp_path / "m1.json"
    cfg_path.write_text(json.dumps(dict(
        SMALL_CFG, oracle={"kind": "ode_bvp"}, N=5, slope_window=[1, 5],
        **_M1)))
    code = ("import sys; from stressbasis.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(code, *(m for m in ('scipy.integrate', 'scipy.optimize', "
            "'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, "run", "--config",
                          str(cfg_path), "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0"


def test_light_verbs_load_neither_numpy_nor_scipy(tmp_path):
    """``preset list``, ``preset dump``, ``--help`` and a config the schema
    refuses build nothing, so they run on the standard library and
    jsonschema alone. A subprocess, since this one has imported both."""
    src = os.path.dirname(os.path.dirname(stressbasis.__file__))
    env = dict(os.environ, PYTHONPATH=src, SB_CACHE_DIR=str(tmp_path / "c"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL_CFG, N="ten")))
    verbs = [["preset", "list", "--machine"], ["preset", "dump", "example1"],
             ["--help"], ["run", "--config", str(bad)]]
    code = ("import json, sys; from stressbasis.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(*codes, *(m for m in ('numpy', 'scipy') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(verbs)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 0 0 2"
    assert out.stderr.splitlines() == [
        "error: invalid experiment config: 'ten' is not of type 'integer'"]


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run"]) == 2                      # neither preset nor config
    assert main(["oracle", "build", "--out", str(tmp_path / "o.csv")]) == 2
    assert main(["run", "nope"]) == 2              # unknown preset
    err = capsys.readouterr().err
    assert "example1" in err                       # lists the presets
    assert main(["run", "example1", "--config", "x.json"]) == 2
    assert main(["basis", "verify", "/no/such/file"]) == 2
    notbasis = tmp_path / "notbasis.json"
    notbasis.write_text("{}")
    assert main(["basis", "verify", str(notbasis)]) == 2
    assert main(["frobnicate"]) == 2               # argparse rejection
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": ')
    capsys.readouterr()
    for path in (bad, tmp_path):                   # not JSON; a directory
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and str(path) in err
    zero = tmp_path / "zero.json"                  # schema-invalid: no modes
    zero.write_text(json.dumps(dict(RECT_CFG, basis={"backend": "eigen",
                                                     "n_modes": 0})))
    assert main(["basis", "build", "--config", str(zero),
                 "--out", str(tmp_path / "b.sbbasis")]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    airy = tmp_path / "airy.json"                  # built every run: no file
    airy.write_text(json.dumps(dict(RECT_CFG, basis={"backend": "airy",
                                                     "n_modes": 4})))
    assert main(["basis", "build", "--config", str(airy),
                 "--out", str(tmp_path / "a.sbbasis")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "a.sbbasis").exists()


_RAMP = {"kind": "isotropic", "nu": 0.3,
         "Y": {"profile": "ramp", "Y_top": 1.0, "Y_bottom": 3.0}}
# energy form eigenvalue -0.136: no valid compliance
_INDEFINITE = {"kind": "orthotropic", "Y_x": 100.0, "Y_y": 1.0, "nu_xy": 0.3,
               "G_xy": 1.0}
_M1 = {"particular": {"recipe": "annulus_m1"},
       "basis": {"backend": "eigen", "n_modes": 10, "wavenumbers": [1]}}
_NO_WINDOW = {k: v for k, v in SMALL_CFG.items() if k != "slope_window"}


@pytest.mark.parametrize("base, change, code, words", [
    (SMALL_CFG, {"material": {"kind": "isotropic", "Y": 1.0, "nu": 0.6}}, 2,
     "nu"),
    (SMALL_CFG, {"domain": {"kind": "annulus", "r_a": 0.3, "r_b": 0.1}}, 2,
     "r_a"),
    (SMALL_CFG, {"N": 11}, 1, "N=11"),
    (SMALL_CFG, {"material": {"kind": "isotropic", "nu": 0.3}}, 2, "'Y'"),
    (SMALL_CFG, {"material": {"kind": "orthotropic", "Y_x": 1.0, "Y_y": 2.0,
                              "nu_xy": 0.3}}, 2, "'G_xy'"),
    (SMALL_CFG, {"material": {"kind": "isotropic", "nu": 0.3,
                              "Y": {"profile": "ramp", "Y_top": 1.0}}}, 2,
     "'Y_bottom'"),
    (SMALL_CFG, {"particular": {"recipe": "oracle", "material": {
        "kind": "isotropic", "Y": 1.0, "nu": 0.3}}}, 2, "'loading'"),
    (SMALL_CFG, {"particular": {"recipe": "oracle", "loading": {
        "recipe": "band"}, "material": {"kind": "isotropic", "nu": 0.3}}}, 2,
     "'Y'"),
    (SMALL_CFG, {"N": 6, "ns": [2, 9]}, 2, "N=6"),
    (SMALL_CFG, {"ns": []}, 2, "non-empty"),
    (SMALL_CFG, {"material": _RAMP}, 2, "varying modulus"),
    (SMALL_CFG, dict(_M1, material=_RAMP, oracle={"kind": "ode_bvp"}), 2,
     "uniform isotropic"),
    (RECT_CFG, {"oracle": {"kind": "fem", "refine": 0}}, 2, "minimum"),
    (RECT_CFG, {"cesaro": {"radius": 0.2}}, 2, "annulus fields"),
    (SMALL_CFG, {"cesaro": {"radius": 0.5}}, 2, "inside the annulus"),
    (RECT_CFG, {"domain": {"kind": "rectangle", "Lx": 2.0, "Ly": 1.0},
                "particular": {"recipe": "band"}}, 2, "unit square"),
    (RECT_CFG, {"particular": {"recipe": "band", "profile": "cubic"}}, 2,
     "'cubic'"),
    (RECT_CFG, {"mesh": {"nx": 6, "ny": 6}, "particular": {"recipe": "band"}},
     2, "feature line"),
    (RECT_CFG, {"domain": {"kind": "rectangle", "Lx": 1.0, "Ly": 2.0},
                "particular": {"recipe": "gravity"}}, 2, "unit square"),
    (RECT_CFG, {"mesh": {"nx": 6, "ny": 5},
                "particular": {"recipe": "gravity"}}, 2, "y=1/2"),
    (SMALL_CFG, dict(_M1, domain={"kind": "annulus", "r_a": 0.1, "r_b": 0.4},
                     oracle={"kind": "none"}), 2, "r_b=0.3"),
    (SMALL_CFG, {"principles": ["PT_body"]}, 2, "body-force potential"),
    (RECT_CFG, {"material": {"kind": "orthotropic", "Y_x": 1.0, "Y_y": 2.0,
                             "nu_xy": 0.33, "G_xy": 1.0},
                "particular": {"recipe": "gravity"}, "principles": ["PT_body"],
                "oracle": {"kind": "none"}}, 2, "isotropic material"),
    (SMALL_CFG, {"particular": {"recipe": "band"}}, 2,
     "recipe 'band' works on rectangle domains"),
    (RECT_CFG, {"particular": {"recipe": "axisym_airy"}}, 2,
     "recipe 'axisym_airy' works on annulus domains"),
    (RECT_CFG, {"oracle": {"kind": "lame"}}, 2,
     "oracle 'lame' works on annulus domains"),
    (SMALL_CFG, {"oracle": {"kind": "fem"}}, 2,
     "oracle 'fem' works on rectangle domains"),
    (SMALL_CFG, {"basis": {"backend": "airy", "n_modes": 10}}, 2,
     "backend 'airy' works on rectangle domains"),
    (SMALL_CFG, {"airy_compare": 5}, 2,
     "airy_compare works on rectangle domains"),
    (SMALL_CFG, {"cesaro": {"radius": "x"}}, 2, "'x' is not of type"),
    (SMALL_CFG, {"material": {"kind": "isotropic", "Y": 1.0, "nu": "a"}}, 2,
     "'a' is not of type"),
    (RECT_CFG, {"particular": {"recipe": "uniform_pressure", "p": "a"}}, 2,
     "'a' is not of type"),
    (RECT_CFG, {"particular": {"recipe": "oracle", "tol": "a", "loading": {
        "recipe": "uniform_pressure"}, "material": {
        "kind": "isotropic", "Y": 1.0, "nu": 0.3}}}, 2, "'a' is not of type"),
    (SMALL_CFG, {"basis": {"backend": "eigen", "n_modes": 10,
                           "wavenumbers": [-1]}}, 2, "minimum"),
    (SMALL_CFG, {"basis": {"backend": "eigen", "n_modes": 10,
                           "wavenumbers": []}}, 2, "non-empty"),
    (RECT_CFG, {"airy_compare": -3}, 2, "minimum"),
    (SMALL_CFG, {"material": {"kind": "isotropic", "Y": 0, "nu": 0.3}}, 2,
     "finite and positive"),
    (RECT_CFG, {"material": _INDEFINITE}, 2, "not positive definite"),
    (RECT_CFG, {"material": _INDEFINITE, "oracle": {"kind": "none"}}, 2,
     "not positive definite"),
    (RECT_CFG, {"material": dict(_INDEFINITE, Y_x=0)}, 2, "must be positive"),
    (RECT_CFG, {"particular": {"recipe": "uniform_pressure",
                               "p": float("nan")}}, 2, "NaN is not a finite"),
    (RECT_CFG, {"particular": {"recipe": "uniform_pressure",
                               "p": float("inf")}}, 2, "Infinity is not a"),
    (SMALL_CFG, {"particular": {"recipe": "axisym_airy",
                                "p_in": float("nan")}}, 2, "not a finite"),
    (SMALL_CFG, {"material": {"kind": "isotropic", "Y": float("nan"),
                              "nu": 0.3}}, 2, "not a finite"),
    (RECT_CFG, {"particular": {"recipe": "oracle", "tol": float("nan"),
                               "loading": {"recipe": "uniform_pressure"},
                               "material": {"kind": "isotropic", "Y": 1.0,
                                            "nu": 0.3}}}, 2, "not a finite"),
    (SMALL_CFG, {"material": {"kind": "foo"}}, 2, "'foo' is not one of"),
    (SMALL_CFG, {"material": {"kind": "foo", "Y": 1.0, "nu": 0.3}}, 2,
     "'foo' is not one of"),
    (SMALL_CFG, {"particular": {"recipe": "foo"}}, 2, "'foo' is not one of"),
    (SMALL_CFG, {"oracle": {"kind": "femm"}}, 2, "'femm' is not one of"),
    (SMALL_CFG, {"checks": {"x": {"kind": "nosuch"}}}, 2,
     "'nosuch' is not one of"),
    (SMALL_CFG, {"checks": {"x": {"kind": "energy_rel_excess", "tol": 1e-3}}},
     2, "'at' is a required"),
    (SMALL_CFG, {"checks": {"x": {"kind": "slope"}}}, 2,
     "'range' is a required"),
    (_NO_WINDOW, {"checks": {"x": {"kind": "slope", "range": [-2, 0]}}}, 2,
     "needs a window"),
    (SMALL_CFG, {"checks": {"x": {"kind": "se_below_plateau", "factor": 0.1}}},
     2, "needs PT and SE among the principles"),
    (SMALL_CFG, {"checks": {"x": {"kind": "cesaro_zero", "tol": 1e-3}}}, 2,
     "needs a cesaro block"),
    (SMALL_CFG, {"checks": {"x": {"kind": "airy_span_energy", "tol": 0.01}}},
     2, "needs airy_compare"),
    (SMALL_CFG, {"checks": {"x": {"kind": "monotone_energy",
                                  "principle": "SE"}}}, 2,
     "needs SE among the principles"),
    (SMALL_CFG, {"oracle": {"kind": "none"}, "checks": {"x": {
        "kind": "energy_rel_excess", "at": 5, "tol": 1e-3}}}, 2,
     "needs a reference"),
    (SMALL_CFG, {"oracle": {"kind": "none"}, "checks": {"x": {
        "kind": "error_at", "at": 5, "range": [0, 1]}}}, 2,
     "needs a reference"),
    (SMALL_CFG, {"checks": {"x": {"kind": "energy_rel_excess", "at": 5,
                                  "tol": "x"}}}, 2, "'x' is not of type"),
    (SMALL_CFG, {"checks": {"x": {"kind": "error_at", "at": 5,
                                  "range": [1]}}}, 2, "[1] is too short"),
], ids=["material", "mesh", "solver", "isotropic_without_Y",
        "orthotropic_without_G_xy", "profile_without_Y_bottom",
        "oracle_without_loading", "oracle_material_without_Y",
        "schedule_above_N", "empty_schedule", "ramp_modulus_on_annulus",
        "ramp_modulus_with_ode_bvp", "fem_refine_0", "cesaro_on_rectangle",
        "cesaro_outside_annulus", "band_off_unit_square",
        "unknown_band_profile", "band_without_feature_lines",
        "gravity_off_unit_square", "gravity_without_feature_line",
        "m1_particular_radii", "pt_body_without_potential",
        "pt_body_orthotropic", "band_on_annulus", "axisym_airy_on_rectangle",
        "lame_on_rectangle", "fem_on_annulus", "airy_backend_on_annulus",
        "airy_compare_on_annulus", "cesaro_radius_not_a_number",
        "nu_not_a_number", "pressure_not_a_number", "oracle_tol_not_a_number",
        "negative_wavenumber", "no_wavenumbers", "negative_airy_compare",
        "zero_modulus", "indefinite_orthotropic_with_fem",
        "indefinite_orthotropic", "zero_orthotropic_modulus", "pressure_nan",
        "pressure_infinite", "inner_pressure_nan", "modulus_nan",
        "oracle_tol_nan", "unknown_material_kind",
        "unknown_material_kind_with_moduli", "unknown_recipe",
        "unknown_oracle_kind", "unknown_check_kind",
        "energy_check_without_at", "slope_without_range",
        "slope_without_window", "se_below_plateau_without_se",
        "cesaro_check_without_cesaro", "airy_check_without_airy_compare",
        "check_principle_not_listed", "energy_check_without_reference",
        "error_check_without_reference", "check_tol_not_a_number",
        "check_range_of_one_number"])
def test_cli_schema_valid_bad_input(tmp_path, capsys, base, change, code,
                                    words):
    """Input errors exit 2 and numeric failures exit 1, with one line each."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(base, **change)))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and words in err


def test_cli_refuses_overflowing_number(tmp_path, capsys):
    """A literal that overflows a float (valid JSON) exits 2 with one line."""
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(RECT_CFG).replace('"p": 1.0', '"p": 1e400'))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "1e400 is not a finite" in err


def test_cli_refuses_integer_too_large_for_a_float(tmp_path, capsys):
    """An integer literal that overflows a float exits 2 with one line."""
    cfg_path = tmp_path / "big.json"
    text = json.dumps(dict(SMALL_CFG, particular={"recipe": "axisym_airy",
                                                  "p_in": 7}))
    cfg_path.write_text(text.replace('"p_in": 7', '"p_in": 1' + 400 * "0"))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "is not a finite" in err


@pytest.mark.parametrize("p, Y, principle, words", [
    (1e308, 1.0, "PT", "norm overflows"),
    (1e150, 1e-10, "PT", "energy series is not finite"),
    (1e150, 1e-300, "SE", "load vector is not finite"),
], ids=["field_norm", "energy", "se_load"])
def test_cli_huge_load_is_a_numeric_failure(tmp_path, capsys, p, Y,
                                            principle, words):
    """A finite load whose stresses or energies overflow a float exits 1
    with one line, not a run of NaN and overflow warnings."""
    cfg = dict(RECT_CFG, particular={"recipe": "uniform_pressure", "p": p},
               material={"kind": "isotropic", "Y": Y, "nu": 0.3},
               oracle={"kind": "none"}, principles=[principle])
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numeric failure: ") and words in err


# a schema-valid run whose FEM reference overflows a float
FEM_OVERFLOW_CFG = dict(RECT_CFG, mesh={"nx": 8, "ny": 8},
                        material={"kind": "isotropic", "nu": 0.33,
                                  "Y": 1e-300},
                        particular={"recipe": "uniform_pressure", "p": 1e10})


def test_cli_fem_reference_overflow_is_a_numeric_failure(tmp_path, capsys):
    """A FEM reference whose displacement solve overflows exits 1 with one
    line, not a traceback from the projection of its stress."""
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(FEM_OVERFLOW_CFG))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "numeric failure: the FEM reference stress is not finite: the "
        "displacement solve overflowed"]


@pytest.mark.parametrize("cls, builtin, code", [
    (UsageError, ValueError, 2), (MaterialError, ValueError, 2),
    (MeshError, ValueError, 2), (ExperimentError, RuntimeError, 1),
    (BasisError, RuntimeError, 1), (BasisFileError, ValueError, 1),
    (SolverError, RuntimeError, 1), (OracleError, RuntimeError, 1),
    (ParticularStressError, ValueError, 1)], ids=lambda v: getattr(
        v, "__name__", str(v)))
def test_cli_exit_code_of_each_error_class(monkeypatch, capsys, cls, builtin,
                                           code):
    """Each package error exits with its code (2 for a UsageError, 1 for a
    NumericFailure) and one stderr line, and keeps its builtin base."""
    assert issubclass(cls, builtin)
    assert issubclass(cls, UsageError if code == 2 else NumericFailure)

    def failing(args):
        raise cls("it went wrong")
    monkeypatch.setattr(cli, "_cmd_preset", failing)
    assert main(["preset", "list"]) == code
    prefix = "error" if code == 2 else "numeric failure"
    assert capsys.readouterr().err.splitlines() == [f"{prefix}: it went wrong"]


def test_run_all_maps_numeric_failures(tmp_path, monkeypatch, capsys):
    """scripts/run_all.py exits 1 with one line on the numeric failures that
    the CLI maps to exit 1, not only on ExperimentError."""
    import importlib.util
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "run_all.py")
    spec = importlib.util.spec_from_file_location("run_all", path)
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)

    def failing(*args, **kwargs):
        raise SolverError("SE system is not positive definite")
    monkeypatch.setattr(run_all, "run_experiment", failing)
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--out",
                                      str(tmp_path), "example1"])
    assert run_all.main() == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["ERROR example1: SE system is not positive "
                                "definite"]


def test_cli_oracle_failure(tmp_path, monkeypatch, capsys):
    """A reference that fails numerically exits 1 with one line."""
    def failing(mesh, material):
        raise OracleError("reference failed")
    monkeypatch.setattr(experiments, "annulus_m1_oracle", failing)
    cfg_path = tmp_path / "m1.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CFG, oracle={"kind": "ode_bvp"},
                                        **_M1)))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numeric failure: ") and "reference failed" in err


@pytest.mark.parametrize("principle", ["SE", "PT"])
def test_cli_run_without_modes(tmp_path, monkeypatch, capsys, principle):
    """N = 0 without a schedule reports sigma_p alone, as one row."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "cache"))
    cfg_path = tmp_path / "n0.json"
    cfg_path.write_text(json.dumps(dict(RECT_CFG, N=0,
                                        principles=[principle])))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,")
    assert (out / "sigma_N.csv").read_bytes() == \
        (out / "sigma_p.csv").read_bytes()


def test_cli_eigensolver_failure_in_a_worker(tmp_path, monkeypatch, capsys):
    """A BasisError raised on a class-solve worker thread exits 1 with one
    stderr line and no traceback."""
    threads = []

    def fail(*args, **kwargs):
        threads.append(threading.get_ident())
        raise RuntimeError("no convergence")
    monkeypatch.setattr(basis_mod, "eigsh", fail)
    cfg_path = tmp_path / "rect.json"
    cfg_path.write_text(json.dumps(RECT_CFG))
    assert main(["run", "--config", str(cfg_path), "--no-cache",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "eigensolver did not converge" in err and "Traceback" not in err
    assert threads and threading.get_ident() not in threads


def test_cli_particular_stress_failure(tmp_path, monkeypatch, capsys):
    """An FEM-built particular stress refused by its equilibrium gate (the
    orthotropic square on a 12x12 grid) exits 1 with one stderr line."""
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "cache"))
    cfg = get_preset("example8_square_ortho").to_dict()
    cfg["mesh"].update(nx=12, ny=12)
    cfg.update(basis={"backend": "eigen", "n_modes": 10}, N=10)
    cfg_path = tmp_path / "ex8.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numeric failure: ") and "equilibrium" in err


def test_provenance_hash_is_the_digest_of_the_provenance(tiny_runs,
                                                         ann_mesh, tmp_path):
    """report.json's provenance hash is the digest of the whole provenance
    of the run's basis, and it moves with the mode count."""
    _, _, report, _ = tiny_runs
    want = digest(get_basis(ann_mesh, SMALL_CFG["basis"]).provenance)
    assert report["basis"]["provenance_hash"] == want
    more = dict(SMALL_CFG, basis=dict(SMALL_CFG["basis"], n_modes=12))
    other = run_experiment(ExperimentConfig.from_dict(more), str(tmp_path))
    assert other["basis"]["provenance_hash"] != want


def test_basis_verify_measures_the_modes(tmp_path, rect_basis, capsys):
    """``basis verify FILE`` measures its figures from the file's modes, not
    from the stored meta: a file whose mode 1 is replaced by mode 0 + mode 1,
    its meta kept, reports an L2 off-diagonal of about 1 and the largest
    divergence residual of its modes, and exits 1."""
    path = str(tmp_path / "b.sbbasis")
    save_basis(rect_basis, path)
    meta, arrays = read_tagged(path, basis_mod._BASIS_FORMAT)
    comps = arrays["components"]
    comps[1] = comps[0] + comps[1]
    write_tagged(path, basis_mod._BASIS_FORMAT, meta, arrays)
    assert main(["basis", "verify", path]) == 1
    figures = dict(line.split(" : ") for line in
                   capsys.readouterr().out.splitlines() if " : " in line)
    figures = {k.strip(): v for k, v in figures.items()}
    assert float(figures["L2 off-diagonal"]) >= 0.5
    div = mode_residuals(load_basis(path)).max()
    assert figures["divergence residual"] == f"{div:.3e}"


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


# ---------------------------------------------------------------------------
# The process entry
# ---------------------------------------------------------------------------

def _process(tmp_path, *argv):
    """``python -m stressbasis ARGV`` in a child process, on its own cache."""
    src = os.path.dirname(os.path.dirname(stressbasis.__file__))
    env = dict(os.environ, PYTHONPATH=src, SB_CACHE_DIR=str(tmp_path / "c"))
    return subprocess.run([sys.executable, "-m", "stressbasis", *argv],
                          env=env, capture_output=True, text=True)


def test_process_run_writes_the_in_process_artifacts(tmp_path, monkeypatch):
    """``python -m stressbasis run --config`` on a tiny square writes the
    artifacts of an in-process ``cli.main`` run, byte for byte."""
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(RECT_CFG))
    out = _process(tmp_path, "run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "child"))
    assert out.returncode == 0, out.stderr
    monkeypatch.setenv("SB_CACHE_DIR", str(tmp_path / "own"))
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "here")]) == 0
    names = sorted(os.listdir(tmp_path / "here"))
    assert "report.json" in names
    assert sorted(os.listdir(tmp_path / "child")) == names
    for name in names:
        assert filecmp.cmp(tmp_path / "here" / name, tmp_path / "child" / name,
                           shallow=False), name


def test_process_errors_are_one_line(tmp_path):
    """The process exits 2 on an unknown preset and 1 on a FEM reference
    that overflows, each with one stderr line and no traceback."""
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(FEM_OVERFLOW_CFG))
    for argv, code, head in ((["nosuchpreset"], 2, "error: unknown preset"),
                             (["--config", str(cfg_path)], 1,
                              "numeric failure: the FEM reference")):
        out = _process(tmp_path, "run", *argv, "--out", str(tmp_path / "out"))
        assert out.returncode == code
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith(head)


def test_process_entry_freezes_what_the_run_left(monkeypatch, capsys):
    """``cli.entry`` returns the code of ``main`` and moves the objects alive
    at its end to the collector's permanent generation, which the
    collections at interpreter exit skip."""
    monkeypatch.setattr(sys, "argv",
                        ["stressbasis", "preset", "list", "--machine"])
    try:
        assert cli.entry() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.split() == list(PRESET_NAMES)
