"""Tests of the benchmark itself, on the seconds-long smoke configuration.

    python3 -m pytest perfbench/test_bench.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END, REFERENCE, per_layer_units  # noqa: E402
from workloads import (SMOKE, WORKLOADS, Run, compare,  # noqa: E402
                       known_defect, load_factors, make_config)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_the_harness():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        per_layer_units()


@pytest.mark.parametrize("preset", [
    "example1", "example2_dp", "example2_cp", "example4", "example5",
    "example7_dc", "example7_ramp", "example8_square_ortho"])
def test_generated_configs_are_valid(preset):
    from stressbasis.experiments import ExperimentConfig, get_preset
    dumped = json.loads(json.dumps(get_preset(preset).to_dict()))
    for factor in (0.125, 8.0):
        cfg = make_config(dumped, Run(preset, n_modes=12), factor)
        assert None not in cfg.values()
        ExperimentConfig.from_dict(cfg)


def test_seed_picks_power_of_two_load_factors():
    wl = WORKLOADS["rect_warm"]
    assert load_factors(wl, 7) == load_factors(wl, 7)
    assert any(load_factors(wl, s) != load_factors(wl, 7) for s in range(8))
    dumped = {"name": "x", "mesh": {}, "N": 4, "basis": {"n_modes": 4},
              "particular": {"recipe": "axisym_airy", "p_in": 1.0},
              "oracle": {"kind": "lame", "p": 1.0}, "ns": None}
    cfg = make_config(dumped, Run("example1"), 0.25)
    assert cfg["particular"]["p_in"] == cfg["oracle"]["p"] == 0.25
    assert "ns" not in cfg


def test_compare_flags_a_moved_value_and_known_defects():
    ref = json.loads(REFERENCE.read_text())["scales"]["full"]
    run = ref["rect_warm"]["example8_square_ortho"]
    observed = {"checks": dict(run["checks"]), "values": dict(run["values"]),
                "basis_verified": run["basis_verified"]}
    assert compare(observed, run) == []
    key = next(iter(run["values"]))
    observed["values"][key] *= 1 + 1e-5
    assert [k for k, _, _ in compare(observed, run)] == [key]
    assert not known_defect(run, compare(observed, run))
    observed["values"] = dict(run["values"])
    for k, d in run["warm_defects"].items():
        observed["values"][k] = d["warm"]
    assert known_defect(run, compare(observed, run))


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_end_to_end(workload):
    result = result_of(bench("--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SMOKE[workload].runs)
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_traced(workload):
    result = result_of(bench("--workload", workload, "--seed", "6",
                             "--seconds", "1", "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(per_layer_units())
    assert m["trace.coverage"] >= 0.9
    if workload == "rect_warm":
        assert m["experiments.basis_misses"] == m["experiments.oracle_misses"] \
            == 0 < m["experiments.basis_hits"]
        assert m["basis.eigsh_s"] == 0 and m["basis.lu_nnz"] == 0
    else:
        assert m["experiments.basis_hits"] == m["experiments.oracle_hits"] == 0
        assert m["experiments.basis_misses"] > 0
        assert m["experiments.cache_bytes_written"] > 0
    if workload == "rect_cold":
        assert m["basis.lu_nnz"] > 0 and m["basis.op_solves"] > 0
        assert m["oracles.lu_nnz"] > 0 and m["solvers.cholesky_calls"] > 0
    if workload == "annulus_cold":
        assert m["basis.null_space_s"] > 0 and m["oracles.ode_bvp_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rect_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
