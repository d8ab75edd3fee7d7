#!/usr/bin/env python3
"""Record the correctness reference of every workload into reference.json.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose behaviour is the reference; every
benchmark run is compared with what it records. For each preset run of each
workload, at both scales (full and smoke), at load factor 1:

* ``closing``: the mode counts n (within the solved mode family) that close
  a degenerate eigenvalue cluster, found from an eigenbasis with 8 more
  modes. The run's N must be one of them;
* a fresh run on its own empty cache: check verdicts (known-red ones stay
  red), scale-free values at the closing counts, whether the basis verified,
  and how many cache files a cold run writes;
* for the warm workload, a second pass of every preset against a cache that
  a first pass filled. A value that the warm pass reports differently from
  the fresh run is recorded under ``warm_defects`` and printed; the benchmark
  counts it as a failed run and keeps the record's fresh value as the truth.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import REFERENCE, ROOT, WORK, Children, source_digest, stressbasis
from workloads import SMOKE, WORKLOADS, compare, extract, make_config

EXTRA_MODES = 8
DEGENERATE_GAP = 1e-6   # the relative gap the basis code uses for clusters


def closing_counts(cfg: dict) -> list:
    from stressbasis import experiments as ex
    from stressbasis.meshes import RadialMesh

    mesh = ex._build_mesh(ex._build_domain(cfg["domain"]), cfg["mesh"])
    spec = {**cfg["basis"], "n_modes": cfg["basis"]["n_modes"] + EXTRA_MODES}
    basis = ex.get_basis(mesh, spec, use_cache=False)
    if isinstance(mesh, RadialMesh):
        ps = ex._build_particular(mesh, cfg["particular"],
                                  ex._build_material(cfg["material"]))
        idx = basis.select(m=ps.field.m, parity=ps.field.parity)
    else:
        idx = basis.select()
    lam = basis.eigenvalues[idx]
    return [0] + [n for n in range(1, len(lam))
                  if lam[n] - lam[n - 1] > DEGENERATE_GAP * lam[n - 1]]


def run_once(children, cfg_path: Path, cache: Path, out: Path, log: Path):
    code, *_ = children.run(
        stressbasis("run", "--config", str(cfg_path), "--out", str(out)),
        cache, log)
    if code != 0:
        sys.exit(f"{cfg_path.name} exited {code}; see {log}")


def record_workload(wl, children, tmp: Path) -> dict:
    out = {}
    configs = []
    for i, run in enumerate(wl.runs):
        dumped = json.loads(children.output(
            stressbasis("preset", "dump", run.preset), tmp))
        cfg = make_config(dumped, run, 1.0)
        path = tmp / f"{wl.name}-{i}.json"
        path.write_text(json.dumps(cfg, indent=1))
        configs.append(path)
        closing = closing_counts(cfg)
        eigen_ns = [cfg["N"]]
        if cfg.get("airy_compare"):
            eigen_ns.append(min(cfg["airy_compare"], cfg["basis"]["n_modes"]))
        for n in eigen_ns:
            if n not in closing:
                sys.exit(f"{wl.name}/{run.key}: n={n} lies inside a "
                         "degenerate eigenvalue cluster; pick another count")
        cache, res = tmp / f"cache-{i}", tmp / f"out-{i}"
        cache.mkdir()
        run_once(children, path, cache, res, tmp / f"{wl.name}-{i}.log")
        rec = extract(str(res), closing)
        rec["closing"] = closing
        rec["cold_cache_writes"] = len(os.listdir(cache))
        out[run.key] = rec
        print(f"  {run.key}: checks {rec['checks']}, {len(rec['values'])} "
              f"values, {rec['cold_cache_writes']} cache files", flush=True)
    if wl.warm:
        shared = tmp / "shared-cache"
        shared.mkdir()
        for npass in (0, 1):
            for i, (run, path) in enumerate(zip(wl.runs, configs)):
                res = tmp / f"warm-{npass}-{i}"
                run_once(children, path, shared, res, tmp / f"warm-{i}.log")
                if npass == 0:
                    continue
                bad = compare(extract(str(res), out[run.key]["closing"]),
                              out[run.key])
                defects = {k: {"fresh": want, "warm": got}
                           for k, got, want in bad}
                if defects:
                    out[run.key]["warm_defects"] = defects
                    print(f"  warm {run.key} differs from fresh: {defects}")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="record-"))
    os.environ["SB_CACHE_DIR"] = str(tmp / "in-process-cache")
    children = Children(time.monotonic() + 3600)
    scales = {}
    try:
        for scale, table in (("smoke", SMOKE), ("full", WORKLOADS)):
            scales[scale] = {}
            for wl in table.values():
                print(f"{scale}/{wl.name}", flush=True)
                wtmp = tmp / f"{scale}-{wl.name}"
                wtmp.mkdir()
                scales[scale][wl.name] = record_workload(wl, children, wtmp)
    finally:
        children.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"source_sha256": source_digest(), "scales": scales},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
