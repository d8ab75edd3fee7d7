#!/usr/bin/env python3
"""The stressbasis benchmark.

    python3 perfbench/run.py --workload rect_cold --seed 1 --seconds 17 --trace 0

Runs from the root of a source checkout; the program under test is
``src/stressbasis``, started as ``python3 -m stressbasis run --config ...``
(the user's command, so interpreter start-up and imports count). Workloads
and their scales are defined in ``workloads.py``.

One run of this script:

1. sets up the workload: dumps the presets with ``stressbasis preset dump``,
   writes seeded configs, and for ``rect_warm`` fills a cache by running each
   preset once. Cold set-ups are repeated and the median is reported; the
   warm set-up fills the cache once, because a second fill would take the
   run past its time budget;
2. runs whole workload iterations, one child process per preset run, each
   iteration with its own ``$SB_CACHE_DIR`` (a copy of the filled cache for
   ``rect_warm``, empty otherwise), until the next iteration would end after
   ``--seconds``;
3. checks every preset run against ``reference.json``: exit code, check
   verdicts, scale-free values at cluster-closing mode counts, and cache
   accounting (cold: every cache lookup misses; warm: nothing is written).
   A failed check marks the run failed; the result stays correct only when
   every failure is the recorded warm-cache defect;
4. prints each metric with its unit, the fail ratio and the provenance, then
   the result as one JSON line.

With ``--trace 0`` the metrics are the end-to-end ones: ``run_s``, the
median over iterations of the summed wall time of an iteration's preset
runs; ``peak_rss_mb``, the median of each iteration's largest child peak
RSS; ``setup_s``. With ``--trace 1`` the iterations alternate between
untraced ones and traced ones (``trace_child.py``), and the metrics are the
per-layer ones, taken from the traced iterations.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import (SMOKE, WORKLOADS, compare, extract, known_defect,
                       load_factors, make_config)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference.json"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
COLD_SETUPS = 3
RUN_LIMIT_S = 170.0   # children are stopped by then: a run must end in 180 s

END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> span names whose outermost occurrences are summed
SPAN_METRICS = {
    "basis.eigsh_s": ("basis.eigsh",),
    "basis.null_space_s": ("basis.null_space",),
    "basis.eigh_s": ("basis.eigh",),
    "basis.orthonormalize_s": ("basis.orthonormalize",),
    "basis.verify_s": ("basis.verify_basis",),
    "basis.airy_s": ("basis.airy_bump_basis",),
    "basis.load_s": ("basis.load_basis",),
    "basis.save_s": ("basis.save_basis",),
    "solvers.se_s": ("solvers.solve_strain_energy",),
    "solvers.pt_s": ("solvers.solve_planar_trace",
                     "solvers.solve_planar_trace_body"),
    "solvers.energy_series_s": ("solvers.energy_series",),
    "solvers.error_series_s": ("solvers.error_series",),
    "oracles.fem_s": ("oracles.displacement_fem_oracle",),
    "oracles.ode_bvp_s": ("oracles.annulus_m1_oracle",),
    "oracles.cesaro_s": ("oracles.cesaro_diagnostic",),
    "fields.dump_csv_s": ("fields.dump_field_csv",),
    "fields.equilibrium_residual_s": ("fields.equilibrium_residual",),
    "fem2d.ops_s": ("fem2d.RectOps", "fem2d.RadialOps"),
    "meshes.build_s": ("meshes.build_rectangle_mesh",
                       "meshes.build_radial_grid"),
    "particular.build_s": ("particular.",),
    "cli.import_s": ("cli.import",),
}
SELF_LAYERS = ("python", "cli", "experiments", "basis", "solvers", "oracles",
               "fields", "fem2d", "meshes", "particular", "materials", "trace")
COUNT_METRICS = ("basis.lu_nnz", "basis.op_solves", "oracles.lu_nnz",
                 "solvers.cholesky_calls", "experiments.basis_hits",
                 "experiments.basis_misses", "experiments.oracle_hits",
                 "experiments.oracle_misses")
BYTE_METRICS = ("experiments.cache_bytes_written", "fields.out_bytes")
BASIS_BUILDERS = {"basis.solve_basis_rectangle", "basis.solve_basis_annulus",
                  "basis.airy_bump_basis"}


def per_layer_units() -> dict:
    units = {m: "s" for m in SPAN_METRICS}
    units.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({m: "bytes" for m in BYTE_METRICS})
    units.update({"trace.coverage": "ratio", "trace.overhead_s": "s"})
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Children:
    """Starts child processes one at a time and stops any still running."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.current = None

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env.update(PYTHONPATH=str(ROOT / "src"), SB_CACHE_DIR=str(cache),
                   OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                   OMP_NUM_THREADS=str(BLAS_THREADS))
        return env

    def run(self, argv, cache, log: Path):
        """(exit code, wall seconds, peak RSS in MB, start time); code None
        on timeout."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, 0.0, 0.0, 0.0
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env(cache),
                                    stdout=out, stderr=subprocess.STDOUT)
            self.current = proc
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.current = None
        code = proc.returncode if proc.returncode >= 0 else None
        return code, wall, usage.ru_maxrss / 1024.0, t0

    def output(self, argv, cache: Path) -> str:
        timeout = self.deadline - time.monotonic()
        res = subprocess.run(argv, cwd=ROOT, env=self.env(cache),
                             capture_output=True, text=True,
                             timeout=max(timeout, 1.0))
        if res.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {res.returncode}: "
                             f"{res.stderr.strip()[-300:]}")
        return res.stdout

    def stop(self):
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()


def stressbasis(*args) -> list:
    return [sys.executable, "-m", "stressbasis", *args]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def snapshot(cache: Path) -> dict:
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in os.scandir(cache) if e.is_file()}


def written_files(before: dict, after: dict) -> list:
    return sorted(n for n in after if before.get(n) != after[n])


def setup(wl, seed, ref, tmp: Path, children: Children):
    """Dump presets, write configs, fill the warm cache: (seconds, configs,
    cache template or None)."""
    t0 = time.perf_counter()
    tmp.mkdir(parents=True)
    dumps = {}
    for run in wl.runs:
        if run.preset not in dumps:
            dumps[run.preset] = json.loads(children.output(
                stressbasis("preset", "dump", run.preset), tmp))
    configs = []
    for i, (run, factor) in enumerate(zip(wl.runs, load_factors(wl, seed))):
        path = tmp / f"config-{i}-{run.key}.json"
        path.write_text(json.dumps(make_config(dumps[run.preset], run,
                                               factor), indent=1))
        configs.append(path)
    template = None
    if wl.warm:
        template = tmp / "cache"
        template.mkdir()
        for i, (run, cfg) in enumerate(zip(wl.runs, configs)):
            out = tmp / f"fill-out-{i}"
            code, *_ = children.run(
                stressbasis("run", "--config", str(cfg), "--out", str(out)),
                template, tmp / f"fill-{i}.log")
            if code != 0:
                raise BenchError(f"cache fill: {run.key} exited {code}")
            bad = mismatches(out, ref[run.key])
            if bad:
                raise BenchError(f"cache fill: {run.key} differs from the "
                                 f"record: {bad[:3]}")
            shutil.rmtree(out)
    return time.perf_counter() - t0, configs, template


# ---------------------------------------------------------------------------
# Iterations
# ---------------------------------------------------------------------------

def mismatches(out: Path, ref_run: dict) -> list:
    try:
        return compare(extract(str(out), ref_run["closing"]), ref_run)
    except (OSError, KeyError, ValueError) as exc:
        return [("outputs", f"unreadable: {exc}", "report and CSVs")]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def iteration(wl, configs, template, ref, tmp: Path, idx: int,
              traced: bool, children: Children) -> dict:
    cache = tmp / f"cache-{idx}"
    if template is not None:
        shutil.copytree(template, cache)
    else:
        cache.mkdir()
    runs = []
    for i, (run, cfg) in enumerate(zip(wl.runs, configs)):
        out = tmp / f"out-{idx}-{i}"
        args = ["run", "--config", str(cfg), "--out", str(out)]
        spans_file = tmp / f"spans-{idx}-{i}.json"
        argv = ([sys.executable, str(BENCH / "trace_child.py"),
                 str(spans_file), f"{idx}.{i}", *args] if traced
                else stressbasis(*args))
        before = snapshot(cache)
        code, wall, rss, t0 = children.run(argv, cache,
                                           tmp / f"run-{idx}-{i}.log")
        written = written_files(before, snapshot(cache))
        row = {"run": run.key, "wall_s": wall, "peak_rss_mb": rss,
               "exit": code, "cache_files_written": len(written),
               "cache_bytes_written": sum((cache / n).stat().st_size
                                          for n in written),
               "out_bytes": dir_bytes(out) if out.exists() else 0}
        if traced and spans_file.exists():
            row["trace"] = with_process_spans(
                json.loads(spans_file.read_text()), t0, t0 + wall)
            spans_file.unlink()
        judge(row, out, ref[run.key], wl.warm)
        runs.append(row)
        shutil.rmtree(out, ignore_errors=True)
        if code is None:
            break
    shutil.rmtree(cache)
    return {"traced": traced, "wall_s": sum(r["wall_s"] for r in runs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs), "runs": runs}


def judge(row: dict, out: Path, ref_run: dict, warm: bool):
    """Mark a preset run failed, and unexpected unless it is a recorded
    known defect."""
    problems = []
    known = False
    if row["exit"] != 0:
        problems.append(f"exit {row['exit']}")
    else:
        bad = mismatches(out, ref_run)
        if bad:
            known = warm and known_defect(ref_run, bad)
            problems += [f"{k}: got {got!r}, recorded {want!r}"
                         for k, got, want in bad]
    expected_writes = 0 if warm else ref_run["cold_cache_writes"]
    if row["cache_files_written"] != expected_writes:
        problems.append(f"cache files written {row['cache_files_written']}, "
                        f"expected {expected_writes}")
        known = False
    if "trace" in row:
        lookups = cache_lookups(row["trace"]["spans"])
        hits = lookups["experiments.basis_hits"] + \
            lookups["experiments.oracle_hits"]
        misses = lookups["experiments.basis_misses"] + \
            lookups["experiments.oracle_misses"]
        if (warm and misses) or (not warm and hits):
            problems.append(f"cache hits {hits}, misses {misses}")
            known = False
    row["failed"] = bool(problems)
    row["known_defect"] = known
    row["problems"] = problems


# ---------------------------------------------------------------------------
# Trace analysis
# ---------------------------------------------------------------------------

def with_process_spans(trace: dict, start: float, end: float) -> dict:
    """Add interpreter start-up and exit spans, timed from this process.

    ``time.perf_counter`` reads CLOCK_MONOTONIC, one clock for every process
    on the machine, so the child's timestamps and ours compare directly.
    """
    trace["spans"] += [["python.startup", start, trace["started"], -1, None],
                       ["python.exit", trace["finished"], end, -1, None]]
    return trace


def _children_of(spans) -> list:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def _has_descendant(spans, kids, i, names) -> bool:
    todo = list(kids[i])
    while todo:
        j = todo.pop()
        if spans[j][0] in names:
            return True
        todo += kids[j]
    return False


def cache_lookups(spans) -> dict:
    """Hits and misses of the basis and FEM-oracle caches in one run."""
    kids = _children_of(spans)
    out = dict.fromkeys(("experiments.basis_hits", "experiments.basis_misses",
                         "experiments.oracle_hits",
                         "experiments.oracle_misses"), 0)
    for i, (name, _, _, _, tag) in enumerate(spans):
        if name == "experiments.get_basis":
            kind, builders = "basis", BASIS_BUILDERS
        elif name == "experiments.get_oracle" and tag == "fem":
            kind, builders = "oracle", {"oracles.displacement_fem_oracle"}
        else:
            continue
        built = _has_descendant(spans, kids, i, builders)
        out[f"experiments.{kind}_{'misses' if built else 'hits'}"] += 1
    return out


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in patterns)


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    kids = _children_of(spans)
    dur = [s[2] - s[1] for s in spans]
    out = dict.fromkeys(SPAN_METRICS, 0.0)
    for metric, patterns in SPAN_METRICS.items():
        for i, s in enumerate(spans):
            if not _matches(s[0], patterns):
                continue
            p = s[3]
            while p >= 0 and not _matches(spans[p][0], patterns):
                p = spans[p][3]
            if p < 0:
                out[metric] += dur[i]
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for i, s in enumerate(spans):
        layer = s[0].split(".")[0]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] += dur[i] - sum(dur[j] for j in kids[i])
    out.update(trace["counters"])
    out.update(cache_lookups(spans))
    return out


def covered_s(trace: dict) -> float:
    """Time inside top-level spans (they do not overlap)."""
    return sum(s[2] - s[1] for s in trace["spans"] if s[3] < 0)


def traced_iteration_metrics(it: dict) -> dict:
    traced = [r["trace"] for r in it["runs"] if "trace" in r]
    total = {}
    for trace in traced:
        for k, v in layer_metrics(trace).items():
            total[k] = total.get(k, 0) + v
    total["experiments.cache_bytes_written"] = sum(
        r["cache_bytes_written"] for r in it["runs"])
    total["fields.out_bytes"] = sum(r["out_bytes"] for r in it["runs"])
    total["trace.coverage"] = sum(map(covered_s, traced)) / it["wall_s"]
    return total


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail_percentile(samples) -> tuple:
    """Highest of p50..p99 with at least ten samples above it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "source_sha256": source_digest(), "seed": seed,
            "nproc": NPROC, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def measure(args) -> dict:
    wl = (SMOKE if args.smoke else WORKLOADS).get(args.workload)
    if wl is None:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "stressbasis" / "__init__.py").is_file():
        raise BenchError(f"no stressbasis sources under {ROOT / 'src'}")
    if not REFERENCE.is_file():
        raise BenchError(f"missing correctness record {REFERENCE}")
    scale = "smoke" if args.smoke else "full"
    ref = json.loads(REFERENCE.read_text())["scales"][scale][wl.name]

    started = time.monotonic()
    children = Children(started + RUN_LIMIT_S)
    tmp = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        setups = []
        n_setups = 1 if (wl.warm or args.trace) else COLD_SETUPS
        for k in range(n_setups):
            secs, configs, template = setup(wl, args.seed, ref,
                                            tmp / f"setup-{k}", children)
            setups.append(secs)
        t0 = time.monotonic()
        iters = []
        kinds = [False, True] if args.trace else [False]
        while True:
            traced = kinds[len(iters) % len(kinds)]
            it = iteration(wl, configs, template, ref, tmp, len(iters),
                           traced, children)
            iters.append(it)
            if any(r["exit"] is None for r in it["runs"]):
                break
            elapsed = time.monotonic() - t0
            nxt = kinds[len(iters) % len(kinds)]
            typical = [i["wall_s"] for i in iters if i["traced"] == nxt]
            if len(iters) >= len(kinds) and \
                    elapsed + statistics.median(typical) > args.seconds:
                break
    finally:
        children.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return {"workload": wl.name, "smoke": args.smoke, "setups": setups,
            "iterations": iters, "factors": load_factors(wl, args.seed),
            "provenance": provenance(args.seed)}


def summarize(res: dict, trace: bool) -> dict:
    iters = res["iterations"]
    runs = [r for it in iters for r in it["runs"]]
    failed = [r for r in runs if r["failed"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    plain = [it for it in iters if not it["traced"]]
    walls = [it["wall_s"] for it in plain]
    lines = [f"workload {res['workload']}: {len(iters)} iterations, "
             f"{len(runs)} preset runs, load factors {res['factors']}"]
    for r in runs:
        lines.append(f"  {r['run']:<24} {r['wall_s']:8.3f} s "
                     f"{r['peak_rss_mb']:8.1f} MB"
                     + ("  (traced)" if "trace" in r else "")
                     + ("" if not r["failed"] else
                        ("  KNOWN DEFECT: " if r["known_defect"]
                         else "  FAILED: ") + "; ".join(r["problems"])))
    tail = tail_percentile(walls)
    lines.append(f"run_s: median {statistics.median(walls):.4f} s, "
                 + (f"p{tail[0]} {tail[1]:.4f} s, " if tail else
                    "tail percentile n/a (needs >= 20 samples), ")
                 + f"samples {len(walls)}")
    lines.append(f"fail_ratio: {len(failed)}/{len(runs)} = "
                 f"{len(failed) / len(runs):.4f} ratio "
                 f"({len(failed) - len(unexpected)} of them the recorded "
                 "warm-cache defect)")
    lines.append("provenance: " + json.dumps(res["provenance"]))
    if not trace:
        metrics = {
            "run_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"]
                                             for it in plain),
            "setup_s": statistics.median(res["setups"]),
        }
        units = END_TO_END
    else:
        traced = [traced_iteration_metrics(it) for it in iters
                  if it["traced"]]
        units = per_layer_units()
        # counts repeat exactly; median_low keeps them whole numbers
        metrics = {m: (statistics.median if units[m] in ("s", "ratio")
                       else statistics.median_low)(t.get(m, 0) for t in traced)
                   for m in units if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(
            it["wall_s"] for it in iters if it["traced"]) - \
            statistics.median(walls)
        timed = {m: v for m, v in metrics.items()
                 if m in SPAN_METRICS}
        selfs = {m: v for m, v in metrics.items() if m.endswith(".self_s")}
        lines.append(f"largest span metric: {max(timed, key=timed.get)}; "
                     f"largest layer self time: {max(selfs, key=selfs.get)}")
    for m, v in metrics.items():
        lines.append(f"{m}: {v:.6g} {units[m]}")
    result = {"correct": not unexpected, "attempted": len(runs),
              "failed": len(failed),
              "metrics": {m: {"value": v, "unit": units[m]}
                          for m, v in metrics.items()}}
    return {"lines": lines, "result": result}


def write_spans(res: dict) -> Path:
    """All spans of a traced run as [name, start, end, parent, run id]; the
    parent is an index among the spans of the same preset run."""
    spans = [s[:4] + [r["trace"]["run"]]
             for it in res["iterations"] for r in it["runs"] if "trace" in r
             for s in r["trace"]["spans"]]
    path = WORK / f"spans-{res['workload']}-seed{res['provenance']['seed']}.json"
    path.write_text(json.dumps(spans))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny meshes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        res = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = summarize(res, bool(args.trace))
    if args.trace:
        out["lines"].append(f"spans: {write_spans(res)}")
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
