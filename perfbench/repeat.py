#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads rect_cold,...]
                                [--trace 0] [--save perfbench/results/x.json]

For each workload and each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the first and third quartile as a share of the median. A
benchmark is steady when each spread stays within a third of the metric's
bound in BENCHMARK.json. With ``--save`` the result lines of every run are
written too, with the spreads, as one JSON file.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-1000:]}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": wall, "result": result,
                         "provenance": json.loads(next(
                             ln for ln in lines
                             if ln.startswith("provenance: "))[12:])})
            print(f"{wl} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else None
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds.get(name)}
            if name in bounds:
                print(f"  {name}: median {med:.6g}, quartiles {q1:.6g} .. "
                      f"{q3:.6g}, spread {spread:.4f} (bound "
                      f"{bounds[name]})")
        report["workloads"][wl] = {"runs": runs, "summary": summary}
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
