#!/usr/bin/env python3
"""Run every built-in experiment preset and print a one-line summary per check.

Usage:
    python3 scripts/run_all.py [--out DIR] [--full] [--no-cache] [PRESET ...]

Without preset arguments all presets are run (desk scale unless --full).
Artifacts land in DIR/<preset>/ (default: out/). Exits 0 even when individual
acceptance checks are red (those are reported in each report.json); exits 1 on
a numeric failure.
"""
import argparse
import json
import sys

from stressbasis.config import PRESET_NAMES, NumericFailure, get_preset
from stressbasis.experiments import run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("presets", nargs="*", default=None)
    ap.add_argument("--out", default="out")
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--no-cache", action="store_true")
    args = ap.parse_args()

    names = args.presets or list(PRESET_NAMES)
    n_red = 0
    for name in names:
        cfg = get_preset(name)
        try:
            report = run_experiment(cfg, f"{args.out}/{name}", full=args.full,
                                    use_cache=not args.no_cache)
        except NumericFailure as exc:
            print(f"ERROR {name}: {exc}", file=sys.stderr)
            return 1
        for check, res in sorted(report["checks"].items()):
            status = "PASS" if res.get("passed") else "FAIL"
            n_red += not res.get("passed")
            detail = {k: v for k, v in res.items() if k != "passed"}
            print(f"{status} {name}.{check}: {json.dumps(detail)}")
    print(f"done: {len(names)} presets, {n_red} red check(s); "
          f"reports under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
