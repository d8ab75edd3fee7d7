"""Command-line interface.

Verbs:
  basis build   PRESET | --config FILE   --out FILE
  basis verify  FILE
  run           PRESET | --config FILE   [--out DIR] [--full] [--no-cache]
  preset list   [--machine]
  preset dump   NAME
  oracle build  PRESET | --config FILE   --out FILE

Exit codes: 0 success, 1 numeric failure (``config.NumericFailure``), 2 usage
error (``config.UsageError``, the base of invalid materials and meshes too);
errors print one line on stderr. The verbs that build nothing (``preset``,
``--help``, a config the schema refuses) load neither numpy nor scipy: the
modules that build are imported inside the verbs that use them.
The basis/oracle cache directory is taken from $SB_CACHE_DIR.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .config import (ExperimentConfig, NumericFailure, UsageError, get_preset,
                     list_presets)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stressbasis",
                                 description="Stress-basis expansion toolkit")
    sub = ap.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("basis", help="build or verify a basis cache file")
    bsub = b.add_subparsers(dest="action", required=True)
    bb = bsub.add_parser("build")
    bb.add_argument("--out", required=True)
    bv = bsub.add_parser("verify")
    bv.add_argument("path")

    r = sub.add_parser("run", help="run an experiment")
    r.add_argument("--out", default=None, help="output directory")
    r.add_argument("--full", action="store_true",
                   help="full-scale settings where the preset defines them")
    r.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("preset", help="list or dump presets")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.add_argument("--machine", action="store_true")
    pd = psub.add_parser("dump")
    pd.add_argument("name")

    o = sub.add_parser("oracle", help="build a reference solution")
    osub = o.add_subparsers(dest="action", required=True)
    ob = osub.add_parser("build")
    ob.add_argument("--out", required=True)

    for verb in (bb, r, ob):  # one way to name a problem
        verb.add_argument("preset", nargs="?", help="preset name")
        verb.add_argument("--config", help="path to a JSON experiment config")
    return ap


def _finite(text: str, kind=float):
    """A JSON number or constant as ``kind``, refusing NaN, infinities and
    literals that overflow a float (1e400, or 1 followed by 400 zeros)."""
    if not math.isfinite(float(text)):
        raise ValueError(f"{text[:24]}{'...' * (len(text) > 24)} "
                         "is not a finite number")
    return kind(text)


def _config(args) -> ExperimentConfig:
    """The experiment config named by PRESET or read from --config."""
    if bool(args.preset) == bool(args.config):
        raise UsageError("give exactly one of PRESET or --config PATH")
    if args.preset:
        return get_preset(args.preset)
    with open(args.config) as f:
        try:
            raw = json.load(f, parse_float=_finite, parse_constant=_finite,
                            parse_int=lambda text: _finite(text, int))
        except ValueError as exc:  # malformed JSON, not text or not finite
            raise UsageError(f"{args.config} is not JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def _cmd_basis_build(args) -> int:
    cfg = _config(args)
    if cfg.basis["backend"] == "airy":
        raise UsageError("airy bases are built on every run, never cached")
    from .basis import save_basis
    from .experiments import _build_domain, _build_mesh, get_basis
    mesh = _build_mesh(_build_domain(cfg.domain), cfg.mesh)
    basis = get_basis(mesh, cfg.basis, use_cache=False)
    save_basis(basis, args.out)
    print(f"built {len(basis)} modes -> {args.out}")
    print(basis.report)
    return 0 if basis.report.passed else 1


def _cmd_basis_verify(args) -> int:
    from .basis import BasisError, load_basis, verify_basis
    try:
        basis = load_basis(args.path)
    except BasisError as exc:  # not a basis file: the argument is wrong
        raise UsageError(str(exc)) from None
    rep = verify_basis(basis)
    print(rep)
    return 0 if rep.passed else 1


def _cmd_run(args) -> int:
    cfg = _config(args)
    from .experiments import run_experiment
    out = args.out or f"out/{cfg.name}"
    report = run_experiment(cfg, out, full=args.full,
                            use_cache=not args.no_cache)
    for name, res in sorted(report["checks"].items()):
        status = "PASS" if res.get("passed") else "FAIL"
        print(f"{status} {report['name']}.{name}: "
              f"{json.dumps({k: v for k, v in res.items() if k != 'passed'})}")
    print(f"report: {out}/report.json")
    return 0


def _cmd_preset(args) -> int:
    if args.action == "list":
        print(list_presets(machine=args.machine))
        return 0
    cfg = get_preset(args.name)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_oracle_build(args) -> int:
    cfg = _config(args)
    from .experiments import (_build_domain, _build_mesh, _build_particular,
                              get_oracle)
    from .fields import dump_field_csv
    mesh = _build_mesh(_build_domain(cfg.domain), cfg.mesh)
    ps = _build_particular(mesh, cfg.particular, use_cache=False)
    orc = get_oracle(mesh, cfg.oracle, ps.loading, cfg.material,
                     loading_id=cfg.particular, use_cache=False)
    if orc is None:
        raise UsageError(f"config {cfg.name} declares no reference solution")
    dump_field_csv(orc.field, args.out)
    print(f"{orc.method} reference -> {args.out}")
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.verb == "basis":
            return (_cmd_basis_build if args.action == "build"
                    else _cmd_basis_verify)(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "preset":
            return _cmd_preset(args)
        if args.verb == "oracle":
            return _cmd_oracle_build(args)
        raise UsageError(f"unknown verb {args.verb!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
