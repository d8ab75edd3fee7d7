"""Command-line interface.

Verbs:
  basis build   --domain rectangle|annulus [geometry/mesh options] --out FILE
  basis verify  FILE
  run           PRESET | --config FILE   [--out DIR] [--full] [--no-cache]
  preset list   [--machine]
  preset dump   NAME
  oracle build  --preset NAME --out FILE

Exit codes: 0 success, 1 numeric failure, 2 usage error (including invalid
materials and meshes); errors print one line on stderr.
The basis/oracle cache directory is taken from $SB_CACHE_DIR.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .basis import BasisError, load_basis, save_basis, verify_basis
from .experiments import (ExperimentConfig, ExperimentError, UsageError,
                          get_preset, list_presets, run_experiment)
from .materials import MaterialError
from .meshes import MeshError
from .solvers import SolverError


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stressbasis",
                                 description="Stress-basis expansion toolkit")
    sub = ap.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("basis", help="build or verify a basis cache file")
    bsub = b.add_subparsers(dest="action", required=True)
    bb = bsub.add_parser("build")
    bb.add_argument("--domain", choices=["rectangle", "annulus"],
                    required=True)
    bb.add_argument("--Lx", type=float, default=1.0)
    bb.add_argument("--Ly", type=float, default=1.0)
    bb.add_argument("--r-a", type=float, default=0.1)
    bb.add_argument("--r-b", type=float, default=0.3)
    bb.add_argument("--nx", type=int, default=48)
    bb.add_argument("--ny", type=int, default=48)
    bb.add_argument("--nel", type=int, default=128)
    bb.add_argument("--n-modes", type=int, default=20)
    bb.add_argument("--wavenumbers", type=str, default="0",
                    help="comma-separated azimuthal wavenumbers (annulus)")
    bb.add_argument("--backend", choices=["eigen", "airy"], default="eigen")
    bb.add_argument("--out", required=True)
    bv = bsub.add_parser("verify")
    bv.add_argument("path")

    r = sub.add_parser("run", help="run an experiment")
    r.add_argument("preset", nargs="?", help="preset name")
    r.add_argument("--config", help="path to a JSON experiment config")
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

    o = sub.add_parser("oracle", help="build and cache a reference solution")
    osub = o.add_subparsers(dest="action", required=True)
    ob = osub.add_parser("build")
    ob.add_argument("--preset", required=True)
    ob.add_argument("--out", required=True)
    return ap


def _cmd_basis_build(args) -> int:
    from .experiments import _build_domain, _build_mesh, get_basis
    if args.domain == "rectangle":
        domain = _build_domain({"kind": "rectangle", "Lx": args.Lx,
                                "Ly": args.Ly})
        mesh = _build_mesh(domain, {"nx": args.nx, "ny": args.ny})
    else:
        domain = _build_domain({"kind": "annulus", "r_a": args.r_a,
                                "r_b": args.r_b})
        mesh = _build_mesh(domain, {"nel": args.nel})
    wn = [int(s) for s in args.wavenumbers.split(",") if s.strip()]
    basis = get_basis(mesh, {"backend": args.backend, "n_modes": args.n_modes,
                             "wavenumbers": wn}, use_cache=False)
    save_basis(basis, args.out)
    rep = verify_basis(basis)
    print(f"built {len(basis)} modes -> {args.out}")
    print(rep)
    return 0 if rep.passed else 1


def _cmd_basis_verify(args) -> int:
    basis = load_basis(args.path)
    rep = verify_basis(basis)
    print(rep)
    return 0 if rep.passed else 1


def _cmd_run(args) -> int:
    if bool(args.preset) == bool(args.config):
        raise UsageError("give exactly one of PRESET or --config PATH")
    if args.preset:
        cfg = get_preset(args.preset)
    else:
        with open(args.config) as f:
            try:
                raw = json.load(f)
            except ValueError as exc:  # malformed JSON or not text
                raise UsageError(f"{args.config} is not JSON: {exc}") from None
        cfg = ExperimentConfig.from_dict(raw)
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
    from .experiments import (_build_domain, _build_material, _build_mesh,
                              _build_particular, _save_oracle_field,
                              get_oracle)
    cfg = get_preset(args.preset)
    domain = _build_domain(cfg.domain)
    mesh = _build_mesh(domain, cfg.mesh)
    material = _build_material(cfg.material)
    ps = _build_particular(mesh, cfg.particular, material)
    orc = get_oracle(mesh, cfg.oracle, ps.loading, cfg.material,
                     loading_id=cfg.particular, use_cache=False)
    if orc is None:
        raise UsageError(f"preset {cfg.name} declares no reference solution")
    _save_oracle_field(orc, args.out)
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
    except (UsageError, MaterialError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, BasisError, SolverError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
