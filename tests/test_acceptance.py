"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Two criteria are known-red by a small, converged margin (the desk-scale
annulus energy bound at N=10 and the corner-pressure energy bound at N=20);
they are asserted at their strict bounds and expected to fail. See the
docstrings of the individual tests.
"""
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from stressbasis.basis import solve_basis_annulus
from stressbasis.experiments import get_preset, run_experiment
from stressbasis.meshes import Domain, build_radial_grid

# reference spectra the bases must reproduce
RECT_101_TARGETS = (58.54, 102.37, 103.54)
ANNULUS_LAM1 = 293.34
ANNULUS_PAIR = 348.76


def record(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    done = {}

    def get(name, full=False):
        key = (name, full)
        if key not in done:
            cfg = get_preset(name)
            tag = f"{name}_full" if full else name
            done[key] = run_experiment(cfg, str(out / tag), full=full)
        return done[key]

    return get


def test_criterion_1_rectangle_eigenvalues(rect101_basis3_48):
    lam = rect101_basis3_48.eigenvalues[:3]
    secs = rect101_basis3_48.provenance["build_seconds"]
    devs = [abs(l - t) / t for l, t in zip(lam, RECT_101_TARGETS)]
    ok = all(d <= 0.01 for d in devs) and secs <= 300
    record(1, ok,
           f"1x1.01 rectangle lambda1..3 = {np.round(lam, 3).tolist()} "
           f"vs {list(RECT_101_TARGETS)} (max dev {max(devs):.2%}), "
           f"built in {secs:.0f}s (limit 300s)")


def test_criterion_2_annulus_merged_spectrum():
    t0 = time.perf_counter()
    basis = solve_basis_annulus(
        build_radial_grid(Domain.annulus(0.1, 0.3), 128), range(7), 8)
    secs = time.perf_counter() - t0
    lam = basis.eigenvalues
    lam1_dev = abs(lam[0] - ANNULUS_LAM1) / ANNULUS_LAM1
    # locate the degenerate pair nearest the reference value
    pair_dev = np.inf
    gap = np.inf
    for i in range(len(lam) - 1):
        mean = (lam[i] + lam[i + 1]) / 2
        d = abs(mean - ANNULUS_PAIR) / ANNULUS_PAIR
        if d < pair_dev:
            pair_dev = d
            gap = abs(lam[i + 1] - lam[i]) / mean
    ok = lam1_dev <= 0.01 and pair_dev <= 0.01 and gap <= 1e-6 and secs <= 60
    record(2, ok,
           f"annulus m=0..6 lambda1 dev {lam1_dev:.2%}, pair dev "
           f"{pair_dev:.2%}, intra-pair gap {gap:.1e}, {secs:.0f}s (limit 60s)")


def test_criterion_3_example1_energy_convergence(runner):
    """Known red: the converged N=10 energy excess is 1.368e-4 vs the 1e-4
    bound (a rounded reference value); monotonicity and the full-scale slope
    hold. Asserted at the strict bound."""
    desk = runner("example1")
    full = runner("example1", full=True)
    c_energy = desk["checks"]["energy_within_0p01pct_at_10"]
    c_mono = desk["checks"]["monotone_energy"]
    slope = full["slopes"]["PT"]
    ok = c_energy["passed"] and c_mono["passed"] and -1.8 <= slope <= -1.2
    record(3, ok,
           f"energy excess at N=10: {c_energy['value']:.3e} (bound 1e-4), "
           f"monotone: {c_mono['passed']}, full-scale slope {slope:.3f} "
           f"(target -1.5 +/- 0.3)")


def test_criterion_4_example2_regularity_ordering(runner):
    """Known red: the converged CP energy excess at N=20 is 1.38e-2 vs the
    1e-2 bound (it first drops below 1% at N=21); both slopes and their
    ordering hold. Asserted at the strict bound."""
    dp = runner("example2_dp")
    cp = runner("example2_cp")
    s_dp = dp["slopes"]["PT"]
    s_cp = cp["slopes"]["PT"]
    c_energy = cp["checks"]["energy_within_1pct_at_20"]
    ok = (s_cp < s_dp
          and abs(s_dp + 0.22) <= 0.15 and abs(s_cp + 0.72) <= 0.2
          and c_energy["passed"])
    record(4, ok,
           f"slope DP {s_dp:.3f} (-0.22 +/- 0.15), CP {s_cp:.3f} "
           f"(-0.72 +/- 0.2), ordering CP<DP: {s_cp < s_dp}, CP energy "
           f"excess at N=20: {c_energy['value']:.3e} (bound 1e-2)")


def test_criterion_5_example4_body_force(runner):
    rep = runner("example4")
    c0 = rep["checks"]["error_at_0"]
    slope = rep["slopes"]["PT_body"]
    ok = c0["passed"] and abs(slope + 0.58) <= 0.25
    record(5, ok,
           f"E_0 = {c0['value']:.4f} (0.04 +/- 0.01), slope {slope:.3f} "
           f"(-0.58 +/- 0.25)")


def test_criterion_6_example5_net_hole_force(runner):
    rep = runner("example5")
    c = rep["checks"]
    F_pt = rep["cesaro"]["PT"]
    # sign verification: the counterclockwise-loop closed form is negative
    sign_ok = F_pt[1] < 0
    ok = (c["pt_plateau"]["passed"] and c["se_below_plateau"]["passed"]
          and c["pt_cesaro_force"]["passed"] and c["se_cesaro_zero"]["passed"]
          and sign_ok)
    record(6, ok,
           f"PT plateau ratio {c['pt_plateau']['value']:.2f} (>= 0.8), SE/PT "
           f"{c['se_below_plateau']['value']:.1e} <= "
           f"{c['se_below_plateau']['bound']:.1e}, Cesaro |F2| dev "
           f"{c['pt_cesaro_force']['rel_dev']:.2%} (<= 5%), sign check "
           f"{'ok' if sign_ok else 'WRONG'}, SE Cesaro "
           f"{max(abs(v) for v in rep['cesaro']['SE']):.1e} (<= 1e-3)")


def test_criterion_7_example7_inhomogeneous(runner):
    dc = runner("example7_dc")
    ramp = runner("example7_ramp")
    s_dc = dc["slopes"]["SE"]
    s_ramp = ramp["slopes"]["SE"]
    c_energy = ramp["checks"]["energy_within_0p1pct_at_40"]
    ok = (s_ramp < s_dc
          and abs(s_dc + 0.22) <= 0.2 and abs(s_ramp + 0.42) <= 0.2
          and c_energy["passed"])
    record(7, ok,
           f"slope discontinuous {s_dc:.3f} (-0.22 +/- 0.2), ramp "
           f"{s_ramp:.3f} (-0.42 +/- 0.2), ordering ramp<dc: "
           f"{s_ramp < s_dc}, ramp energy excess at N=40: "
           f"{c_energy['value']:.2e} (bound 1e-3)")


def test_criterion_8_property_suite(ann_basis_m0, rect_basis, ann_mesh,
                                    iso_material):
    """The always-on property suite, asserted directly on the shared bases.

    The same properties are exercised in breadth in test_basis.py and
    test_solvers.py; this re-runs the headline bounds in one place.
    """
    from stressbasis.basis import _l2_gram, verify_basis
    from stressbasis.fields import equilibrium_residual
    from stressbasis.oracles import lame_oracle
    from stressbasis.particular import (axisym_airy_particular,
                                        oracle_as_particular)
    from stressbasis.solvers import solve_planar_trace, solve_strain_energy

    from helpers import galerkin_residual, mode_residuals, trace_gram

    checks = {}
    for tag, basis in (("annulus", ann_basis_m0), ("rectangle", rect_basis)):
        rep = verify_basis(basis)
        checks[f"{tag} L2/H1 orthogonality"] = rep.passed
        checks[f"{tag} trace-gram"] = \
            float(np.abs(trace_gram(basis) - _l2_gram(basis)).max()) <= 1e-6

    ps = axisym_airy_particular(ann_mesh)
    orc = lame_oracle(ann_mesh, 1.0)
    compat = solve_planar_trace(
        oracle_as_particular(orc.field, orc.loading).field, ann_basis_m0, 12)
    checks["compatible-field zero coefficients"] = \
        float(np.abs(compat.coeffs).max()) <= 1e-8

    se = solve_strain_energy(ps.field, ann_basis_m0, iso_material, 12)
    checks["Galerkin residual"] = \
        galerkin_residual(se, ann_basis_m0, iso_material) <= 1e-8
    checks["objective monotone"] = \
        bool(np.all(np.diff(se.diagnostics["objective"]) <= 1e-12))

    eq = equilibrium_residual(se.sigma_N, ps.loading)
    mode_res = mode_residuals(ann_basis_m0)
    budget = ps.interior_residual \
        + float(np.abs(se.coeffs) @ mode_res[se.mode_indices]) + 1e-10
    checks["equilibrium preserved"] = eq.interior_norm <= budget

    a1 = solve_planar_trace(ps.field, ann_basis_m0, 12).coeffs
    a2 = solve_planar_trace(ps.field, ann_basis_m0, 12).coeffs
    checks["PT material-blind (bit-identical)"] = a1.tobytes() == a2.tobytes()

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    record(8, ok, "all properties hold" if ok else f"failed: {failed}")


def test_criterion_9_out_of_scope_disclosure(runner):
    """The irregular-geometry field plots (external meshes / FEM references)
    are out of scope; the anisotropic constitutive path is covered on the
    square by the orthotropic preset plus the span-agreement bound."""
    rep = runner("example8_square_ortho")
    c = rep["checks"]["airy_span_energy"]
    ok = c["passed"]
    record(9, ok,
           "irregular-geometry examples disclosed as out of scope; "
           f"orthotropic square preset ran (all checks "
           f"{rep['all_checks_passed']}), eigen-vs-bump span energy "
           f"deviation {c['value']:.2e} (bound 1e-2)")
