import ast
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import stressbasis
from stressbasis.fields import (FieldError, SymTensorField2, dump_field_csv,
                                equilibrium_residual, l2_inner_tensor,
                                l2_norm_tensor, planar_trace, quad_metric,
                                scalar_gram, theta_factors)
from stressbasis.meshes import LoadingSpec

from helpers import constant_tensor_field


def test_theta_factors(ann_mesh):
    assert theta_factors(0, "cos") == (2 * np.pi, 0.0)
    assert theta_factors(0, "sin") == (0.0, 2 * np.pi)
    assert theta_factors(3, "cos") == (np.pi, np.pi)
    # a scalar (the planar trace) takes the normal-component factor
    assert quad_metric(ann_mesh, 0, "cos")[1][0] == 2 * np.pi
    assert quad_metric(ann_mesh, 0, "sin")[1][0] == 0.0
    assert quad_metric(ann_mesh, 2, "sin")[1][0] == np.pi


def test_constructor_validation(rect_mesh, ann_mesh):
    with pytest.raises(FieldError):
        SymTensorField2(rect_mesh)  # nothing to build from
    with pytest.raises(FieldError):
        SymTensorField2(rect_mesh, np.zeros((3, 5)))
    with pytest.raises(FieldError):
        comps = np.full((3, rect_mesh.n_nodes), np.nan)
        SymTensorField2(rect_mesh, comps)
    with pytest.raises(FieldError):  # radial fields need a wavenumber tag
        SymTensorField2(ann_mesh, np.zeros((3, ann_mesh.n_nodes)))
    with pytest.raises(FieldError):  # tags are radial-only
        constant_tensor_field(rect_mesh, 1, 0, 0, m=1, parity="cos")


def test_constant_field_inner_products(rect_mesh):
    A = constant_tensor_field(rect_mesh, 1.0, 2.0, 3.0)
    B = constant_tensor_field(rect_mesh, 4.0, 5.0, 6.0)
    # area 1; tensor contraction counts the shear twice
    assert l2_inner_tensor(A, B) == pytest.approx(1 * 4 + 2 * 5 + 2 * 3 * 6,
                                                  rel=1e-12)
    assert l2_norm_tensor(A) == pytest.approx(np.sqrt(1 + 4 + 2 * 9), rel=1e-12)
    tr = planar_trace(A)
    assert scalar_gram(rect_mesh, None, None, tr, tr) == pytest.approx(
        9.0, rel=1e-12)


def test_radial_constant_field_norm(ann_mesh):
    # |A|^2 = 2*pi * int_ra^rb (srr^2 + stt^2) r dr for an m=0 cos field
    A = constant_tensor_field(ann_mesh, 1.0, 1.0, 0.0, m=0, parity="cos")
    ra, rb = ann_mesh.domain.r_a, ann_mesh.domain.r_b
    exact = 2 * np.pi * 2 * (rb**2 - ra**2) / 2
    assert l2_norm_tensor(A) ** 2 == pytest.approx(exact, rel=1e-12)


def test_radial_constant_shear_norm_and_residual(ann_mesh):
    # sigma_rt = 1 (m = 0, sin): div = (0, 2/r), so the residual takes the
    # shear factor 2 pi, and the norm counts the shear twice
    A = constant_tensor_field(ann_mesh, 0.0, 0.0, 1.0, m=0, parity="sin")
    ra, rb = ann_mesh.domain.r_a, ann_mesh.domain.r_b
    assert equilibrium_residual(A).interior_norm ** 2 == pytest.approx(
        8 * np.pi * np.log(rb / ra), rel=1e-10)
    assert l2_norm_tensor(A) ** 2 == pytest.approx(
        2 * np.pi * (rb**2 - ra**2), rel=1e-10)


def test_radial_constant_normal_residual(ann_mesh):
    # sigma_rr = 1 (m = 0, cos): div = (1/r, 0) with the normal factor 2 pi
    A = constant_tensor_field(ann_mesh, 1.0, 0.0, 0.0, m=0, parity="cos")
    ra, rb = ann_mesh.domain.r_a, ann_mesh.domain.r_b
    assert equilibrium_residual(A).interior_norm ** 2 == pytest.approx(
        2 * np.pi * np.log(rb / ra), rel=1e-10)


def test_radial_body_force_is_rejected(ann_mesh):
    A = constant_tensor_field(ann_mesh, 1.0, 0.0, 0.0, m=0, parity="cos")
    with pytest.raises(FieldError):
        equilibrium_residual(A, LoadingSpec.for_rectangle(
            body_force=lambda x, y: (0.0 * x, 0.0 * y)))


def test_wavenumber_mismatch_raises(ann_mesh):
    A = constant_tensor_field(ann_mesh, 1, 0, 0, m=0, parity="cos")
    B = constant_tensor_field(ann_mesh, 1, 0, 0, m=1, parity="cos")
    with pytest.raises(FieldError):
        l2_inner_tensor(A, B)
    with pytest.raises(FieldError):
        A + B


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_inner_product_bilinearity(rect_mesh, rng, data):
    n = rect_mesh.n_nodes
    fld = arrays(np.float64, (3, n), elements=st.floats(-5, 5, width=64))
    A = SymTensorField2(rect_mesh, data.draw(fld))
    B = SymTensorField2(rect_mesh, data.draw(fld))
    C = SymTensorField2(rect_mesh, data.draw(fld))
    c = data.draw(st.floats(-3, 3))
    assert l2_inner_tensor(A, B) == pytest.approx(l2_inner_tensor(B, A),
                                                  rel=1e-10, abs=1e-10)
    lhs = l2_inner_tensor(c * A + B, C)
    rhs = c * l2_inner_tensor(A, C) + l2_inner_tensor(B, C)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    assert l2_inner_tensor(A, A) >= -1e-12


def test_field_arithmetic_consistency(rect_mesh, rng):
    a = rng.normal(size=(3, rect_mesh.n_nodes))
    b = rng.normal(size=(3, rect_mesh.n_nodes))
    A = SymTensorField2(rect_mesh, a)
    B = SymTensorField2(rect_mesh, b)
    C = 2.0 * A - B
    assert np.allclose(C.components, 2 * a - b)
    assert np.allclose(C.at_quad(), 2 * A.at_quad() - B.at_quad())
    # fields are values: a field keeps its constructor arguments and nodal
    # components, and evaluating it changes none of them
    for f in (A, C):
        before = dict(vars(f))
        f.divergence_quad(), f.edge_values("top")
        assert set(before) == {"mesh", "m", "parity", "fn", "div_fn", "parts",
                               "components"}
        assert all(getattr(f, k) is v for k, v in before.items())


def test_equilibrium_residual_uniform(rect_mesh):
    # a uniform stress is divergence-free but violates a traction-free boundary
    A = constant_tensor_field(rect_mesh, 0.0, -1.0, 0.0)
    rep = equilibrium_residual(A, LoadingSpec.for_rectangle())
    assert rep.interior_norm < 1e-12
    assert rep.boundary_mismatch > 0.5
    # and matches the consistent loading exactly
    loading = LoadingSpec.for_rectangle({
        "top": lambda x, y: (np.zeros_like(x), np.full_like(x, -1.0)),
        "bottom": lambda x, y: (np.zeros_like(x), np.full_like(x, 1.0)),
    })
    rep2 = equilibrium_residual(A, loading)
    assert rep2.boundary_mismatch < 1e-12


def test_dump_field_csv(tmp_path, rect_mesh):
    A = constant_tensor_field(rect_mesh, 1.0, 2.0, 3.0)
    path = tmp_path / "field.csv"
    dump_field_csv(A, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,sxx,syy,sxy"
    assert len(lines) == 1 + rect_mesh.n_nodes


def _cell_by_cell_csv(field):
    """The CSV text formatted one cell at a time, as the format defines it."""
    fmt = "%.17g"
    radial = field.mesh.kind == "radial"
    lines = ["r,m,srr,stt,srt" if radial else "x,y,sxx,syy,sxy"]
    coords = field.mesh.node_coords
    for i in range(field.mesh.n_nodes):
        lead = [fmt % coords[i], str(field.m)] if radial else \
            [fmt % coords[i, 0], fmt % coords[i, 1]]
        lines.append(",".join(lead + [fmt % field.components[k][i]
                                      for k in range(3)]))
    return "\n".join(lines) + "\n"


def test_field_csv_matches_cell_by_cell_format(tmp_path, rect_mesh, ann_mesh,
                                               rng):
    specials = [-0.0, 5e-324, 1 / 3, 2.0**53 + 2, -1e22, 123456789.0]
    for mesh, tags in ((rect_mesh, {}), (ann_mesh, {"m": 2, "parity": "sin"})):
        comps = rng.standard_normal((3, mesh.n_nodes))
        for k in range(3):
            comps[k, k:k + len(specials)] = specials
        field = SymTensorField2(mesh, comps, **tags)
        want = _cell_by_cell_csv(field)
        path = tmp_path / "field.csv"
        # twice: the second dump reuses the node cells of the first
        for _ in range(2):
            dump_field_csv(field, str(path))
            assert path.read_bytes() == want.encode()
        assert "-0," in want and "4.9406564584124654e-324" in want


# the one reader of the quadrature weights outside fem2d, which defines them
# and assembles the finite-element operators from them: the L2 metric (the
# load resultants of the tests are vector integrals, and read them in
# tests/helpers.py)
_WEIGHT_READERS = {"fields.quad_metric"}


def _scopes_where(tree, module, hit):
    """Qualified names of the functions in ``tree`` holding a node that
    ``hit`` accepts, once per such node."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if hit(node):
            found.append(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def _package_sources():
    """(module name, syntax tree) of every module of the package."""
    src = os.path.dirname(stressbasis.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                yield name[:-3], ast.parse(f.read())


def test_every_definition_is_named_by_the_package():
    """The package holds what a run executes: every module-level function or
    class, and every non-dunder method, is named by a package module other
    than __init__ (a method through an attribute). The console script
    cli.main and the package's lazy ``__getattr__`` (PEP 562), both called
    from outside the package, are exempt; the tests' own instruments live in
    tests/helpers.py."""
    trees = dict(_package_sources())
    names, attrs = set(), set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unnamed = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in names | attrs:
                unnamed.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unnamed += [f"{module}.{node.name}.{sub.name}"
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))
                            and sub.name not in attrs]
    assert sorted(set(unnamed) - {"cli.main", "__init__.__getattr__"}) == []


def test_package_names_resolve_on_first_access():
    """Every name of ``stressbasis.__all__`` is the object of its defining
    module; an unknown name is an AttributeError; importing the package
    loads no numpy, and ``import *`` binds every name of __all__."""
    for name in stressbasis.__all__:
        obj = getattr(stressbasis, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("stressbasis.")
        assert getattr(home, name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        stressbasis.no_such_name
    code = ("import sys, stressbasis; light = 'numpy' not in sys.modules; "
            "from stressbasis import *; "
            "print(light, all(n in globals() for n in stressbasis.__all__))")
    src = os.path.dirname(os.path.dirname(stressbasis.__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "True"]


def test_only_quad_metric_reads_the_weights():
    def reads_weights(node):
        return isinstance(node, ast.Attribute) and node.attr in ("qw", "wq")
    reads = [scope for module, tree in _package_sources() if module != "fem2d"
             for scope in _scopes_where(tree, module, reads_weights)]
    assert "fields.quad_metric" in reads
    assert set(reads) <= _WEIGHT_READERS, sorted(set(reads) - _WEIGHT_READERS)


def test_only_the_cache_file_pair_calls_numpy_file_io():
    """Cache files have one layout: its writer and reader are the only
    callers of numpy's file I/O, and the reader the only user of zipfile."""
    def calls_numpy_io(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("savez", "load", "loadtxt")
                and getattr(node.func.value, "id", None) == "np")

    def uses_zipfile(node):
        return (isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "zipfile")
    calls = [scope for module, tree in _package_sources()
             for scope in _scopes_where(tree, module, calls_numpy_io)]
    assert sorted(calls) == ["_cache.read_tagged", "_cache.write_tagged"], \
        calls
    users = {scope for module, tree in _package_sources()
             for scope in _scopes_where(tree, module, uses_zipfile)}
    assert users == {"_cache.read_tagged"}, users


def test_only_quad_metric_calls_theta_factors():
    """The theta integrals of the area measure enter inner products only
    through the metric's component factors."""
    def calls_theta_factors(node):
        return isinstance(node, ast.Call) and "theta_factors" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    calls = [scope for module, tree in _package_sources()
             for scope in _scopes_where(tree, module, calls_theta_factors)]
    assert calls == ["fields.quad_metric"], calls
