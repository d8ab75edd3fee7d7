"""The benchmark's traced run (``perfbench/trace_child.py``) wraps stressbasis
functions by name, and ``perfbench/run.py`` sums spans by name. A missing
wrapped name makes ``--trace 1`` raise AttributeError; a missing span name
silently zeroes a per-layer metric. Both scripts are read with ``ast`` here,
never imported."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACE_CHILD = ast.parse((BENCH / "trace_child.py").read_text())
RUN = ast.parse((BENCH / "run.py").read_text())


def _literal(tree, name):
    """The literal value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


def _layer(name):
    return importlib.import_module(f"stressbasis.{name}")


LAYERS = _literal(TRACE_CHILD, "LAYERS")
FOREIGN = _literal(TRACE_CHILD, "FOREIGN")
CONSTRUCTORS = _literal(TRACE_CHILD, "CONSTRUCTORS")
HOT = _literal(TRACE_CHILD, "HOT")


def _attribute_lookups():
    """``layer.name`` for every ``mods["layer"].name`` in trace_child.py
    (the factorizations it counts, such as ``fem2d.splu``)."""
    return sorted({
        f"{node.value.slice.value}.{node.attr}"
        for node in ast.walk(TRACE_CHILD)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "mods"})


def _own_spans():
    """Span names that trace_child.py opens itself, not by wrapping."""
    return {node.args[0].value for node in ast.walk(TRACE_CHILD)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "begin" and node.args
            and isinstance(node.args[0], ast.Constant)}


def _span_names():
    """Every span name run.py reads: the SPAN_METRICS patterns that name one
    function, the string sets (BASIS_BUILDERS and the oracle builders), the
    names ``cache_lookups`` compares against, and the tagged spans of
    trace_child.py."""
    names = {p for patterns in _literal(RUN, "SPAN_METRICS").values()
             for p in patterns if not p.endswith(".")}
    for node in ast.walk(RUN):
        if isinstance(node, ast.Set):
            names |= {e.value for e in node.elts
                      if isinstance(e, ast.Constant)}
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) \
                and node.left.id == "name":
            names |= {c.value for c in node.comparators
                      if isinstance(c, ast.Constant)}
    tags = next(node.value for node in TRACE_CHILD.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "TAGS")
    names |= {k.value for k in tags.keys}
    return sorted(names - _own_spans())


@pytest.mark.parametrize("name", sorted(
    [f"{layer}.{n}" for layer, ns in FOREIGN.items() for n in ns]
    + [f"{layer}.{n}" for layer, ns in CONSTRUCTORS.items() for n in ns]
    + _attribute_lookups()))
def test_wrapped_names_exist(name):
    layer, attr = name.split(".")
    assert layer in LAYERS
    assert hasattr(_layer(layer), attr), f"stressbasis.{name} is gone"


@pytest.mark.parametrize("name", _span_names())
def test_span_names_are_traced(name):
    """Each span name is one the tracer makes: a FOREIGN or CONSTRUCTORS
    name, or a public function of its layer's own module not in HOT."""
    layer, attr = name.split(".")
    assert layer in LAYERS
    if attr in FOREIGN.get(layer, ()) + CONSTRUCTORS.get(layer, ()):
        return
    mod = _layer(layer)
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, \
        f"stressbasis.{name} is not a function of its layer"
    assert not attr.startswith("_") and name not in HOT


def test_fem2d_splu_is_looked_up():
    assert "fem2d.splu" in _attribute_lookups()


def test_get_oracle_tag_reads_spec_second():
    """The trace tags ``experiments.get_oracle`` spans with args[1]."""
    from stressbasis.experiments import get_oracle
    assert list(inspect.signature(get_oracle).parameters)[1] == "spec"
