"""Run one ``stressbasis`` CLI command with a span around every call into a
public function of each stressbasis module, then write the spans as JSON.

    python3 perfbench/trace_child.py SPANS.json RUN_ID run --config C --out O

run.py starts this in place of ``python3 -m stressbasis`` for its traced
iterations only; the timed iterations run the CLI untouched. Spans are kept
in memory as [name, start, end, parent index, tag] and written once, when
the command ends. Span names are ``<module>.<function>``; ``cli.import``
covers importing the package.

Counters are taken where the work happens:

* ``basis.lu_nnz`` / ``basis.op_solves``: fill of the sparse LU that SciPy's
  ARPACK wrapper factors for shift-invert, and the solves made with it;
* ``oracles.lu_nnz``: fill of every ``fem2d.splu`` factorization made under
  an oracles span;
* ``solvers.cholesky_calls``: ``numpy.linalg.cholesky`` calls under a
  solvers span.
"""
import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("cli", "experiments", "basis", "solvers", "oracles", "fields",
          "fem2d", "meshes", "particular", "materials", "quadrature")

# third-party calls made by the basis layer, timed under their own names
FOREIGN = {"basis": ("eigsh", "eigh", "null_space")}

# helpers called once per mode or mode pair, and cached accessors (1e4-1e5
# calls in one run): a span per call would cost more than the call, so their
# time stays with the caller
HOT = {"fields.l2_inner_tensor", "fields.l2_inner_scalar",
       "fields.l2_norm_tensor", "fields.planar_trace", "fields.theta_factors",
       "fields.trace_theta_factor", "fem2d.shape1d", "fem2d.shape2d",
       "fem2d.rect_ops", "fem2d.radial_ops", "quadrature.gauss_1d",
       "quadrature.gauss_2d"}

# classes whose construction is timed: the operator assembly that the cached
# accessors fem2d.rect_ops / fem2d.radial_ops run once per mesh
CONSTRUCTORS = {"fem2d": ("RectOps", "RadialOps")}


def _oracle_kind(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs.get("spec", {})
    return spec.get("kind", "none")


# a tag recorded with the span, for accounting that needs an argument
TAGS = {"experiments.get_oracle": _oracle_kind}


class _CountingLU:
    """A SuperLU factorization that counts its solves."""

    def __init__(self, lu, counters):
        self._lu = lu
        self._counters = counters

    def solve(self, *args, **kwargs):
        self._counters["basis.op_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counters = {"basis.lu_nnz": 0, "basis.op_solves": 0,
                         "oracles.lu_nnz": 0, "solvers.cholesky_calls": 0}

    def begin(self, name, tag=None):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, tag])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def inside(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def wrap(self, name, fn):
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name, tag(args, kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def install(self):
        mods = {layer: importlib.import_module(f"stressbasis.{layer}")
                for layer in LAYERS}
        for layer, mod in mods.items():
            own = [(n, f) for n, f in vars(mod).items()
                   if inspect.isfunction(f) and f.__module__ == mod.__name__
                   and not n.startswith("_") and f"{layer}.{n}" not in HOT]
            for name, fn in own:
                traced = self.wrap(f"{layer}.{name}", fn)
                # rebind every module-level reference, including names
                # imported with ``from .module import name``
                for other in mods.values():
                    for k, v in list(vars(other).items()):
                        if v is fn:
                            setattr(other, k, traced)
            for name in FOREIGN.get(layer, ()):
                setattr(mod, name, self.wrap(f"{layer}.{name}",
                                             getattr(mod, name)))
            for name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, name)
                cls.__init__ = self.wrap(f"{layer}.{name}", cls.__init__)
        self._count_factorizations(mods)

    def _count_factorizations(self, mods):
        import numpy as np
        from scipy.sparse.linalg._eigen.arpack import arpack

        counters = self.counters
        arpack_splu = arpack.splu

        def counted_arpack_splu(*args, **kwargs):
            lu = arpack_splu(*args, **kwargs)
            if not self.inside("basis"):
                return lu
            counters["basis.lu_nnz"] += lu.L.nnz + lu.U.nnz
            return _CountingLU(lu, counters)
        arpack.splu = counted_arpack_splu

        fem_splu = mods["fem2d"].splu

        def counted_fem_splu(*args, **kwargs):
            lu = fem_splu(*args, **kwargs)
            if self.inside("oracles"):
                counters["oracles.lu_nnz"] += lu.L.nnz + lu.U.nnz
            return lu
        mods["fem2d"].splu = counted_fem_splu

        cholesky = np.linalg.cholesky

        def counted_cholesky(*args, **kwargs):
            if self.inside("solvers"):
                counters["solvers.cholesky_calls"] += 1
            return cholesky(*args, **kwargs)
        np.linalg.cholesky = counted_cholesky

    def write(self, path: str):
        """Write the spans. ``started`` and ``finished`` bound the traced
        code, so the caller can time interpreter start-up and exit (which
        includes this write) around it."""
        finished = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = finished
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "started": STARTED,
                       "finished": finished, "spans": self.spans,
                       "counters": self.counters}, f)


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    try:
        tracer.begin("cli.import")
        try:
            from stressbasis import cli
        finally:
            tracer.end()
        tracer.begin("trace.install")
        tracer.install()
        tracer.end()
        return cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
