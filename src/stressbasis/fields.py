"""Field containers, inner products, and discrete differential diagnostics.

Fields are nodal piecewise-biquadratic on rectangle meshes and piecewise-
quadratic radial profiles on annulus grids. Radial fields carry an azimuthal
wavenumber tag ``m`` and a trig ``parity``:

* ``parity='cos'``: normal components vary as cos(m th), shear as sin(m th);
* ``parity='sin'``: normal components vary as sin(m th), shear as cos(m th).

Every L2, trace and energy inner product in the package is taken with the
one metric that ``quad_metric`` defines: the quadrature weights and the
per-component factors (1, 1, 2), where the off-diagonal component counts
twice. On radial grids the weights carry r and the factors carry the theta
integrals of the area measure ``dA = r dr dth``, done analytically per tag
pair; inner products across distinct tags are rejected (they vanish
identically and are never needed pointwise).

Fields built from closed-form expressions may carry exact evaluation and
divergence callables; arithmetic combinations retain their parts so that
quadrature values, boundary values, and weak divergences stay exact for
piecewise-discontinuous ingredients (jumps aligned to mesh feature lines).

Fields are values: a field keeps its constructor arguments and its nodal
components (or the function that forms them) and no evaluation state, so
every evaluation recomputes its result. Inner products of many nodal fields
at once (a basis's Grams and pairings) never evaluate them at the
quadrature points: the metric on nodal components is the weighted mass
matrix P^T diag(w d) P (``weighted_mass``), through which ``nodal_gram``
and ``nodal_pairing`` go.

Dump format: CSV with header ``x,y,sxx,syy,sxy`` (rectangle) or
``r,m,srr,stt,srt`` (radial), one row per node, 17 significant digits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem2d
from ._cache import atomic_write_text
from .meshes import LoadingSpec, RadialMesh

_FMT = "%.17g"


class FieldError(ValueError):
    pass


def _check_tags(mesh, m, parity):
    radial = isinstance(mesh, RadialMesh)
    if radial:
        if m is None or parity not in ("cos", "sin"):
            raise FieldError("radial fields require a wavenumber tag m and parity")
    else:
        if m is not None or parity is not None:
            raise FieldError("wavenumber tags are only valid on radial grids")


def theta_factors(m: int, parity: str) -> tuple[float, float]:
    """Analytic theta integrals (normal-component factor, shear factor)."""
    if m == 0:
        return (2 * np.pi, 0.0) if parity == "cos" else (0.0, 2 * np.pi)
    return (np.pi, np.pi)


def _call_on_quad(fn, mesh, ops, lead=()):
    """``fn`` at the quadrature points, broadcast to ``lead + (nq,)``."""
    pts = (ops.rq,) if isinstance(mesh, RadialMesh) else (ops.qx, ops.qy)
    return np.asarray(np.broadcast_to(fn(*pts), lead + pts[0].shape), float)


def _zero_divergence(*pts):
    """The ``div_fn`` of a closed-form field that is divergence-free."""
    return np.zeros((2,) + np.shape(pts[0]))


def _ops(mesh):
    if isinstance(mesh, RadialMesh):
        return fem2d.radial_ops(mesh)
    return fem2d.rect_ops(mesh)


class _FormedOnRead:
    """The ``components`` of a field that keeps no nodal array, formed by
    its function ``nodal`` on every read. A non-data descriptor: a field
    that stores its array reads it from its own attribute of that name."""

    def __get__(self, field, owner=None):
        return self if field is None else field.nodal()


class SymTensorField2:
    """Symmetric 2x2 tensor field with three nodal components per node.

    Components are (sxx, syy, sxy) on rectangles and radial profiles
    (srr, stt, srt) on annulus grids (tagged with wavenumber ``m`` / parity).
    The constructor takes the (3, n_nodes) array, or a function of no
    arguments that forms it: such a field keeps the function as ``nodal``
    and forms its ``components`` on every read (an airy mode's, from its
    potential coefficients).

    ``fn(x, y) -> (3, n)`` and ``div_fn(x, y) -> (2, n)`` (or ``fn(r)`` /
    ``div_fn(r)`` radially) provide exact quadrature/boundary values and exact
    divergence for closed-form fields. For discontinuous closed-form fields the
    nodal array takes the two-sided average at jump nodes; it is used only for
    CSV dumps and the nodewise reconstruction identity, never in integrals.

    A field holds no evaluation state: ``at_quad``, ``divergence_quad`` and
    ``edge_values`` recompute their result on every call (a field built from
    ``parts`` evaluates each of its parts again).
    """

    components = _FormedOnRead()

    def __init__(self, mesh, components=None, m=None, parity=None,
                 fn=None, div_fn=None, parts=None):
        _check_tags(mesh, m, parity)
        self.mesh = mesh
        self.m = m
        self.parity = parity
        self.fn = fn
        self.div_fn = div_fn
        self.parts = parts  # list of (coef, SymTensorField2) or None
        if callable(components):
            self.nodal = components
            return
        if components is None:
            if parts is not None:
                components = sum(c * p.components for c, p in parts)
            elif fn is not None:
                components = _eval_tensor(fn, mesh)
            else:
                raise FieldError("SymTensorField2 requires components, fn, or parts")
        components = np.asarray(components, dtype=float)
        if components.shape != (3, mesh.n_nodes):
            raise FieldError(f"components must have shape (3, {mesh.n_nodes})")
        if not np.all(np.isfinite(components)):
            raise FieldError("non-finite tensor components")
        self.components = components

    # -- evaluation ---------------------------------------------------------

    def at_quad(self) -> np.ndarray:
        """(3, nq) components at the mesh quadrature points."""
        ops = _ops(self.mesh)
        if self.parts is not None:
            return _sum_parts(self, SymTensorField2.at_quad)
        if self.fn is not None:
            return _call_on_quad(self.fn, self.mesh, ops, (3,))
        return np.stack([ops.P @ comp for comp in self.components])

    def divergence_quad(self) -> np.ndarray:
        """(2, nq) strong divergence at element-interior quadrature points.

        Radially, returns the two divergence profiles (the trig factors are
        handled by the integration weights).
        """
        ops = _ops(self.mesh)
        if self.parts is not None:
            return _sum_parts(self, SymTensorField2.divergence_quad)
        if self.div_fn is not None:
            return _call_on_quad(self.div_fn, self.mesh, ops, (2,))
        if isinstance(self.mesh, RadialMesh):
            frr, ftt, frt = self.components
            s = 1.0 if self.parity == "cos" else -1.0
            v = ops.P @ np.stack([frr, ftt, frt], axis=1)
            dv = ops.Pr @ np.stack([frr, frt], axis=1)
            r = ops.rq
            div_r = dv[:, 0] + (s * self.m * v[:, 2] + v[:, 0] - v[:, 1]) / r
            div_t = dv[:, 1] + (2 * v[:, 2] - s * self.m * v[:, 1]) / r
            return np.stack([div_r, div_t])
        sxx, syy, sxy = self.components
        return np.stack([ops.Px @ sxx + ops.Py @ sxy,
                         ops.Px @ sxy + ops.Py @ syy])

    def edge_values(self, tag: str) -> np.ndarray:
        """(3, n_edge_q) components at boundary quadrature points (rectangle)."""
        ops = _ops(self.mesh)
        if self.parts is not None:
            return _sum_parts(self, lambda f: f.edge_values(tag))
        if self.fn is not None:
            ex, ey, _ = ops.edge_quad(tag)
            return np.asarray(self.fn(ex, ey), float)
        E = ops.edge_interp(tag)
        return np.stack([E @ comp for comp in self.components])

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, c_self, c_other):
        if other.mesh is not self.mesh and other.mesh != self.mesh:
            raise FieldError("mesh mismatch in field arithmetic")
        if (self.m, self.parity) != (other.m, other.parity):
            raise FieldError("wavenumber mismatch in field arithmetic")

        def flatten(c, f):
            if f.parts is not None:
                return [(c * cc, p) for cc, p in f.parts]
            return [(c, f)]

        parts = flatten(c_self, self) + flatten(c_other, other)
        return SymTensorField2(self.mesh, m=self.m, parity=self.parity, parts=parts)

    def __add__(self, other):
        return self._combine(other, 1.0, 1.0)

    def __sub__(self, other):
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, a):
        a = float(a)
        if self.parts is not None:
            parts = [(a * c, p) for c, p in self.parts]
            return SymTensorField2(self.mesh, m=self.m, parity=self.parity, parts=parts)
        return SymTensorField2(self.mesh, m=self.m, parity=self.parity,
                               parts=[(a, self)])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _sum_parts(field, evaluate):
    """sum c * evaluate(p) over the parts of ``field``, in order; a part
    that has parts of its own sums them in turn."""
    return sum(c * evaluate(p) for c, p in field.parts)


def _eval_tensor(fn, mesh):
    if isinstance(mesh, RadialMesh):
        return np.asarray(fn(mesh.nodes), dtype=float)
    c = mesh.node_coords
    return np.asarray(fn(c[:, 0], c[:, 1]), dtype=float)


# ---------------------------------------------------------------------------
# Inner products and diagnostics
# ---------------------------------------------------------------------------

def _require_same(A, B):
    if A.mesh is not B.mesh and A.mesh != B.mesh:
        raise FieldError("mesh mismatch")
    if isinstance(A.mesh, RadialMesh) and (A.m, A.parity) != (B.m, B.parity):
        raise FieldError("wavenumber mismatch")


def l2_inner_tensor(A: SymTensorField2, B: SymTensorField2) -> float:
    """int_Omega A . B dA (the off-diagonal component contributes twice)."""
    _require_same(A, B)
    return float(tensor_gram(A.mesh, A.m, A.parity, A.at_quad(), B.at_quad()))


def quad_metric(mesh, m=None, parity=None):
    """Quadrature weights and per-component factors of the L2 inner product:
    the one definition of the metric that every inner product goes through.

    <A, B> = sum_c fac[c] sum_q w[q] A[c, q] B[c, q]; the off-diagonal
    component counts twice, and on radial grids the factors carry the theta
    integrals of the (m, parity) family.
    """
    ops = _ops(mesh)
    if isinstance(mesh, RadialMesh):
        fn, fs = theta_factors(m, parity)
        return ops.wq * ops.rq, (fn, fn, 2 * fs)
    return ops.qw, (1.0, 1.0, 2.0)


def _weighted_product(w, a, b):
    """sum_q w[q] a[q, ...] b[q, ...] as one BLAS product.

    ``a`` is (nq,) or (nq, i) and ``b`` is (nq,) or (nq, j); the result has the
    trailing shape of ``a`` then of ``b``.
    """
    return (a.T * w) @ b


def weighted_mass(mesh, m=None, parity=None, d=1.0):
    """The metric on nodal fields: P^T diag(w d) P (sparse, nn x nn) for a
    weight d at the quadrature points, and the factors of ``quad_metric``.
    At d = 1 it is the consistent mass matrix (Strang and Fix, 1973)."""
    w, fac = quad_metric(mesh, m, parity)
    P = _ops(mesh).P
    return (P.T @ (sp.diags(w * d) @ P)).tocsr(), fac


# rows of V per sparse product in ``sparse_rows``: the chunk's copy and its
# product are two (n, 16) blocks
_ROW_CHUNK = 16


def sparse_rows(M, V, out):
    """out[i] = M @ V[i] for the rows of a dense V (k, n), a chunk of rows
    at a time. Each product's sums are those of ``M @ V[i]``; a product
    with the strided block V as a whole would copy it."""
    for s in range(0, len(V), _ROW_CHUNK):
        out[s:s + _ROW_CHUNK] = (M @ V[s:s + _ROW_CHUNK].T).T
    return out


def nodal_gram(mesh, m, parity, V, S=np.eye(3), d=1.0):
    """G[i, j] = sum_{c,e} fac[c] S[c, e] <d V[j, e], V[i, c]> of nodal
    fields V (k, 3, nn), not symmetrized: ``tensor_gram`` of their
    quadrature values (up to round-off) without evaluating them. The L2
    Gram is S = I, d = 1; a law's strain-energy Gram its S and d = 1/Y.

    It holds one product M V[:, e] (k, nn) (``sparse_rows``)."""
    M, fac = weighted_mass(mesh, m, parity, d)
    G = np.zeros((len(V),) * 2)
    Y = np.empty(V[:, 0].shape)
    for e in range(3):
        terms = [(c, fac[c] * S[c][e]) for c in range(3) if S[c][e] * fac[c]]
        if terms:
            sparse_rows(M, V[:, e], Y)
        for c, f in terms:
            G += f * (V[:, c] @ Y.T)
    return G


def nodal_pairing(mesh, m, parity, A, V):
    """<A, V[i]> of quadrature values A (3, nq) and nodal fields
    V (k, 3, nn): sum_c fac[c] V[:, c] P^T (w A[c])."""
    w, fac = quad_metric(mesh, m, parity)
    P = _ops(mesh).P
    return sum(f * (V[:, c] @ (P.T @ (w * A[c])))
               for c, f in enumerate(fac) if f != 0.0)


def tensor_gram(mesh, m, parity, A, B):
    """L2 products of quadrature stacks A (3, nq[, i]) and B (3, nq[, j]).

    One component at a time, so that only a single weighted component is
    held in memory besides the operands.
    """
    w, fac = quad_metric(mesh, m, parity)
    return sum(f * _weighted_product(w, A[c], B[c])
               for c, f in enumerate(fac) if f != 0.0)


def scalar_gram(mesh, m, parity, a, b):
    """L2 products of scalar quadrature stacks a (nq[, i]) and b (nq[, j]).

    A scalar varies in theta as the normal components do, so it takes their
    factor.
    """
    w, fac = quad_metric(mesh, m, parity)
    return fac[0] * _weighted_product(w, a, b)


def l2_norm_tensor(A: SymTensorField2) -> float:
    return float(np.sqrt(max(l2_inner_tensor(A, A), 0.0)))


def planar_trace(A: SymTensorField2) -> np.ndarray:
    """sigma_bar = s_xx + s_yy (or s_rr + s_tt) at the quadrature points,
    shape (nq,); linear in A."""
    q = A.at_quad()
    return q[0] + q[1]


@dataclass
class EquilibriumReport:
    interior_norm: float
    boundary_mismatch: float
    loading: LoadingSpec | None


def equilibrium_residual(A: SymTensorField2,
                         loading: LoadingSpec | None = None) -> EquilibriumReport:
    """Weak-equilibrium diagnostics of a stress field.

    interior_norm: L2 norm of (div A + b) evaluated at element-interior
    quadrature points (jump lines must be mesh-aligned, which field
    constructors enforce). boundary_mismatch: max |A n - tau| over boundary
    quadrature points, with tau taken from ``loading`` (zero when absent).
    """
    ops = _ops(A.mesh)
    interior = _interior_norm(A, loading)
    mismatch = 0.0
    if isinstance(A.mesh, RadialMesh):
        bc = loading.boundary_stress if loading is not None else {}
        for tag, idx in (("inner", 0), ("outer", A.mesh.n_nodes - 1)):
            srr_bc, srt_bc = bc.get(tag, (0.0, 0.0))
            if loading is not None and loading.kind == "annulus":
                if (loading.m, loading.parity) != (A.m, A.parity) and \
                        any(v != 0 for v in (srr_bc, srt_bc)):
                    raise FieldError("loading wavenumber does not match the field")
            mismatch = max(mismatch,
                           abs(A.components[0][idx] - srr_bc),
                           abs(A.components[2][idx] - srt_bc))
        return EquilibriumReport(interior, mismatch, loading)

    for tag in ("left", "right", "bottom", "top"):
        tau = (0.0, 0.0)
        if loading is not None:
            ex, ey, _ = ops.edge_quad(tag)
            tau = loading.traction_at(tag, ex, ey)
        mismatch = max(mismatch, float(_traction_mismatch(
            ops, tag, A.edge_values(tag), tau)))
    return EquilibriumReport(interior, mismatch, loading)


def _interior_norm(A: SymTensorField2, loading=None) -> float:
    """The ``interior_norm`` of ``equilibrium_residual``."""
    ops = _ops(A.mesh)
    res = A.divergence_quad()
    b = loading.body_force if loading is not None else None
    if b is not None:
        if isinstance(A.mesh, RadialMesh):
            raise FieldError("body forces are defined on rectangle meshes only")
        res = res + [np.broadcast_to(v, ops.qx.shape) for v in b(ops.qx, ops.qy)]
    # radially, the r and theta divergence profiles vary in theta as the
    # normal and the shear components do
    w, fac = quad_metric(A.mesh, A.m, A.parity)
    return float(np.sqrt(max(fac[0] * np.dot(w, res[0]**2)
                             + fac[2] / 2 * np.dot(w, res[1]**2), 0.0)))


def _traction_mismatch(ops, tag, ev, tau=(0.0, 0.0)):
    """max |sigma n - tau| over the quadrature points of the rectangle side
    ``tag``, of edge values ev (3, n_points, ...): one figure per trailing
    index."""
    nx, ny = ops.edge_normal(tag)
    tx, ty = tau
    return np.maximum(np.max(np.abs(ev[0] * nx + ev[2] * ny - tx), axis=0),
                      np.max(np.abs(ev[2] * nx + ev[1] * ny - ty), axis=0))


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def field_csv(field: SymTensorField2) -> str:
    """CSV text of a field: one row per node, 17 significant digits."""
    mesh = field.mesh
    if "csv_nodes" not in mesh._cache:
        # the node cells are formatted once per mesh and shared by its dumps
        if isinstance(mesh, RadialMesh):
            cells = [_FMT % r for r in mesh.nodes.tolist()]
        else:
            cells = [f"{_FMT},{_FMT}" % xy
                     for xy in zip(*mesh.node_coords.T.tolist())]
        mesh._cache["csv_nodes"] = cells
    if isinstance(mesh, RadialMesh):
        header, row = "r,m,srr,stt,srt\n", f"%s,{field.m}"
    else:
        header, row = "x,y,sxx,syy,sxy\n", "%s"
    row += f",{_FMT},{_FMT},{_FMT}\n"
    # rows are zipped from one list per column: a list per row would make
    # thousands of containers and set off garbage-collector passes
    return header + "".join(row % t for t in zip(mesh._cache["csv_nodes"],
                                                 *field.components.tolist()))


def dump_field_csv(field: SymTensorField2, path: str):
    """Write ``field_csv(field)`` to ``path`` (atomically)."""
    atomic_write_text(path, field_csv(field))
