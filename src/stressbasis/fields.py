"""Field containers, inner products, and discrete differential diagnostics.

Fields are nodal piecewise-biquadratic on rectangle meshes and piecewise-
quadratic radial profiles on annulus grids. Radial fields carry an azimuthal
wavenumber tag ``m`` and a trig ``parity``:

* ``parity='cos'``: normal components vary as cos(m th), shear as sin(m th);
* ``parity='sin'``: normal components vary as sin(m th), shear as cos(m th).

The theta integrals of the area measure ``dA = r dr dth`` are carried out
analytically per tag pair; inner products across distinct tags are rejected
(they vanish identically and are never needed pointwise).

Fields built from closed-form expressions may carry exact evaluation and
divergence callables; arithmetic combinations retain their parts so that
quadrature values, boundary values, and weak divergences stay exact for
piecewise-discontinuous ingredients (jumps aligned to mesh feature lines).

Dump format: CSV with header ``x,y,sxx,syy,sxy`` (rectangle) or
``r,m,srr,stt,srt`` (radial), one row per node, 17 significant digits.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import fem2d
from .meshes import LoadingSpec, RadialMesh, RectangleMesh, _atomic_write_text

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


def trace_theta_factor(m: int, parity: str) -> float:
    if m == 0:
        return 2 * np.pi if parity == "cos" else 0.0
    return np.pi


class ScalarField:
    """A scalar field sampled at mesh nodes (optionally with exact evaluation)."""

    def __init__(self, mesh, values=None, m=None, parity=None, fn=None):
        _check_tags(mesh, m, parity)
        self.mesh = mesh
        self.m = m
        self.parity = parity
        self.fn = fn
        if values is None:
            if fn is None:
                raise FieldError("ScalarField requires values or fn")
            values = _eval_scalar(fn, mesh)
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise FieldError("value count must equal the node count")
        if not np.all(np.isfinite(values)):
            raise FieldError("non-finite scalar values")
        self.values = values
        self._quad = None

    def at_quad(self) -> np.ndarray:
        if self._quad is None:
            ops = _ops(self.mesh)
            if self.fn is not None:
                self._quad = np.asarray(_call_on_quad(self.fn, self.mesh, ops), float)
            else:
                self._quad = ops.P @ self.values
        return self._quad


def _eval_scalar(fn, mesh):
    if isinstance(mesh, RadialMesh):
        return np.broadcast_to(fn(mesh.nodes), mesh.nodes.shape).astype(float)
    c = mesh.node_coords
    return np.broadcast_to(fn(c[:, 0], c[:, 1]), (mesh.n_nodes,)).astype(float)


def _call_on_quad(fn, mesh, ops):
    if isinstance(mesh, RadialMesh):
        return np.broadcast_to(fn(ops.rq), ops.rq.shape)
    return np.broadcast_to(fn(ops.qx, ops.qy), ops.qx.shape)


def _ops(mesh):
    if isinstance(mesh, RadialMesh):
        return fem2d.radial_ops(mesh)
    return fem2d.rect_ops(mesh)


class SymTensorField2:
    """Symmetric 2x2 tensor field with three stored components per node.

    Components are (sxx, syy, sxy) on rectangles and radial profiles
    (srr, stt, srt) on annulus grids (tagged with wavenumber ``m`` / parity).

    ``fn(x, y) -> (3, n)`` and ``div_fn(x, y) -> (2, n)`` (or ``fn(r)`` /
    ``div_fn(r)`` radially) provide exact quadrature/boundary values and exact
    divergence for closed-form fields. For discontinuous closed-form fields the
    nodal array takes the two-sided average at jump nodes; it is used only for
    CSV dumps and the nodewise reconstruction identity, never in integrals.
    """

    def __init__(self, mesh, components=None, m=None, parity=None,
                 fn=None, div_fn=None, parts=None):
        _check_tags(mesh, m, parity)
        self.mesh = mesh
        self.m = m
        self.parity = parity
        self.fn = fn
        self.div_fn = div_fn
        self.parts = parts  # list of (coef, SymTensorField2) or None
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
        self._quad = None
        self._div = None

    # -- evaluation ---------------------------------------------------------

    def at_quad(self) -> np.ndarray:
        """(3, nq) components at the mesh quadrature points."""
        if self._quad is None:
            ops = _ops(self.mesh)
            if self.parts is not None:
                self._quad = sum(c * p.at_quad() for c, p in self.parts)
            elif self.fn is not None:
                if isinstance(self.mesh, RadialMesh):
                    self._quad = np.asarray(self.fn(ops.rq), float)
                else:
                    self._quad = np.asarray(self.fn(ops.qx, ops.qy), float)
            else:
                self._quad = np.stack([ops.P @ comp for comp in self.components])
        return self._quad

    def divergence_quad(self) -> np.ndarray:
        """(2, nq) strong divergence at element-interior quadrature points.

        Radially, returns the two divergence profiles (the trig factors are
        handled by the integration weights).
        """
        if self._div is None:
            ops = _ops(self.mesh)
            if self.parts is not None:
                self._div = sum(c * p.divergence_quad() for c, p in self.parts)
            elif self.div_fn is not None:
                if isinstance(self.mesh, RadialMesh):
                    self._div = np.asarray(self.div_fn(ops.rq), float)
                else:
                    self._div = np.asarray(self.div_fn(ops.qx, ops.qy), float)
            elif isinstance(self.mesh, RadialMesh):
                frr, ftt, frt = self.components
                s = 1.0 if self.parity == "cos" else -1.0
                v = ops.P @ np.stack([frr, ftt, frt], axis=1)
                dv = ops.Pr @ np.stack([frr, frt], axis=1)
                r = ops.rq
                div_r = dv[:, 0] + (s * self.m * v[:, 2] + v[:, 0] - v[:, 1]) / r
                div_t = dv[:, 1] + (2 * v[:, 2] - s * self.m * v[:, 1]) / r
                self._div = np.stack([div_r, div_t])
            else:
                sxx, syy, sxy = self.components
                self._div = np.stack([ops.Px @ sxx + ops.Py @ sxy,
                                      ops.Px @ sxy + ops.Py @ syy])
        return self._div

    def edge_values(self, tag: str) -> np.ndarray:
        """(3, n_edge_q) components at boundary quadrature points (rectangle)."""
        ops = _ops(self.mesh)
        if self.parts is not None:
            return sum(c * p.edge_values(tag) for c, p in self.parts)
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


def _eval_tensor(fn, mesh):
    if isinstance(mesh, RadialMesh):
        return np.asarray(fn(mesh.nodes), dtype=float)
    c = mesh.node_coords
    return np.asarray(fn(c[:, 0], c[:, 1]), dtype=float)


def constant_tensor_field(mesh, sxx, syy, sxy, m=None, parity=None):
    comps = np.stack([np.full(mesh.n_nodes, float(v)) for v in (sxx, syy, sxy)])
    return SymTensorField2(mesh, comps, m=m, parity=parity)


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
    a, b = A.at_quad(), B.at_quad()
    ops = _ops(A.mesh)
    if isinstance(A.mesh, RadialMesh):
        fn, fs = theta_factors(A.m, A.parity)
        w = ops.wq * ops.rq
        return float(fn * np.dot(w, a[0] * b[0] + a[1] * b[1])
                     + 2 * fs * np.dot(w, a[2] * b[2]))
    return float(np.dot(ops.qw, a[0] * b[0] + a[1] * b[1] + 2 * a[2] * b[2]))


def l2_inner_scalar(f: ScalarField, g: ScalarField) -> float:
    """int_Omega f g dA."""
    _require_same(f, g)
    ops = _ops(f.mesh)
    a, b = f.at_quad(), g.at_quad()
    if isinstance(f.mesh, RadialMesh):
        fac = trace_theta_factor(f.m, f.parity)
        return float(fac * np.dot(ops.wq * ops.rq, a * b))
    return float(np.dot(ops.qw, a * b))


def quad_metric(mesh, m=None, parity=None):
    """Quadrature weights and per-component factors of the L2 inner product.

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


def tensor_gram(mesh, m, parity, A, B):
    """L2 products of quadrature stacks A (3, nq[, i]) and B (3, nq[, j]).

    One component at a time, so that only a single weighted component is
    held in memory besides the operands.
    """
    w, fac = quad_metric(mesh, m, parity)
    return sum(f * _weighted_product(w, A[c], B[c])
               for c, f in enumerate(fac) if f != 0.0)


def scalar_gram(mesh, m, parity, a, b):
    """L2 products of scalar quadrature stacks a (nq[, i]) and b (nq[, j])."""
    w, _ = quad_metric(mesh, m, parity)
    fac = trace_theta_factor(m, parity) if isinstance(mesh, RadialMesh) else 1.0
    return fac * _weighted_product(w, a, b)


def l2_norm_tensor(A: SymTensorField2) -> float:
    return float(np.sqrt(max(l2_inner_tensor(A, A), 0.0)))


def planar_trace(A: SymTensorField2) -> ScalarField:
    """sigma_bar = s_xx + s_yy (or s_rr + s_tt), nodewise; linear in A."""
    fn = None
    if A.fn is not None and A.parts is None:
        if isinstance(A.mesh, RadialMesh):
            fn = lambda r: np.asarray(A.fn(r))[0] + np.asarray(A.fn(r))[1]
        else:
            fn = lambda x, y: np.asarray(A.fn(x, y))[0] + np.asarray(A.fn(x, y))[1]
    out = ScalarField(A.mesh, A.components[0] + A.components[1],
                      m=A.m, parity=A.parity, fn=fn)
    out._quad = A.at_quad()[0] + A.at_quad()[1]
    return out


@dataclass
class EquilibriumReport:
    interior_norm: float
    boundary_mismatch: float
    loading: LoadingSpec | None


def equilibrium_residual(A: SymTensorField2, loading: LoadingSpec | None = None,
                         body_force=None) -> EquilibriumReport:
    """Weak-equilibrium diagnostics of a stress field.

    interior_norm: L2 norm of (div A + b) evaluated at element-interior
    quadrature points (jump lines must be mesh-aligned, which field
    constructors enforce). boundary_mismatch: max |A n - tau| over boundary
    quadrature points, with tau taken from ``loading`` (zero when absent).
    """
    ops = _ops(A.mesh)
    div = A.divergence_quad()
    if isinstance(A.mesh, RadialMesh):
        fac_n, fac_s = theta_factors(A.m, A.parity)
        w = ops.wq * ops.rq
        interior = float(np.sqrt(max(
            fac_n * np.dot(w, div[0]**2) + fac_s * np.dot(w, div[1]**2), 0.0)))
        mismatch = 0.0
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

    b = body_force
    if b is None and loading is not None:
        b = loading.body_force
    res = div.copy()
    if b is not None:
        bx, by = b(ops.qx, ops.qy)
        res[0] = res[0] + np.broadcast_to(bx, ops.qx.shape)
        res[1] = res[1] + np.broadcast_to(by, ops.qy.shape)
    interior = float(np.sqrt(max(np.dot(ops.qw, res[0]**2 + res[1]**2), 0.0)))
    mismatch = 0.0
    for tag in ("left", "right", "bottom", "top"):
        nx, ny = ops.edge_normal(tag)
        ev = A.edge_values(tag)
        tAx = ev[0] * nx + ev[2] * ny
        tAy = ev[2] * nx + ev[1] * ny
        if loading is not None:
            ex, ey, _ = ops.edge_quad(tag)
            tx, ty = loading.traction_at(tag, ex, ey)
        else:
            tx = ty = 0.0
        mismatch = max(mismatch, float(np.max(np.abs(tAx - tx))),
                       float(np.max(np.abs(tAy - ty))))
    return EquilibriumReport(interior, mismatch, loading)


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def dump_field_csv(field: SymTensorField2, path: str):
    """One row per node, 17 significant digits."""
    buf = io.StringIO()
    if isinstance(field.mesh, RadialMesh):
        buf.write("r,m,srr,stt,srt\n")
        for i, r in enumerate(field.mesh.nodes):
            row = [_FMT % r, str(field.m)] + \
                [_FMT % field.components[k][i] for k in range(3)]
            buf.write(",".join(row) + "\n")
    else:
        buf.write("x,y,sxx,syy,sxy\n")
        coords = field.mesh.node_coords
        for i in range(field.mesh.n_nodes):
            row = [_FMT % coords[i, 0], _FMT % coords[i, 1]] + \
                [_FMT % field.components[k][i] for k in range(3)]
            buf.write(",".join(row) + "\n")
    _atomic_write_text(path, buf.getvalue())
