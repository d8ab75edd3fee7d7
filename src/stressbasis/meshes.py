"""Computational domains, structured meshes, and loading descriptions.

Two domain kinds are supported:

* ``rectangle`` -- meshed with structured quadrilaterals carrying biquadratic
  (9-node) elements;
* ``annulus`` -- never meshed in 2D: all annulus work uses an azimuthal
  decomposition, i.e. radial 1D grids of quadratic (3-node) elements with fields
  tagged by an azimuthal wavenumber ``m`` and a trig parity.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import UsageError

# Tolerance under which a declared feature line is considered to coincide with an
# existing grid line (it is then placed exactly at the declared value).
_MERGE_TOL = 1e-9


class MeshError(UsageError):
    """Raised for invalid mesh construction."""


@dataclass(frozen=True)
class Domain:
    """A supported computational domain.

    kind ``rectangle``: ``[0, Lx] x [0, Ly]``.
    kind ``annulus``: ``r_a <= r <= r_b`` centered at the origin.
    """

    kind: str
    Lx: float | None = None
    Ly: float | None = None
    r_a: float | None = None
    r_b: float | None = None

    def __post_init__(self):
        if self.kind == "rectangle":
            if self.Lx is None or self.Ly is None or self.Lx <= 0 or self.Ly <= 0:
                raise MeshError("rectangle domain requires positive Lx, Ly")
        elif self.kind == "annulus":
            if self.r_a is None or self.r_b is None or not (0 < self.r_a < self.r_b):
                raise MeshError("annulus domain requires 0 < r_a < r_b")
        else:
            raise MeshError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def rectangle(Lx: float, Ly: float) -> "Domain":
        return Domain("rectangle", Lx=float(Lx), Ly=float(Ly))

    @staticmethod
    def annulus(r_a: float, r_b: float) -> "Domain":
        return Domain("annulus", r_a=float(r_a), r_b=float(r_b))


class RectangleMesh:
    """Structured quadrilateral mesh with 9-node biquadratic elements.

    Nodes live on the tensor grid refined with element midpoints; node id is
    ``jy * nnx + ix`` (x fastest). Boundary sides are tagged ``left``, ``right``,
    ``bottom``, ``top``. Feature lines are element breakpoints guaranteed to lie
    on node coordinates exactly.
    """

    def __init__(self, domain: Domain, xs: np.ndarray, ys: np.ndarray,
                 feature_x: Sequence[float] = (), feature_y: Sequence[float] = ()):
        if domain.kind != "rectangle":
            raise MeshError("RectangleMesh requires a rectangle domain")
        self.domain = domain
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        for br, L, nm in ((self.xs, domain.Lx, "x"), (self.ys, domain.Ly, "y")):
            if br[0] != 0.0 or abs(br[-1] - L) > 1e-12 or np.any(np.diff(br) <= 0):
                raise MeshError(f"invalid {nm} breakpoints")
        self.feature_x = tuple(sorted(float(v) for v in feature_x))
        self.feature_y = tuple(sorted(float(v) for v in feature_y))
        for v in self.feature_x:
            if not np.any(np.abs(self.xs - v) < _MERGE_TOL):
                raise MeshError(f"feature line x={v} does not lie on a grid line")
        for v in self.feature_y:
            if not np.any(np.abs(self.ys - v) < _MERGE_TOL):
                raise MeshError(f"feature line y={v} does not lie on a grid line")
        # quadratic node coordinates (breakpoints plus midpoints)
        self.node_x = _with_midpoints(self.xs)
        self.node_y = _with_midpoints(self.ys)
        self.nelx = len(self.xs) - 1
        self.nely = len(self.ys) - 1
        self.nnx = 2 * self.nelx + 1
        self.nny = 2 * self.nely + 1
        self._cache: dict = {}

    kind = "rectangle"

    @property
    def n_nodes(self) -> int:
        return self.nnx * self.nny

    @property
    def n_elements(self) -> int:
        return self.nelx * self.nely

    @property
    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of node coordinates, x fastest."""
        X, Y = np.meshgrid(self.node_x, self.node_y)
        return np.column_stack([X.ravel(), Y.ravel()])

    def connectivity(self) -> np.ndarray:
        """(n_elements, 9) connectivity, elements ordered ey-major; element
        (ex, ey) lists node (2 ey + jy) nnx + 2 ex + ix at local position
        3 jy + ix."""
        key = "connectivity"
        if key not in self._cache:
            ey, ex = np.divmod(np.arange(self.n_elements), self.nelx)
            j, i = np.divmod(np.arange(9), 3)
            self._cache[key] = (2 * ey * self.nnx + 2 * ex)[:, None] \
                + (j * self.nnx + i)[None, :]
        return self._cache[key]

    def boundary_node_masks(self):
        """Masks (on_x_edges, on_y_edges) over node ids."""
        ix = np.arange(self.n_nodes) % self.nnx
        jy = np.arange(self.n_nodes) // self.nnx
        on_x = (ix == 0) | (ix == self.nnx - 1)
        on_y = (jy == 0) | (jy == self.nny - 1)
        return on_x, on_y

    def mesh_hash(self) -> str:
        h = hashlib.sha256()
        h.update(b"rectangle")
        h.update(np.ascontiguousarray(self.xs).tobytes())
        h.update(np.ascontiguousarray(self.ys).tobytes())
        return h.hexdigest()[:16]

    def __eq__(self, other):
        return (isinstance(other, RectangleMesh)
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys))

    def __hash__(self):
        return hash(self.mesh_hash())

    def refined(self, factor: int = 2) -> "RectangleMesh":
        """Nested refinement splitting every element ``factor`` times per direction."""
        xs = _split_breaks(self.xs, factor)
        ys = _split_breaks(self.ys, factor)
        return RectangleMesh(self.domain, xs, ys, self.feature_x, self.feature_y)


class RadialMesh:
    """1D radial grid on [r_a, r_b] with quadratic (3-node) elements."""

    def __init__(self, domain: Domain, nel: int):
        if domain.kind != "annulus":
            raise MeshError("RadialMesh requires an annulus domain")
        if nel < 4:
            raise MeshError("radial grid requires nel >= 4")
        self.domain = domain
        self.nel = int(nel)
        self.nodes = np.linspace(domain.r_a, domain.r_b, 2 * self.nel + 1)
        self._cache: dict = {}

    kind = "radial"

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def node_coords(self) -> np.ndarray:
        return self.nodes

    def connectivity(self) -> np.ndarray:
        """(nel, 3) connectivity: element e holds nodes 2e, 2e + 1, 2e + 2."""
        return 2 * np.arange(self.nel)[:, None] + np.arange(3)[None, :]

    def mesh_hash(self) -> str:
        h = hashlib.sha256()
        h.update(b"radial")
        h.update(np.ascontiguousarray(self.nodes).tobytes())
        return h.hexdigest()[:16]

    def __eq__(self, other):
        return isinstance(other, RadialMesh) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash(self.mesh_hash())


def _with_midpoints(breaks: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(breaks) - 1)
    out[0::2] = breaks
    out[1::2] = 0.5 * (breaks[:-1] + breaks[1:])
    return out


def _split_breaks(breaks: np.ndarray, factor: int) -> np.ndarray:
    segs = [np.linspace(a, b, factor + 1)[:-1] for a, b in zip(breaks[:-1], breaks[1:])]
    return np.concatenate(segs + [breaks[-1:]])


def build_rectangle_mesh(domain: Domain, nx: int, ny: int,
                         feature_lines: Mapping[str, Sequence[float]] | None = None
                         ) -> RectangleMesh:
    """Structured rectangle mesh with nodes placed on every declared feature line.

    ``feature_lines`` maps ``"x"`` / ``"y"`` to constants inside the domain. The
    base uniform nx (ny) subdivision is augmented so that every feature line is an
    element breakpoint; a feature line that would create a degenerate sliver
    (narrower than 5% of the uniform spacing without coinciding with a grid line)
    is rejected rather than snapped.
    """
    if domain.kind != "rectangle":
        raise MeshError("build_rectangle_mesh requires a rectangle domain")
    if nx < 4 or ny < 4:
        raise MeshError("nx and ny must be >= 4")
    feature_lines = feature_lines or {}
    fx = sorted(float(v) for v in feature_lines.get("x", ()))
    fy = sorted(float(v) for v in feature_lines.get("y", ()))
    xs = _insert_lines(np.linspace(0.0, domain.Lx, nx + 1), fx, "x")
    ys = _insert_lines(np.linspace(0.0, domain.Ly, ny + 1), fy, "y")
    return RectangleMesh(domain, xs, ys, fx, fy)


def _insert_lines(base: np.ndarray, lines: Sequence[float], axis: str) -> np.ndarray:
    h = base[1] - base[0]
    out = list(base)
    for v in lines:
        if not (base[0] < v < base[-1]):
            raise MeshError(f"feature line {axis}={v} outside the domain")
        near = [i for i, b in enumerate(out) if abs(b - v) < _MERGE_TOL]
        if near:
            out[near[0]] = v  # line coincides with a grid line; place it exactly
            continue
        gap = min(abs(b - v) for b in out)
        if gap < 0.05 * h:
            raise MeshError(
                f"feature line {axis}={v} not representable at this resolution "
                f"(would create a sliver of width {gap:.3g})")
        out.append(v)
        out.sort()
    return np.asarray(out)


def build_radial_grid(domain: Domain, nr: int) -> RadialMesh:
    """Uniform radial grid on [r_a, r_b] with nr quadratic elements."""
    return RadialMesh(domain, nr)


# ---------------------------------------------------------------------------
# Loading description
# ---------------------------------------------------------------------------

class LoadingError(ValueError):
    pass


class LoadingSpec:
    """Boundary tractions plus optional body force for one problem.

    Rectangle form: ``tractions`` maps a side tag to a vectorized callable
    ``f(x, y) -> (tx, ty)`` giving the traction (stress times outward normal).
    ``body_force`` is ``b(x, y) -> (bx, by)``; ``body_potential`` is the scalar
    ``V`` with ``b = -grad V`` when the body force derives from a potential.

    Annulus form: boundary values of the stress components themselves,
    ``boundary_stress[tag] = (srr_amp, srt_amp)`` for ``tag`` in
    ``{"inner", "outer"}``, modulated azimuthally by wavenumber ``m`` and trig
    ``parity`` ('cos': normal components follow cos(m th), shear follows
    sin(m th); 'sin' swaps the two).
    """

    def __init__(self, kind: str,
                 tractions: Mapping[str, Callable] | None = None,
                 body_force: Callable | None = None,
                 body_potential: Callable | None = None,
                 m: int | None = None,
                 parity: str | None = None,
                 boundary_stress: Mapping[str, tuple] | None = None):
        self.kind = kind
        self.tractions = dict(tractions or {})
        self.body_force = body_force
        self.body_potential = body_potential
        self.m = m
        self.parity = parity
        self.boundary_stress = dict(boundary_stress or {})
        if kind == "rectangle":
            bad = set(self.tractions) - {"left", "right", "bottom", "top"}
            if bad:
                raise LoadingError(f"unknown rectangle side tags {sorted(bad)}")
        elif kind == "annulus":
            if m is None or parity not in ("cos", "sin"):
                raise LoadingError("annulus loading requires wavenumber m and parity")
            bad = set(self.boundary_stress) - {"inner", "outer"}
            if bad:
                raise LoadingError(f"unknown annulus boundary tags {sorted(bad)}")
        else:
            raise LoadingError(f"unknown loading kind {kind!r}")

    @staticmethod
    def for_rectangle(tractions=None, body_force=None, body_potential=None):
        return LoadingSpec("rectangle", tractions=tractions, body_force=body_force,
                           body_potential=body_potential)

    @staticmethod
    def for_annulus(m: int, parity: str = "cos", inner=(0.0, 0.0), outer=(0.0, 0.0)):
        return LoadingSpec("annulus", m=m, parity=parity,
                           boundary_stress={"inner": tuple(inner), "outer": tuple(outer)})

    def traction_at(self, tag: str, x, y):
        """Rectangle traction on side ``tag`` at points (x, y); zero if unspecified."""
        fn = self.tractions.get(tag)
        if fn is None:
            z = np.zeros_like(np.asarray(x, dtype=float))
            return z, z.copy()
        tx, ty = fn(x, y)
        shape = np.shape(x)
        return np.broadcast_to(tx, shape).astype(float), \
            np.broadcast_to(ty, shape).astype(float)
