"""Gauss quadrature rules on reference elements."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """A quadrature rule on a reference element.

    points: (n, d) reference coordinates in [-1, 1]^d
    weights: (n,) positive weights summing to the reference measure 2^d
    exactness_degree: highest total polynomial degree integrated exactly
    """

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] != len(self.points):
            pts = pts.T
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        dim = self.points.shape[1]
        if not np.isclose(self.weights.sum(), 2.0**dim, rtol=0, atol=1e-12):
            raise ValueError("weights must sum to the reference element measure")


def gauss_1d(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]; exact to degree 2n-1."""
    p, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(p.reshape(-1, 1), w, 2 * n - 1)


def gauss_2d(n: int) -> QuadratureRule:
    """Tensor-product n x n Gauss rule on [-1, 1]^2; exact to degree 2n-1 per direction."""
    p, w = np.polynomial.legendre.leggauss(n)
    X, Y = np.meshgrid(p, p, indexing="ij")
    W = np.outer(w, w)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(pts, W.ravel(), 2 * n - 1)
