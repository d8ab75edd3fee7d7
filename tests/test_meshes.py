import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressbasis.meshes import (Domain, LoadingError, LoadingSpec, MeshError,
                                build_radial_grid, build_rectangle_mesh)

from helpers import assert_balanced, resultant


def test_domain_validation():
    with pytest.raises(MeshError):
        Domain.rectangle(-1.0, 1.0)
    with pytest.raises(MeshError):
        Domain.annulus(0.3, 0.1)
    with pytest.raises(MeshError):
        Domain("triangle")


def test_rectangle_mesh_counts():
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 2.0), 4, 6)
    assert mesh.nelx == 4 and mesh.nely == 6
    assert mesh.nnx == 9 and mesh.nny == 13
    assert mesh.n_nodes == 9 * 13
    assert mesh.n_elements == 24
    assert mesh.connectivity().shape == (24, 9)


def test_feature_line_placed_exactly():
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 12, 12,
                                feature_lines={"x": [0.25, 0.75], "y": [0.5]})
    # 0.25 and 0.75 already lie on the 12-division grid; no extra elements
    assert mesh.nelx == 12
    assert np.any(mesh.xs == 0.25) and np.any(mesh.xs == 0.75)
    # a line off the grid is inserted as a new breakpoint
    mesh2 = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 12, 12,
                                 feature_lines={"x": [0.3]})
    assert mesh2.nelx == 13
    assert np.any(mesh2.xs == 0.3)


def test_feature_line_rejections():
    dom = Domain.rectangle(1.0, 1.0)
    with pytest.raises(MeshError):
        build_rectangle_mesh(dom, 12, 12, feature_lines={"x": [1.5]})
    with pytest.raises(MeshError):  # sliver next to an existing breakpoint
        build_rectangle_mesh(dom, 12, 12, feature_lines={"x": [0.2501]})


def test_mesh_hash_covers_grid_only():
    dom = Domain.rectangle(1.0, 1.0)
    a = build_rectangle_mesh(dom, 12, 12, feature_lines={"x": [0.25]})
    b = build_rectangle_mesh(dom, 12, 12, feature_lines={"x": [0.25, 0.75]})
    c = build_rectangle_mesh(dom, 12, 12, feature_lines={"x": [0.3]})
    # both feature sets live on the same grid lines -> same hash (shared cache)
    assert a.mesh_hash() == b.mesh_hash()
    assert a.mesh_hash() != c.mesh_hash()


def test_refinement_is_nested():
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 6, 6,
                                feature_lines={"x": [0.3]})
    fine = mesh.refined(2)
    assert fine.nelx == 2 * mesh.nelx
    for v in mesh.xs:
        assert np.any(np.abs(fine.xs - v) < 1e-14)


def test_radial_grid():
    mesh = build_radial_grid(Domain.annulus(0.1, 0.3), 16)
    assert mesh.n_nodes == 33  # quadratic elements: 2*nel + 1
    assert mesh.nodes[0] == 0.1 and mesh.nodes[-1] == pytest.approx(0.3)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 10), st.integers(4, 10))
def test_rectangle_node_grid_property(nx, ny):
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.0), nx, ny)
    assert mesh.n_nodes == mesh.nnx * mesh.nny
    assert np.all(np.diff(mesh.node_x) > 0)
    assert np.all(np.diff(mesh.node_y) > 0)
    on_x, on_y = mesh.boundary_node_masks()
    assert on_x.sum() == 2 * mesh.nny
    assert on_y.sum() == 2 * mesh.nnx


# ---------------------------------------------------------------------------
# Loading descriptions
# ---------------------------------------------------------------------------

def test_loading_tag_validation():
    with pytest.raises(LoadingError):
        LoadingSpec.for_rectangle({"north": lambda x, y: (x, y)})
    with pytest.raises(LoadingError):
        LoadingSpec("annulus", m=None)


def test_uniform_pressure_is_self_equilibrated(rect_mesh):
    loading = LoadingSpec.for_rectangle({
        "top": lambda x, y: (np.zeros_like(x), np.full_like(x, -1.0)),
        "bottom": lambda x, y: (np.zeros_like(x), np.full_like(x, 1.0)),
    })
    assert_balanced(loading, rect_mesh)
    assert np.abs(resultant(loading, rect_mesh)).max() < 1e-12


def test_unbalanced_loading_fails_validation(rect_mesh):
    loading = LoadingSpec.for_rectangle({
        "top": lambda x, y: (np.zeros_like(x), np.full_like(x, -1.0)),
    })
    with pytest.raises(AssertionError, match="not self-equilibrated"):
        assert_balanced(loading, rect_mesh)


def test_annulus_m1_hole_resultants(ann_mesh):
    # normal stress cos(th) on the inner boundary carries net horizontal force
    loading = LoadingSpec.for_annulus(m=1, inner=(1.0, 0.0))
    F = resultant(loading, ann_mesh, ["inner"])
    assert abs(F[0]) > 1e-3
    # m=2 loading carries none
    loading2 = LoadingSpec.for_annulus(m=2, inner=(1.0, 0.0), outer=(1.0, 0.0))
    assert np.abs(resultant(loading2, ann_mesh, ["inner"])[:2]).max() < 1e-10
