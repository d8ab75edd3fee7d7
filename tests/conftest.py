"""Shared fixtures: an isolated cache directory and small reusable bases."""
import os
import tracemalloc

import numpy as np
import pytest

from stressbasis.basis import solve_basis_annulus, solve_basis_rectangle
from stressbasis.materials import Material
from stressbasis.meshes import Domain, build_radial_grid, build_rectangle_mesh


# one "PASS/FAIL criterion N" line per acceptance criterion, echoed at the end
# of the run regardless of output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session", autouse=True)
def cache_env(tmp_path_factory):
    """Point the basis/oracle cache at a per-session scratch directory."""
    d = tmp_path_factory.mktemp("sbcache")
    old = os.environ.get("SB_CACHE_DIR")
    os.environ["SB_CACHE_DIR"] = str(d)
    yield str(d)
    if old is None:
        os.environ.pop("SB_CACHE_DIR", None)
    else:
        os.environ["SB_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def ann_domain():
    return Domain.annulus(0.1, 0.3)


@pytest.fixture(scope="session")
def ann_mesh(ann_domain):
    return build_radial_grid(ann_domain, 64)


@pytest.fixture(scope="session")
def ann_basis_m0(ann_mesh):
    return solve_basis_annulus(ann_mesh, [0], 12)


@pytest.fixture(scope="session")
def ann_basis_merged(ann_mesh):
    """Mixed wavenumbers, including degenerate cos/sin pairs."""
    return solve_basis_annulus(ann_mesh, [0, 1, 2], 18)


@pytest.fixture(scope="session")
def rect_mesh():
    """12x12 unit square with the band feature lines on the grid."""
    return build_rectangle_mesh(Domain.rectangle(1.0, 1.0), 12, 12,
                                feature_lines={"x": [0.25, 0.75], "y": [0.5]})


@pytest.fixture(scope="session")
def rect_basis(rect_mesh):
    return solve_basis_rectangle(rect_mesh, 8)


@pytest.fixture(scope="session")
def rect101_basis3_48():
    """First three eigenpairs on the 1 x 1.01 rectangle at the 48x48 default.

    Returns the basis with the wall-clock build time stashed in provenance
    (used by the runtime-bounded acceptance check).
    """
    import time
    mesh = build_rectangle_mesh(Domain.rectangle(1.0, 1.01), 48, 48)
    t0 = time.perf_counter()
    basis = solve_basis_rectangle(mesh, 3)
    basis.provenance["build_seconds"] = time.perf_counter() - t0
    return basis


@pytest.fixture(scope="session")
def iso_material():
    return Material.isotropic(1.0, 0.3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def traced_peak():
    """peak(f, *args) -> (f(*args), bytes traced at the peak of the call
    above what was traced when it began); numpy reports its buffers to
    tracemalloc."""
    def peak(f, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = f(*args)
            return out, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def traced_held():
    """held(f, *args) -> (f(*args), bytes still traced after the call above
    what was traced when it began, with the result alive)."""
    def held(f, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = f(*args)
            return out, tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
    return held
