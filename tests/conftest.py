"""Shared fixtures: the prototype assembly and codebooks are expensive
enough to build once per session."""

import importlib.util
import sys
from pathlib import Path

import pytest

from risant import pattern
from risant.geometry import AntennaAssembly, FeedModel, RisArray
from risant.scenario import resolve_scenario
from risant.synthesis import build_codebook


def pytest_addoption(parser):
    parser.addoption("--full-extreme-sweep", action="store_true",
                     help="run every numeric leaf at every extreme value, "
                          "not one extreme a slot")
    parser.addoption("--write-reference-outputs", action="store_true",
                     help="rewrite tests/reference_outputs.json from this tree's "
                          "artifacts (list each fingerprint that moved)")


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded without putting perfbench on sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench_jobs():
    """The benchmark's seeded job lists (``perfbench/jobs.py``)."""
    return _perfbench_module("jobs")


@pytest.fixture(scope="session")
def perfbench_check(perfbench_jobs):
    """The benchmark's output check (``perfbench/check.py``).  It imports
    its sibling ``jobs`` by bare name, as perfbench/run.py puts perfbench
    on sys.path, so that name is bound while it loads."""
    sys.modules["jobs"] = perfbench_jobs
    try:
        return _perfbench_module("check")
    finally:
        del sys.modules["jobs"]


@pytest.fixture(scope="session")
def perfbench_tracing():
    """The benchmark's span tracer (``perfbench/tracing.py``)."""
    return _perfbench_module("tracing")


@pytest.fixture(scope="session")
def scenario():
    return resolve_scenario(None)


@pytest.fixture(scope="session")
def assembly(scenario):
    """Prototype antenna: 32x32 one-bit array with the tuned element."""
    return scenario.build_assembly()


@pytest.fixture(scope="session")
def small_assembly():
    """8x8 array for tests that only need far-field mechanics."""
    return AntennaAssembly(
        array=RisArray(n_x=8, n_y=8, period_mm=5.0),
        feed=FeedModel(position_mm=(-20.0, 0.0, 60.0), pattern_exponent=6.5),
    )


@pytest.fixture
def mesh_rows(monkeypatch):
    """(mesh rows, rows formed) of every feed-ray mesh, call by call."""
    seen = []
    rays = pattern._feed_rays

    def counted(feeds, xs, ys):
        r, cos_feed = rays(feeds, xs, ys)
        seen.append((ys.size, r.shape[1]))
        return r, cos_feed
    monkeypatch.setattr(pattern, "_feed_rays", counted)
    return seen


@pytest.fixture(scope="session")
def onebit_codebook(assembly):
    return build_codebook(assembly, sector_az=(-60.0, 60.0), n_levels=3, branching=4)


@pytest.fixture(scope="session")
def continuous_codebook(assembly):
    return build_codebook(assembly, sector_az=(-60.0, 60.0), n_levels=3,
                          branching=4, quantize=False)
