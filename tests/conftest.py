"""Shared fixtures.

Trained networks come from the model zoo (disk-cached after first
training), so the expensive fixtures are session-scoped.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import sad_kernel
from repro.nn.train import get_trained_network
from repro.video import build_clipset, generate_clip, scenario


@pytest.fixture(scope="session")
def trained_alexnet():
    return get_trained_network("mini_alexnet")


@pytest.fixture(scope="session")
def trained_fasterm():
    return get_trained_network("mini_fasterm")


@pytest.fixture(scope="session")
def trained_faster16():
    return get_trained_network("mini_faster16")


@pytest.fixture(scope="session")
def pan_clip():
    """A camera-pan clip: strong global motion."""
    return generate_clip(scenario("camera_pan"), seed=101)


@pytest.fixture(scope="session")
def linear_clip():
    """A single-object linear-motion clip."""
    return generate_clip(scenario("linear_motion"), seed=102)


@pytest.fixture(scope="session")
def occlusion_clip():
    """A clip with a crossing occluder."""
    return generate_clip(scenario("occlusion"), seed=103)


@pytest.fixture(scope="session")
def tiny_test_set():
    """A small held-out test split for metric checks."""
    return build_clipset("test", clips_per_scenario=1, num_frames=8)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def compiled(monkeypatch):
    """The compiled kernel in either kernel lane.

    Under ``REPRO_FORCE_NUMPY=1`` the kernel is loaded for this test only
    (``_STATE`` is put back afterwards), so the compiled-versus-NumPy
    checks run in both lanes; they skip only where nothing can compile.
    """
    if sad_kernel.get_kernel() is None:
        monkeypatch.delenv("REPRO_FORCE_NUMPY", raising=False)
        monkeypatch.delenv("REPRO_SAD_KERNEL", raising=False)
        monkeypatch.setattr(sad_kernel, "_STATE", None)
    kernel = sad_kernel.get_kernel()
    if kernel is None:
        pytest.skip("the compiled kernel cannot build on this host")
    return kernel


@pytest.fixture()
def started_threads(monkeypatch):
    """The names of the threads started while the test runs, in order."""
    names = []
    start = threading.Thread.start

    def recording(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names
