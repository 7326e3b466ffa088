"""Shared fixtures for the test suite."""

import random

import pytest

from repro._rng import reset_default_streams
from repro.core import Ring, RingNode
from repro.pps.crypto import keygen_deterministic


@pytest.fixture(autouse=True)
def _isolated_rng_streams():
    """Each test starts from fallback-stream zero.

    Without this, components that fall back to :func:`repro._rng.ensure_rng`
    draw streams from a process-global counter, so results depend on how
    many unseeded constructions earlier tests performed -- i.e. on test
    *order*.  Resetting per test makes every test deterministic under
    arbitrary reordering (pytest -p no:randomly style).
    """
    reset_default_streams()
    yield


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def key():
    return keygen_deterministic("unit-test-key")


@pytest.fixture
def uniform_ring():
    """8 equal-speed nodes with equal ranges."""
    return Ring.uniform(8)


@pytest.fixture
def hetero_ring():
    """6 nodes with speeds 1..3 and ranges proportional to speed."""
    return Ring.proportional([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])


@pytest.fixture
def work_estimator():
    """Finish estimator for an idle system: work fraction / speed."""

    def estimate(node, fraction):
        return fraction / node.speed

    return estimate


@pytest.fixture
def twin_kernel(monkeypatch):
    """Register ``twin``, a non-default kernel that always runs.

    A renamed :class:`~repro.kernels.exact.ExactNumpyKernel`: it needs no
    C toolchain, so tests of the kernel knob also run with the compiled
    kernel disabled.  Unregistered when the test ends.
    """
    pytest.importorskip("numpy")
    from repro.kernels import registry
    from repro.kernels.exact import ExactNumpyKernel

    class TwinKernel(ExactNumpyKernel):
        name = "twin"
        description = "test-registered copy of the oracle"

    monkeypatch.setitem(registry._FACTORIES, "twin", TwinKernel)
    return "twin"
