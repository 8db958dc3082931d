"""Fixtures shared by the core tests."""

import warnings

import pytest

from repro.core import native, stencil


@pytest.fixture
def numpy_fallback(monkeypatch):
    """Force the NumPy fallback of ``step_vectorized``: no compiler is found."""
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    fallback = native.NativeStep(stencil.step_numpy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert not fallback.available()
    monkeypatch.setattr(stencil, "native_step", fallback)
    return fallback
