"""Fixtures shared by the test modules."""

import functools

import pytest

from heckelab import rootdata


@pytest.fixture
def fresh_frames(monkeypatch):
    """A cache of type frames for this test alone: the data it builds get
    frames of their own, whose orbit, length-zero and generator tables
    start empty."""
    monkeypatch.setattr(rootdata, "_type_frame", functools.cache(
        rootdata._type_frame.__wrapped__))
