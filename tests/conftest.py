"""Fixtures shared by the test modules."""

import functools

import pytest

from heckelab import rootdata


@pytest.fixture
def fresh_frames(monkeypatch):
    """A cache of type frames for this test alone: the data it builds get
    frames of their own, whose orbit, length-zero, generator and step
    tables start empty.  Its value empties that cache again, so the
    data built after a call get frames of their own once more."""
    monkeypatch.setattr(rootdata, "_type_frame", functools.cache(
        rootdata._type_frame.__wrapped__))
    return rootdata._type_frame.cache_clear
