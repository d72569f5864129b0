"""The examples in the package docstrings run as tests: every module of
``heckelab`` goes through ``doctest.testmod``, and a failing example fails
its module's test."""

import doctest
import importlib
import pkgutil

import pytest

import heckelab

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    heckelab.__path__, "heckelab."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} example(s) failed in {name}"


def test_examples_exist():
    """The package keeps its examples: at least the four docstrings of
    the ``laurent`` module, ``cartan_matrix``, ``build_root_datum`` and
    ``dominant_monoid_generators`` hold some."""
    finder = doctest.DocTestFinder()
    with_examples = [test.name for name in MODULES
                     for test in finder.find(importlib.import_module(name))
                     if test.examples]
    assert len(with_examples) >= 4, with_examples
