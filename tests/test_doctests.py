"""The examples in the package docstrings run as tests: every module of
``heckelab`` goes through ``doctest.testmod``, and a failing example fails
its module's test.  Every name the package exports resolves, and so
does every function whose traced metrics the benchmark predicts."""

import doctest
import importlib
import json
import pkgutil
from pathlib import Path

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


def test_every_exported_name_resolves():
    """``from heckelab import *`` binds every name of ``heckelab.__all__``
    (it raises ``AttributeError`` on a name the package lacks)."""
    namespace: dict = {}
    exec("from heckelab import *", namespace)
    assert [n for n in heckelab.__all__ if n not in namespace] == []


def test_predicted_metrics_name_callables():
    """Every metric in the ``predictions`` of ``perfbench/workloads.json``
    but ``trace.*`` names a callable: ``<module>.<qualname>.<suffix>``
    resolves to ``heckelab.<module>`` followed by the qualname.  A hooked
    function that is deleted or renamed fails here, in seconds, and not
    only in a traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    names = [name for row in json.loads(path.read_text())["predictions"]
             for name in row["metrics"] if not name.startswith("trace.")]
    unresolved = []
    for name in names:
        module, *qualname, _ = name.split(".")
        obj = importlib.import_module(f"heckelab.{module}")
        for part in qualname:
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(name)
    assert names
    assert unresolved == []
