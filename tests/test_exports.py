"""The export lists name what the modules define.

Tools that wrap every name a module lists in __all__ would silently skip a
stale entry, so both directions are checked: each listed name exists, and
each name the package re-exports is listed by its module.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eotnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(eotnet.__path__) if not info.ispkg)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"eotnet.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(Path(eotnet.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert {module for module, _ in imports} <= set(MODULES) and imports
    unlisted = [f"{module}.{name}" for module, name in imports
                if name not in importlib.import_module(f"eotnet.{module}").__all__]
    assert unlisted == []


def test_the_explicit_rounds_are_not_exported():
    # L consensus rounds are one product with ConsensusMatrix.power(L), which
    # the scan applies; no second entry point repeats it.
    consensus = importlib.import_module("eotnet.consensus")
    assert "consensus_rounds" not in consensus.__all__
    assert not hasattr(consensus, "consensus_rounds") and not hasattr(eotnet, "consensus_rounds")
