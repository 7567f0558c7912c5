"""The export lists name what the modules define.

Tools that wrap every name a module lists in __all__ would silently skip a
stale entry, so both directions are checked: each listed name exists, and
each name the package re-exports is listed by its module.
"""

import ast
import importlib
import pkgutil
import re
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


@pytest.mark.parametrize("module, name", [("consensus", "consensus_rounds"),
                                          ("trackers", "correct_scan")])
def test_the_explicit_rounds_are_not_exported(module, name):
    # L consensus rounds are one product with ConsensusMatrix.power(L), which
    # the scan applies, and run_filter is the one way into the scan; no
    # second entry point repeats either.
    source = importlib.import_module(f"eotnet.{module}")
    assert name not in source.__all__
    assert not hasattr(source, name) and not hasattr(eotnet, name)


def test_the_readme_session_prints_the_shapes_its_comments_promise(capsys):
    # The README's one python block is its minimal library session, and the
    # comment beside each print names the shape it shows.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    promised = re.findall(r"print\(.*\)\s+# (\([\d, ]+\))", block)
    assert promised == ["(3, 40, 20, 4)", "(3, 40, 82)"]
    assert capsys.readouterr().out.splitlines() == promised
