"""Every top-level name a ``src/bmpnet`` module imports is used there,
unless the benchmark tracer (perfbench/tracing.py) wraps it at that
module: such an import exists only so that the tracer has an attribute
to wrap.  The tracer's tables are read as test_tracer_targets reads them,
and nothing is changed.  The imports between the package's own modules,
function-level ones included, form no cycle."""

import ast
import pathlib
from graphlib import CycleError, TopologicalSorter

import pytest

from test_tracer_targets import tracer_targets

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bmpnet"


def imported_names(tree):
    """The names the module body's import statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr in tracer_targets()
               if module == "bmpnet." + path.stem}
    assert [name for name in imported_names(tree)
            if name not in used | wrapped] == []


def intra_imports(tree):
    """The package modules a module imports anywhere in its file,
    function bodies included: ``from .x import ...``, ``from . import x``
    and their absolute forms."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1 and base:
                yield base.split(".")[0]
            elif node.level == 1 or base == "bmpnet":
                yield from (alias.name for alias in node.names)
            elif base.startswith("bmpnet."):
                yield base.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bmpnet."):
                    yield alias.name.split(".")[1]


def test_intra_package_imports_form_no_cycle():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    sorter = TopologicalSorter()
    for name, path in modules.items():
        sorter.add(name, *(dep for dep in
                           intra_imports(ast.parse(path.read_text()))
                           if dep in modules and dep != name))
    try:
        sorter.prepare()
    except CycleError as exc:
        pytest.fail("import cycle: %s" % " -> ".join(exc.args[1]))
