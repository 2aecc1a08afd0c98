"""Every top-level name a ``src/bmpnet`` module imports is used there,
unless the benchmark tracer (perfbench/tracing.py) wraps it at that
module: such an import exists only so that the tracer has an attribute
to wrap.  The tracer's tables are read as test_tracer_targets reads them,
and nothing is changed."""

import ast
import pathlib

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
