"""The benchmark tracer (perfbench/tracing.py) wraps bmpnet functions at
the module attributes their callers look up.  It resolves each
(module, attribute) pair with getattr when it installs, so a pair that no
longer resolves breaks every traced benchmark run.  The suite does not
run perfbench, hence this check here; it reads the tracer's tables and
changes nothing."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracing.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({(row[0], row[1])
                   for row in tracing.SPANS + tracing.COUNTED})


@pytest.mark.parametrize("module, attr", tracer_targets())
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
