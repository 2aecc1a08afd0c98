"""Demos 01-03 run in process, and every claim they print holds: each
printed line that ends in ``: True`` or ``: False`` must read True."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name, claims", [
    ("01_tensor_ops", 3), ("02_total_tensor", 2), ("03_verify_scheme", 2)])
def test_printed_claims_hold(name, claims, capsys):
    runpy.run_path(str(DEMOS / (name + ".py")), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    said = [line for line in lines if line.endswith((": True", ": False"))]
    assert len(said) == claims
    assert all(line.endswith(": True") for line in said), said
