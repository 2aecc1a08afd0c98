"""What a fresh process loads.  The package does not use scipy, and the
process pool serves only ``--threads`` > 1, so neither loads with the
command line or with commands that do not use them, the Welch test and
a serial sweep included.  Each check runs in its own child, since this
process may long since have imported both."""

import ast
import json
import re
from pathlib import Path

import pytest

from clirun import PACKAGE_ROOT, run_python

HEAVY = ("scipy", "multiprocessing", "concurrent.futures")

ROOT = Path(__file__).resolve().parents[1]


def loaded_after(code):
    """Which of HEAVY a fresh interpreter holds after running ``code``;
    the child prints the list as its last line of output."""
    probe = ("import json, sys\n%s\nprint(json.dumps([m for m in %r "
             "if m in sys.modules]))" % (code, HEAVY))
    proc = run_python(["-c", probe], timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither():
    assert loaded_after("import bmpnet.cli") == []


def test_verify_loads_neither():
    code = ("from bmpnet import cli\n"
            "assert cli.main(['verify', '--scheme', 'strassen']) == 0")
    assert loaded_after(code) == []


def test_welch_loads_neither():
    code = ("from bmpnet import cli\n"
            "assert cli.main(['welch', '--g1', '0.42,0.05,7', '--g2', "
            "'0.49,0.06,7']) == 0")
    assert loaded_after(code) == []


def test_serial_sweep_loads_neither(tmp_path):
    argv = ["sweep", "--n", "2", "--ranks", "5,7", "--reps", "2",
            "--epochs", "1", "--batch-size", "16", "--train-size", "64",
            "--val-size", "32", "--out", str(tmp_path / "sweep")]
    code = "from bmpnet import cli\nassert cli.main(%r) == 0" % argv
    assert loaded_after(code) == []
    assert (tmp_path / "sweep" / "welch.json").exists()


def test_no_module_imports_scipy():
    for path in sorted(Path(PACKAGE_ROOT, "bmpnet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy"
                           for name in names), path.name


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    deps = project["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]
    # the training step transposes with ndarray.mT, new in numpy 2.0
    floor = re.search(r">=\s*([\d.]+)", deps[0])
    assert floor is not None, deps[0]
    assert tuple(map(int, floor.group(1).split("."))) >= (2, 0)
