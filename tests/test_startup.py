"""What a fresh process loads.  scipy serves only the Welch test's
t distribution and the process pool only ``--threads`` > 1, so neither
loads with the command line or with commands that do not use them.
Each check runs in its own child, since this process has long since
imported both."""

import json

from clirun import run_python

HEAVY = ("scipy", "multiprocessing", "concurrent.futures")


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


def test_a_welch_test_loads_scipy():
    # the probe sees a module once it is loaded (scipy brings
    # concurrent.futures along, so only scipy is asked for)
    code = ("from bmpnet.stats import SampleStats, welch_one_tailed\n"
            "g = SampleStats(mean=0.0, std=1.0, count=3)\n"
            "welch_one_tailed(g, g)")
    assert "scipy" in loaded_after(code)
