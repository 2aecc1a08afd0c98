"""Run the command line in a child process, from the imported source.

``python -m bmpnet`` needs no installed console script.  The child's
``PYTHONPATH`` starts with the absolute directory holding the ``bmpnet``
package this process imported, so parent and child run the same code
even when the caller's own ``PYTHONPATH`` is relative.
"""

import os
import subprocess
import sys
from pathlib import Path

import bmpnet

PACKAGE_ROOT = str(Path(bmpnet.__file__).resolve().parent.parent)


def run_python(args, timeout):
    """``python *args`` with this ``bmpnet`` first on the path; returns
    the ``CompletedProcess``."""
    inherited = os.environ.get("PYTHONPATH")
    path = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, env=env)


def run_module(args, timeout):
    """``python -m bmpnet *args``; returns the ``CompletedProcess``."""
    return run_python(["-m", "bmpnet", *args], timeout)
