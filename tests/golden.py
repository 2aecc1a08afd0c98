"""Golden outputs of a fixed command set, as one sha256 per file.

Usage, from the root of a checkout:

    python3 tests/golden.py OUTDIR > hashes.txt

Runs every command below through ``python -m bmpnet`` (and the scripts
under demos/) with the ``bmpnet`` of this checkout and
OPENBLAS_NUM_THREADS=1, each into its own directory under OUTDIR, and
prints ``sha256  name`` for every file written and for every command's
standard output, with its exit code.  Wall times and the OUTDIR path are
masked first, so two checkouts run into two directories print the same
lines exactly when their outputs agree; ``diff`` the two lists to see
which files moved, then the files themselves to see how.  The name has
no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRAIN = ["--epochs", "5", "--train-size", "2000", "--seed", "0"]

# (name, argv); "{out}" is the command's own directory, "{root}" OUTDIR
COMMANDS = [
    ("train-n2", ["train", "--n", "2", "--r", "7", "--val-size", "2000",
                  "--verbose", *TRAIN, "--out", "{out}"]),
    ("train-n3", ["train", "--n", "3", "--r", "23", "--val-size", "10000",
                  "--verbose", *TRAIN, "--out", "{out}"]),
    ("sweep-n3", ["sweep", "--n", "3", "--ranks", "19,20,21,22,23",
                  "--reps", "3", "--epochs", "10", "--batch-size", "32",
                  "--train-size", "2000", "--val-size", "10000", "--seed",
                  "0", "--out", "{out}"]),
    ("verify-n2", ["verify", "--scheme", "{root}/train-n2/scheme.json",
                   "--round", "--out", "{out}"]),
    ("verify-n3", ["verify", "--scheme", "{root}/train-n3/scheme.json",
                   "--round", "--out", "{out}"]),
    ("verify-strassen", ["verify", "--scheme", "strassen", "--exact",
                         "--out", "{out}"]),
    ("welch", ["welch", "--g1", "0.42,0.05,7", "--g2", "0.49,0.06,7",
               "--out", "{out}"]),
    ("train-eps", ["train-eps", "--n", "2", "--r", "7", "--val-size",
                   "2000", "--verbose", *TRAIN, "--out", "{out}"]),
    ("demo-classical", ["demo", "classical2x2"]),
    ("demo-strassen", ["demo", "strassen2x2"]),
]

WALL = re.compile(r"\(\d+\.\d+ s\)")


def masked(text, root):
    return WALL.sub("(<wall> s)", text.replace(str(root), "<out>"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(name, argv, root):
    """Run one command into root/name; returns its masked stdout and
    exit code."""
    out = root / name
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv] if argv[0].endswith(".py")
        else [sys.executable, "-m", "bmpnet",
              *(a.format(out=out, root=root) for a in argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if name.startswith("train-n"):
        # verify reads a bare scheme, not a run record
        record = json.loads((out / "run.json").read_text())
        (out / "scheme.json").write_text(json.dumps(record["scheme"]))
    return masked(done.stdout, root), done.returncode


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: golden.py OUTDIR")
    root = Path(argv[1]).resolve()
    demos = [(Path(p).stem, [str(p)])
             for p in sorted((ROOT / "demos").glob("*.py"))]
    lines = []
    for name, cmd in COMMANDS + demos:
        stdout, code = run(name, cmd, root)
        lines.append("%s  %s/stdout (exit %d)" % (digest(stdout), name, code))
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text = masked(path.read_text(), root)
        lines.append("%s  %s" % (digest(text), path.relative_to(root)))
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv)
