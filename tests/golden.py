"""Golden outputs of a fixed command set, as one sha256 per file.

Usage, from the root of a checkout:

    python3 tests/golden.py OUTDIR > hashes.txt
    python3 tests/golden.py OUTDIR --against hashes.txt

Runs every command below through ``python -m bmpnet`` (and the scripts
under demos/) with the ``bmpnet`` of this checkout and
OPENBLAS_NUM_THREADS=1, each into its own directory under OUTDIR, which
must be empty or absent (after writing the command's config file there,
if it has one), and prints
``sha256  name`` for every file written and for every command's standard
output, with its exit code.  Wall times and the OUTDIR path are
masked first, so two checkouts run into two directories print the same
lines exactly when their outputs agree.  With ``--against HASHES``, a
list printed earlier, it prints instead the lines that moved, as a
unified diff from HASHES to this run, and exits 1 if any did (0 if
none); then ``diff`` the files themselves to see how.  The name has no
``test_`` prefix, so pytest does not collect it.
"""

import argparse
import difflib
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRAIN = ["--epochs", "5", "--train-size", "2000", "--seed", "0"]

TINY_SWEEP = ["--n", "2", "--reps", "2", "--epochs", "2", "--train-size",
              "200", "--val-size", "200"]

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
    # float verification, a float residual matrix: exits 1, the residual
    # is above tol
    ("verify-float", ["verify", "--scheme", "{root}/train-n3/scheme.json",
                      "--out", "{out}"]),
    ("verify-strassen", ["verify", "--scheme", "strassen", "--exact",
                         "--out", "{out}"]),
    ("sweep-top", ["sweep", *TINY_SWEEP, "--ranks", "5,6,7",
                   "--top-vs-rest", "--out", "{out}"]),
    ("sweep-config", ["sweep", "--config", "{out}/config.json", "--out",
                      "{out}"]),
    # never clips, so every Adam update reads g^2 from the clipping
    ("sweep-noclip", ["sweep", *TINY_SWEEP, "--ranks", "5,6", "--clip",
                      "inf", "--out", "{out}"]),
    # stacks of two where some steps clip both runs, some one and some
    # neither, so each run's own scale is pinned
    ("sweep-clip", ["sweep", *TINY_SWEEP, "--ranks", "5,6", "--clip",
                    "40", "--out", "{out}"]),
    ("verify-grid", ["verify", "--scheme", "{root}/train-n2/scheme.json",
                     "--round", "--grid", "-1/2,0,1/2", "--out", "{out}"]),
    # a grid whose midpoints 1/6 and -1/6 are not doubles
    ("verify-third", ["verify", "--scheme", "{root}/train-n2/scheme.json",
                      "--round", "--grid", "-1/3,0,1/3,2/3", "--out",
                      "{out}"]),
    ("welch", ["welch", "--g1", "0.42,0.05,7", "--g2", "0.49,0.06,7",
               "--out", "{out}"]),
    ("train-eps", ["train-eps", "--n", "2", "--r", "7", "--val-size",
                   "2000", "--verbose", *TRAIN, "--out", "{out}"]),
    ("demo-classical", ["demo", "classical2x2"]),
    ("demo-strassen", ["demo", "strassen2x2"]),
    # diverges in epoch 0: pins exit code 3 and what reaches stdout
    ("train-diverge", ["train", "--n", "2", "--r", "7", "--alpha", "1e200"]),
    # every batch loss finite, the mean of epoch 6 overflows: exit code 3
    ("train-overflow", ["train", "--n", "2", "--r", "7", "--epochs", "8",
                        "--batch-size", "16", "--train-size", "64",
                        "--val-size", "32", "--lr", "1e50", "--out",
                        "{out}"]),
]

# name -> the config.json written into the command's directory first
CONFIGS = {
    "sweep-config": {"n": 2, "ranks": [5, "7"], "reps": 2, "epochs": 2,
                     "train_size": 200, "val_size": 200},
}

# a wall time in seconds, such as "(0.42 s)" or "after 0.4 s"
WALL = re.compile(r"\d+\.\d+ s\b")


def masked(text, root):
    return WALL.sub("<wall> s", text.replace(str(root), "<out>"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def command_dir(name, root):
    """root/name, made, with the command's config file written first."""
    out = root / name
    out.mkdir(parents=True, exist_ok=True)
    if name in CONFIGS:
        (out / "config.json").write_text(json.dumps(CONFIGS[name]))
    return out


def bare_scheme(name, out):
    """After a train-n* command, its scheme alone as scheme.json: the
    verify commands read a bare scheme, not a run record."""
    if name.startswith("train-n"):
        record = json.loads((out / "run.json").read_text())
        (out / "scheme.json").write_text(json.dumps(record["scheme"]))


def run(name, argv, root):
    """Run one command into root/name; returns its masked stdout and
    exit code."""
    out = command_dir(name, root)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv] if argv[0].endswith(".py")
        else [sys.executable, "-m", "bmpnet",
              *(a.format(out=out, root=root) for a in argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    bare_scheme(name, out)
    return masked(done.stdout, root), done.returncode


def main(argv):
    parser = argparse.ArgumentParser(prog="golden.py")
    parser.add_argument("outdir")
    parser.add_argument("--against", metavar="HASHES",
                        help="print only the lines that differ from this "
                        "earlier list, and exit 1 if any do")
    args = parser.parse_args(argv[1:])
    root = Path(args.outdir).resolve()
    if root.exists() and any(root.iterdir()):
        # a stale file from an earlier run would be hashed as this run's
        sys.exit("golden.py: %s is not empty" % root)
    demos = [(Path(p).stem, [str(p)])
             for p in sorted((ROOT / "demos").glob("*.py"))]
    lines = []
    for name, cmd in COMMANDS + demos:
        stdout, code = run(name, cmd, root)
        lines.append("%s  %s/stdout (exit %d)" % (digest(stdout), name, code))
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text = masked(path.read_text(), root)
        lines.append("%s  %s" % (digest(text), path.relative_to(root)))
    if args.against is None:
        print("\n".join(lines))
        return
    moved = list(difflib.unified_diff(
        Path(args.against).read_text().splitlines(), lines,
        args.against, "this run", lineterm="", n=0))
    if moved:
        print("\n".join(moved))
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
