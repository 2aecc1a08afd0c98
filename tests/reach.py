"""The functions, or with ``--lines`` the lines, of src/bmpnet that no
command, demo or workload runs.

Usage, from the root of a checkout:

    python3 tests/reach.py OUTDIR
    python3 tests/reach.py OUTDIR --lines

Runs, in this one process and under ``sys.settrace``: every command of
``golden.COMMANDS`` through ``cli.main``, each into its own directory
under OUTDIR, which must be empty or absent (as ``golden.py`` prepares
it); every script under demos/ through ``runpy``; and, for each workload
of perfbench/workloads.py at its benchmark size and seed 0, its set-up,
one pass and that pass's check, in a directory under OUTDIR.  The
``bmpnet`` of this checkout is imported under the trace too, so a
function that only its import calls counts as entered.  Then it prints
every function defined in src/bmpnet whose code was never entered, one
line each as ``module:line  qualified name``, marked ``[tracer]`` when
the benchmark tracer's tables (perfbench/tracing.py) name it: the mark
shows what stays only because the tracer wraps it.  With ``--lines`` it
prints instead every executable line of src/bmpnet that never ran, as
``module:line  source``, leaving out ``__main__.py`` (which ``cli.main``
bypasses) and every line of a statement that only raises (see
:func:`never_run`), and marked ``[tracer]`` inside a function the tracer
names.  The commands' own output is dropped; each workload's failed
operations go to standard error.  Nothing under perfbench/ is written,
bytecode caches included.  The name has no ``test_`` prefix, so pytest
does not collect it.
"""

import argparse
import ast
import contextlib
import importlib
import io
import os
import runpy
import sys
import types
from pathlib import Path

import golden

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bmpnet"


def defined_functions():
    """{(file, first line): (module, qualified name, def line, last line)}
    of every function and method defined in src/bmpnet; the first line is
    that of its code object, the first decorator's when it has one."""
    found = {}

    def visit(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, prefix + node.name + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found[str(path), first] = (path.stem, prefix + node.name,
                                           node.lineno, node.end_lineno)
                visit(node.body, path, prefix + node.name + ".")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()).body, path, "")
    return found


def never_run(source, ran):
    """The executable lines of ``source`` that are not in the set ``ran``,
    ascending, less every line of a ``raise`` statement and of an
    ``except`` clause whose body only raises (so an input check that
    only raises is not listed), and the header line of a decorated
    function (which runs with its decorator's line).  A line is
    executable when an instruction of the compiled source, or of a code
    object nested in it, is set on it."""
    tree = ast.parse(source)
    left = {0}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) or (
                isinstance(node, ast.ExceptHandler)
                and all(isinstance(s, ast.Raise) for s in node.body)):
            left.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node.decorator_list:
            left.add(node.lineno)
    lines, codes = set(), [compile(tree, "<source>", "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return sorted(lines - left - set(ran))


def tracer_named():
    """The (file, first line) of every function the tracer's tables name
    by a (module, attribute) pair; its classes have no code of their
    own."""
    named = set()
    import tracing

    for row in tracing.SPANS + tracing.COUNTED:
        obj = getattr(importlib.import_module(row[0]), row[1])
        code = getattr(obj, "__code__", None)
        if code is not None:
            named.add((code.co_filename, code.co_firstlineno))
    return named


def run_all(root):
    """Every command, demo and workload pass, as the module docstring
    lists them, with the imports of bmpnet that they need."""
    import workloads
    from bmpnet import cli

    if Path(cli.__file__).resolve().parent != SRC:
        sys.exit("reach.py: bmpnet was not imported from %s" % SRC)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), \
            contextlib.redirect_stderr(quiet):
        for name, argv in golden.COMMANDS:
            out = golden.command_dir(name, root)
            cli.main([a.format(out=out, root=root) for a in argv])
            golden.bare_scheme(name, out)
        for script in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
    for name, cls in workloads.WORKLOADS.items():
        workload, tally = cls(0), workloads.Tally()
        workload.check(workload.run(str(root / name)), str(root / name),
                       tally)
        print("workload %s: %d of %d operations failed %s"
              % (name, tally.failed, tally.attempted, tally.reasons),
              file=sys.stderr)


def print_lines(functions, ran, named):
    """The ``--lines`` report: each file's :func:`never_run` lines."""
    count = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__main__.py":
            continue
        source = path.read_text()
        text = source.splitlines()
        wrapped = [(first, last) for (file, first), (*_, last)
                   in functions.items()
                   if file == str(path) and (file, first) in named]
        for line in never_run(source, ran[str(path)]):
            count += 1
            print("%s:%d  %s%s" % (
                path.stem, line, text[line - 1].strip(),
                "  [tracer]" if any(first <= line <= last
                                    for first, last in wrapped) else ""))
    print("%d lines never ran" % count)


def main(argv):
    parser = argparse.ArgumentParser(prog="reach.py")
    parser.add_argument("outdir")
    parser.add_argument("--lines", action="store_true",
                        help="list the lines that never ran, not the "
                        "functions never entered")
    args = parser.parse_args(argv[1:])
    root = Path(args.outdir).resolve()
    if root.exists() and any(root.iterdir()):
        sys.exit("reach.py: %s is not empty" % root)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    functions, entered = defined_functions(), set()
    # {file: lines run} of each source file, traced line by line
    ran = {str(path): set() for path in SRC.glob("*.py")} \
        if args.lines else {}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def trace(frame, event, arg):
        code = frame.f_code
        if (code.co_filename, code.co_firstlineno) in functions:
            entered.add((code.co_filename, code.co_firstlineno))
        if code.co_filename in ran:
            return lines

    sys.settrace(trace)
    try:
        run_all(root)
    finally:
        sys.settrace(None)
    named = tracer_named()
    if args.lines:
        print_lines(functions, ran, named)
        return
    never = sorted(set(functions) - entered)
    for key in never:
        module, qualname, line, _ = functions[key]
        print("%s:%d  %s%s" % (module, line, qualname,
                               "  [tracer]" if key in named else ""))
    print("%d of %d functions never entered" % (len(never), len(functions)))


if __name__ == "__main__":
    main(sys.argv)
