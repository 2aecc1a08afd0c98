"""Command line front end.

Subcommands: demo, train, sweep, verify, welch, train-eps.  Options may
come from flags or from a JSON config file (--config); flags win, and
unknown config keys are rejected, and so are config values whose JSON
type does not match the option (an int may stand for a float, and a
list option takes a comma separated string or a list of numbers and
strings).  Exit codes: 0 on success, 1 when a requested check fails, 2
for usage or config errors, 3 when training diverges (a batch loss or an
updated parameter is not finite).
Commands that write files place everything under --out next to a
manifest.json listing the resolved options (--out as ".", the manifest's
own directory) and the produced files.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np

from .border import EpsSchedule, train_eps
from .experiment import SweepConfig, adjacent_welch, export, per_rank_stats, \
    sweep, write_json
from .network import strassen_stages, total_bmp, total_direct, \
    build_matmul_chain
from .scheme import scheme_from_json, scheme_to_json
from .stats import SampleStats, welch_one_tailed
from .tensor import contraction, exact_array
from .training import TrainConfig, TrainingDiverged, train
from .verify import known_strassen, exponent, normalize_slots, \
    round_scheme, verify_scheme


def _err(msg):
    print("error: %s" % msg, file=sys.stderr)


# dataclass fields whose option key differs, and fields left unexposed
_RENAMED = {"clip_threshold": "clip", "base_seed": "seed"}
_UNEXPOSED = ("beta1", "beta2", "adam_eps")


def _fields(cls):
    """Option key -> dataclass field, for every exposed field of cls."""
    return {_RENAMED.get(f.name, f.name): f for f in fields(cls)
            if f.name not in _UNEXPOSED}


def _defaults(cls, **extra):
    return dict({key: f.default for key, f in _fields(cls).items()},
                **extra)


TRAIN_KEYS = _defaults(TrainConfig, n=2, r=7, out=None, verbose=False)

SWEEP_KEYS = _defaults(SweepConfig, out=None, threads=1, top_vs_rest=False)

VERIFY_KEYS = {
    "scheme": None, "exact": False, "round": False, "tol": 1e-8,
    "grid": None, "out": None,
}

WELCH_KEYS = {"g1": None, "g2": None, "out": None}

TRAIN_EPS_KEYS = dict(TRAIN_KEYS, **_defaults(EpsSchedule), dmax=2,
                      fmin=-2, probe_eps=1e-3)

DEMO_KEYS = {"which": None}

# options that hold a comma separated list
_LISTS = ("ranks", "grid", "g1", "g2")

# help text by option key, shown by every subcommand that has the option
_HELP = {
    "which": "which walkthrough to run",
    "resample": "draw a fresh training set each epoch",
    "ranks": "comma separated rank list",
    "top_vs_rest": "also compare the top rank against every other",
    "scheme": "path to a scheme JSON file, or 'strassen' for the built-in "
              "one",
    "exact": "read entries as exact rationals",
    "round": "gauge-normalise and snap to the grid first",
    "tol": "float-mode residual tolerance",
    "grid": "comma separated rational grid values",
    "g1": "mean,std,count of group 1",
    "g2": "mean,std,count of group 2",
}


def _is_number(part):
    for parse in (float, Fraction):
        try:
            parse(part)
            return True
        except (ValueError, ZeroDivisionError):
            pass
    return False


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' and whose comma separated parts
    each parse as a float or a Fraction, such as -1e-3, -inf or -1/2,0,1,
    as the value of the flag before it; argparse alone takes it for a
    flag unless it looks like -2 or -.5."""

    def parse_known_args(self, args=None, namespace=None):
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            flag = tokens[-1] if tokens else ""
            if (token.startswith("-")
                    and all(map(_is_number, token.split(",")))
                    and flag.startswith("--") and flag != "--"
                    and "=" not in flag):
                tokens[-1] = flag + "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def build_parser():
    """One subparser per entry of _COMMANDS and one flag per key of its
    option table, typed by the key's default: a bool gives a switch, an
    int or float converts the value, anything else keeps the string."""
    parser = _Parser(
        prog="bmpnet",
        description="tensor-network calculus, scheme training and "
                    "verification for fast matrix multiplication")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text,
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON file with option defaults")
        if name == "demo":
            sp.add_argument("which", choices=("classical2x2", "strassen2x2"),
                            help=_HELP["which"])
            continue
        for key, default in keys.items():
            if isinstance(default, bool):
                kind = {"action": "store_true"}
            elif isinstance(default, (int, float)):
                kind = {"type": type(default)}
            else:
                kind = {"type": str}
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=_HELP.get(key), **kind)
    return parser


class UsageError(Exception):
    pass


def _resolve(args, defaults):
    """Merge defaults, config file and flags (ascending precedence)."""
    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "config")}
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError("cannot read config %s: %s"
                             % (config_path, exc))
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise UsageError("unknown config keys: %s"
                             % ", ".join(unknown))
        for key, value in loaded.items():
            # a list option takes a comma separated string or a list of
            # numbers and strings, or null where its default is None
            if key in _LISTS:
                if not (isinstance(value, str)
                        or value is None and defaults[key] is None
                        or isinstance(value, list) and all(
                            type(v) in (int, float, str) for v in value)):
                    raise UsageError(
                        "option %s must be a comma separated string or a "
                        "list of numbers and strings, got %r" % (key, value))
                continue
            # an option whose default is a bool, int or float takes values
            # of that type only, except that an int may stand for a float;
            # a path takes a string, or null for none
            kind = str if key in ("out", "scheme") else type(defaults[key])
            allowed = {float: (int, float), str: (str, type(None))}.get(
                kind, kind)
            if kind in (bool, int, float, str) and (
                    isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, allowed)):
                raise UsageError("option %s must be %s, got %r"
                                 % (key, kind.__name__, value))
        merged.update(loaded)
    merged.update(given)
    return merged


def _parts(value):
    """The parts of a list option's string, or the text of each element
    of its list, so that every part is parsed from text: a rank of 19.5
    is an error, not 19."""
    if isinstance(value, str):
        return value.split(",")
    return [str(v) for v in value]


def _parse_ranks(value):
    try:
        return tuple(int(part) for part in _parts(value) if part != "")
    except ValueError as exc:
        raise UsageError("bad --ranks: %s" % exc)


def _parse_group(value, name):
    parts = _parts(value)
    if len(parts) != 3:
        raise UsageError("%s must be mean,std,count" % name)
    try:
        return SampleStats(mean=float(parts[0]), std=float(parts[1]),
                           count=int(parts[2]))
    except ValueError as exc:
        raise UsageError("bad %s: %s" % (name, exc))


def _write_out(command, opts, payloads, written=()):
    """Under --out, write each JSON payload by its file name, then
    manifest.json with the resolved options and every file, those that
    ``export`` already wrote included; returns whether --out was given."""
    outdir = opts["out"]
    if not outdir:
        return False
    for name, payload in payloads.items():
        write_json(outdir, name, payload)
    # --out is recorded as the manifest's own directory, so the same
    # command writes the same bytes wherever its files go
    write_json(outdir, "manifest.json", {
        "command": command, "options": dict(opts, out="."),
        "files": sorted([*payloads, *written])})
    return True


def _config(cls, opts, **given):
    """Build cls from the resolved options, converting each to its
    field's type (so an int config value becomes a float)."""
    for key, f in _fields(cls).items():
        if f.name not in given:
            given[f.name] = f.type(opts[key])
    return cls(**given)


def _cmd_demo(opts):
    if opts["which"] == "classical2x2":
        return _demo_classical()
    return _demo_strassen()


def _demo_classical():
    a = exact_array([[1, 2], [3, 4]])
    b = exact_array([[5, 6], [7, 8]])
    net = build_matmul_chain(a, b)
    direct = total_direct(net)
    product = total_bmp(net)
    print("chain network: rows -> mid -> cols, activations 1, A, B")
    print("total tensor via direct evaluation, shape %s"
          % (direct.shape,))
    print("total tensor via lift + product, shape %s" % (product.shape,))
    agree = bool(np.all(direct == product))
    print("routes agree entrywise: %s" % agree)
    out = contraction(product, {1})
    print("after summing out the middle slot:")
    print(np.array2string(out.astype(object)))
    expected = a.dot(b)
    ok = agree and bool(np.all(out == expected))
    print("equals A @ B: %s" % bool(np.all(out == expected)))
    return 0 if ok else 1


def _demo_strassen():
    s = known_strassen()
    report = verify_scheme(s)
    print("built-in 2x2 scheme: r=%d, exact residual zero: %s"
          % (s.r, report.exact_zero))
    a = exact_array([[1, 2], [3, 4]])
    b = exact_array([[5, 6], [7, 8]])
    stages = strassen_stages(a, b, s)
    print("the %d scalar multiplications:" % s.r)
    print(np.array2string(stages["products"].astype(object)))
    print("pipeline output (flattened product, zero-padded to r):")
    print(np.array2string(stages["output"].astype(object)))
    expected = a.dot(b).reshape(4)
    head = stages["output"][:4]
    tail = stages["output"][4:]
    match = bool(np.all(head == expected)) and bool(np.all(tail == 0))
    ok = bool(report.exact_zero) and match
    print("equals vec(A @ B) plus zero padding: %s" % match)
    print("implied exponent log_2(7) = %.6f" % exponent(2, s.r))
    return 0 if ok else 1


def _cmd_train(opts):
    cfg = _config(TrainConfig, opts)
    progress = None
    if opts["verbose"]:
        def progress(epoch, tr, va):
            print("epoch %3d  train %.6e  val %.6e" % (epoch, tr, va))
    try:
        record = train(cfg, progress=progress)
    except TrainingDiverged as exc:
        # a partial record: the curves before the diverged epoch, no scheme
        _write_out("train", opts, {"run.json": dict(
            config=cfg.to_json(), train_losses=exc.train_losses,
            val_losses=exc.val_losses, diverged={"epoch": exc.epoch})})
        raise
    print("final train loss %.6e  final val loss %.6e  (%.2f s)"
          % (record.train_losses[-1], record.final_val_loss,
             record.wall_seconds))
    if _write_out("train", opts, {"run.json": record.to_json()}):
        print("wrote %s" % os.path.join(opts["out"], "run.json"))
    return 0


def _cmd_sweep(opts):
    ranks = _parse_ranks(opts["ranks"])
    cfg = _config(SweepConfig, opts, ranks=ranks)
    threads = opts["threads"]
    if threads < 1:
        raise UsageError("--threads must be at least 1, got %d" % threads)

    def progress(rec):
        print("rank %2d rep %d: final val loss %.6e"
              % (rec.extras["rank"], rec.extras["repetition"],
                 rec.final_val_loss))

    records = sweep(cfg, threads=threads, progress=progress)
    for rank, st in per_rank_stats(records).items():
        print("rank %2d: mean %.6e  std %.6e  (n=%d)"
              % (rank, st.mean, st.std, st.count))
    for hi, lo, report in adjacent_welch(records):
        print("rank %d vs %d: t=%.3f df=%.1f p=%.4g"
              % (hi, lo, report.t, report.df, report.p_one_tailed))
    runs, written = {}, []
    if opts["out"]:
        written = export(records, opts["out"],
                         top_vs_rest=opts["top_vs_rest"])
        runs = {os.path.join("runs", "rank%02d_rep%d.json" % (
            rec.extras["rank"], rec.extras["repetition"])): rec.to_json()
            for rec in records}
    if _write_out("sweep", dict(opts, ranks=list(ranks)), runs, written):
        print("wrote %d files under %s"
              % (len(runs) + len(written) + 1, opts["out"]))
    return 0


def _load_scheme(opts):
    source = opts["scheme"]
    if source is None:
        raise UsageError("verify needs --scheme")
    if source == "strassen":
        return known_strassen()
    try:
        with open(source) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("cannot read scheme %s: %s" % (source, exc))
    # a run record of train, sweep or train-eps holds its scheme as one key
    if isinstance(payload, dict) and isinstance(payload.get("scheme"), dict):
        payload = payload["scheme"]
    return scheme_from_json(payload, exact=opts["exact"])


def _cmd_verify(opts):
    grid = opts["grid"]
    if grid is not None and not opts["round"]:
        raise UsageError("--grid needs --round")
    if not float(opts["tol"]) >= 0:
        raise UsageError("--tol must be 0 or more, got %r" % opts["tol"])
    loaded = _load_scheme(opts)
    if opts["round"]:
        snap = {}
        if grid is not None:
            snap["grid"] = tuple(Fraction(p) for p in _parts(grid))
        loaded = round_scheme(normalize_slots(loaded), **snap)
    report = verify_scheme(loaded)
    payload = report.to_json()
    print(json.dumps(payload, indent=2, sort_keys=True))
    payloads = {"report.json": payload}
    if opts["round"]:
        payloads["rounded_scheme.json"] = scheme_to_json(loaded)
    _write_out("verify", opts, payloads)
    if report.exact_zero is not None:
        return 0 if report.exact_zero else 1
    return 0 if report.residual <= float(opts["tol"]) else 1


def _cmd_welch(opts):
    if opts["g1"] is None or opts["g2"] is None:
        raise UsageError("welch needs --g1 and --g2")
    g1 = _parse_group(opts["g1"], "--g1")
    g2 = _parse_group(opts["g2"], "--g2")
    report = welch_one_tailed(g1, g2)
    payload = report.to_json()
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_out("welch", opts, {"welch.json": payload})
    return 0


def _cmd_train_eps(opts):
    cfg = _config(TrainConfig, opts)
    schedule = _config(EpsSchedule, opts)
    progress = None
    if opts["verbose"]:
        def progress(epoch, tr, va, probe, eps):
            print("epoch %3d  train %.6e  val %.6e  probe %.6e  eps %.4e"
                  % (epoch, tr, va, probe, eps))
    record = train_eps(cfg, schedule, d_max=opts["dmax"],
                       f_min=opts["fmin"],
                       probe_eps=float(opts["probe_eps"]),
                       progress=progress)
    print("final val loss %.6e  probe loss %.6e  eps %.4e  (%.2f s)"
          % (record.final_val_loss, record.probe_losses[-1],
             record.epsilon_trajectory[-1], record.wall_seconds))
    if _write_out("train-eps", opts, {"run_eps.json": record.to_json()}):
        print("wrote %s" % os.path.join(opts["out"], "run_eps.json"))
    return 0


# subcommand -> (handler, option table, help)
_COMMANDS = {
    "demo": (_cmd_demo, DEMO_KEYS, "narrated walkthroughs"),
    "train": (_cmd_train, TRAIN_KEYS, "train one scheme"),
    "sweep": (_cmd_sweep, SWEEP_KEYS, "rank sweep with statistics"),
    "verify": (_cmd_verify, VERIFY_KEYS, "check a scheme file"),
    "welch": (_cmd_welch, WELCH_KEYS, "compare two loss groups"),
    "train-eps": (_cmd_train_eps, TRAIN_EPS_KEYS,
                  "train the vanishing-parameter extension"),
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, defaults, _ = _COMMANDS[args.command]
    try:
        opts = _resolve(args, defaults)
        return handler(opts)
    except (UsageError, ValueError) as exc:
        _err(str(exc))
        return 2
    except TrainingDiverged as exc:
        _err(str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
