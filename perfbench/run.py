"""bmpnet benchmark: time to a sweep result and time to an exact verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads: sweep-n3, rediscover-n2, certify-exact (see workloads.py and
perfbench/baseline.json for why each exists).  A run builds the workload's
inputs from --seed, runs one warm-up pass, then runs passes back to back
for --seconds and checks every pass's outputs.

--trace 0 reports the end-to-end metrics: the pass time in reference units
(wall_ref, below), the set-up time (median of several fresh processes that
import bmpnet and build the inputs) and the peak resident memory.  The
pass time in seconds (wall_s) is printed and saved beside them.

wall_ref is the median over passes of the pass time divided by the time of
a fixed reference computation that uses no bmpnet code, timed just before
and just after the pass (the mean of the two).  On a shared 2-core host
whose speed swings by a third within a minute, that ratio stays put where
the seconds do not; a change to bmpnet moves the pass time and leaves the
reference alone.

--trace 1 alternates plain and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric, the environment and the number of samples, and the same record
goes to .perfbench-out/ with the traced spans.

bmpnet is imported from src/ of the checkout and nowhere else; without it
the run exits with code 2.  OPENBLAS_NUM_THREADS is recorded as found and
never set.
"""

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = ("sweep-n3", "rediscover-n2", "certify-exact")
END_TO_END = ("setup_s", "wall_ref", "peak_rss_mb")
SETUP_PROBES = 5
REF_LOOPS = 18000
REF_SWEEPS = 80
MIN_PASSES = 3


def unit_of(name):
    """Unit of a metric, from its name."""
    if "_s_" in name:
        return "s"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_mb", "MB"),
                         ("_ref", "ref"),
                         ("_frac", "frac"), ("_per_s", "1/s"),
                         ("per_step", "count"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name == "val_loss_median":
        return "loss"
    return "count"


def import_bmpnet():
    """Import bmpnet from this checkout's src/, or exit with code 2."""
    sys.path.insert(0, SRC)
    try:
        import bmpnet
    except ImportError as exc:
        print("perfbench: cannot import bmpnet from %s: %s" % (SRC, exc),
              file=sys.stderr)
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(bmpnet.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print("perfbench: bmpnet comes from %s, not from %s"
              % (where, SRC), file=sys.stderr)
        sys.exit(2)


def environment():
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def setup_seconds(name, seed, tiny, probes):
    """Median set-up time over fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] * tiny)
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def reference_s():
    """Seconds taken by a fixed computation that uses no bmpnet code, all
    on one thread: exact rational arithmetic, dict updates and 9x9 numpy
    products (interpreter-bound, like the training steps and the Fraction
    path), then elementwise passes over 20000x9 arrays (like the
    validation passes).  Timed between passes, it gauges the speed the
    host gives this process at that moment."""
    import numpy as np

    matrix = np.arange(81.0).reshape(9, 9)
    rows = np.linspace(0.0, 1.0, 20000 * 9).reshape(20000, 9)
    cols = rows[::-1].copy()
    t0 = perf_counter()
    total, bins = Fraction(0), {}
    for i in range(1, REF_LOOPS):
        total += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
        bins[i % 97] = bins.get(i % 97, 0) + i
    x = matrix
    for _ in range(REF_LOOPS // 2):
        x = (x @ matrix) * 1e-3 + matrix
    for _ in range(REF_SWEEPS):
        d = rows * cols - cols
        np.sum(d * d, axis=-1).mean()
        np.clip(d, -0.5, 0.5, out=d)
    return perf_counter() - t0


def measure(name, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one workload; returns the full result record."""
    from tracing import Tracer, reduce_pass
    from workloads import BATCH, WORKLOADS, Tally

    env = environment()
    workload = WORKLOADS[name](seed, tiny)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tally = Tally()
    plain, traced, layer_rows, quality = [], [], [], []
    refs, ratios = [], []
    tracer = Tracer() if trace else None
    spans_path = os.path.join(OUT, "%s-seed%d-spans.tsv.gz" % (name, seed))
    spans = gzip.open(spans_path, "wt") if trace else None
    deadline = None
    index = 0
    try:
        while True:
            passdir = os.path.join(work, "pass%d" % index)
            traced_pass = trace and index > 0 and index % 2 == 0
            gc.collect()
            if traced_pass:
                tracer.begin_pass(index)
                tracer.install()
            t0 = perf_counter()
            try:
                out = workload.run(passdir)
            finally:
                t1 = perf_counter()
                if traced_pass:
                    tracer.uninstall()
            if not trace:
                refs.append(reference_s())
            q = workload.check(out, passdir, tally)
            shutil.rmtree(passdir, ignore_errors=True)
            if traced_pass:
                layer_rows.append(reduce_pass(tracer, t1 - t0, BATCH))
                traced.append(t1 - t0)
                tracer.dump(spans)
                tracer.spans = []
            elif index > 0:
                plain.append(t1 - t0)
                quality.append(q)
                if not trace:
                    ratios.append((t1 - t0) / ((refs[-2] + refs[-1]) / 2))
            if index == 0:
                deadline = perf_counter() + seconds
            index += 1
            enough = (len(plain) >= MIN_PASSES if not trace
                      else min(len(plain), len(traced)) >= 2)
            if enough and perf_counter() >= deadline:
                break
    finally:
        if spans is not None:
            spans.close()
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.reasons,
              "plain_pass_s": plain, "traced_pass_s": traced,
              "reference_s": refs}
    if trace:
        per_layer = {key: statistics.median(row[key] for row in layer_rows)
                     for key in layer_rows[0]}
        per_layer["trace.overhead_frac"] = (statistics.median(traced)
                                            / statistics.median(plain) - 1)
        result["metrics"] = per_layer
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        return result

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": setup_seconds(name, seed, tiny, probes),
               "wall_ref": statistics.median(ratios),
               "peak_rss_mb": rss / 1024.0}
    extra = {key: statistics.median(q[key] for q in quality)
             for key in quality[0]}
    extra["wall_s"] = statistics.median(plain)
    extra["reference_s"] = statistics.median(refs)
    extra["failed_frac"] = tally.failed / tally.attempted
    result["metrics"] = metrics
    result["extra"] = extra
    return result


def report(result):
    """Human-readable lines, then the one-line JSON the contract asks for."""
    print("perfbench %s seed=%d seconds=%s trace=%d"
          % (result["workload"], result["seed"], result["seconds"],
             result["trace"]))
    print("env %s" % json.dumps(result["env"], sort_keys=True))
    samples = len(result["traced_pass_s" if result["trace"]
                         else "plain_pass_s"])
    shown = dict(result["metrics"], **result.get("extra", {}))
    for key in sorted(shown):
        print("%-28s %14.6g %-6s" % (key, shown[key], unit_of(key)))
    print("samples: %d passes; attempted %d, failed %d"
          % (samples, result["attempted"], result["failed"]))
    for reason in result["failures"]:
        print("failed: %s" % reason)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (result["workload"], result["seed"],
                           result["trace"]))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": unit_of(key)}
                    for key, value in result["metrics"].items()},
    }))


def run_all(args):
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (for the benchmark's tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of one fresh process")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    started = perf_counter()
    import_bmpnet()
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.tiny)
        print(repr(perf_counter() - started))
        return 0
    report(measure(args.workload, args.seed, args.seconds, args.trace,
                   args.tiny))
    return 0


if __name__ == "__main__":
    sys.exit(main())
