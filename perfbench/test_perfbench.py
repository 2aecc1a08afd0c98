"""Tests of the benchmark itself, at smoke-test sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_bmpnet()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_reports_exactly_the_declared_metrics(name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=trace, tiny=True,
                         probes=1)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
    assert all(math.isfinite(v) for v in result["metrics"].values())


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in BENCH["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)


def _files(root):
    """Relative path -> bytes of every file under ``root``; the manifest's
    own --out entry is dropped, as it names the directory."""
    out = {}
    for base, _, names in os.walk(root):
        for fname in names:
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            if fname == "manifest.json":
                obj = json.loads(data)
                obj["options"].pop("out")
                data = json.dumps(obj, sort_keys=True).encode()
            out[os.path.relpath(path, root)] = data
    return out


def _snapshot(out):
    """Everything a pass produced, as comparable JSON text."""
    def enc(value):
        if hasattr(value, "to_json"):
            return value.to_json()
        if hasattr(value, "H"):
            return [str(value.H.tolist()), str(value.K.tolist()),
                    str(value.F.tolist())]
        if hasattr(value, "tolist"):
            return str(value.tolist())
        if isinstance(value, (list, tuple)):
            return [enc(v) for v in value]
        return value if isinstance(value, (int, float, str, type(None))) \
            else repr(value)

    kept = {k: v for k, v in out.items() if not k.endswith("_s")}
    return json.dumps({k: enc(v) for k, v in kept.items()}, sort_keys=True)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_changes_no_output_and_accounts_for_the_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, tiny=True)
    plain = workload.run(str(tmp_path / "plain"))
    tracer = tracing.Tracer()
    tracer.begin_pass(1)
    with tracer:
        started = tracing.perf_counter()
        traced = workload.run(str(tmp_path / "traced"))
        elapsed = tracing.perf_counter() - started
    assert _snapshot(plain) == _snapshot(traced)
    assert _files(tmp_path / "plain") == _files(tmp_path / "traced")

    m = tracing.reduce_pass(tracer, elapsed, workloads.BATCH)
    parts = sum(m["%s.self_s" % layer] for layer in tracing.LAYERS) \
        + m["trace.self_s"] + m["bench.self_s"]
    assert parts == pytest.approx(elapsed, rel=1e-9)
    assert m["trace.spans"] > 0


def test_wrappers_are_removed_after_a_traced_pass():
    from bmpnet import network, training

    before = (training.grad_analytic, network.bmp)
    with tracing.Tracer():
        assert training.grad_analytic is not before[0]
    assert (training.grad_analytic, network.bmp) == before


def test_serial_and_pool_sweeps_write_identical_hist(tmp_path):
    """The CLI sweep writes the same files with --threads 2 as with the
    benchmark's --threads 1."""
    serial = workloads.Sweep(11, tiny=True)
    pool = workloads.Sweep(11, tiny=True, threads=2)
    for work, sub in ((serial, "serial"), (pool, "pool")):
        assert work.run(str(tmp_path / sub))["code"] == 0
    for fname in ("hist.csv", "curves.csv", "welch.json"):
        assert (tmp_path / "serial" / fname).read_bytes() \
            == (tmp_path / "pool" / fname).read_bytes()


def test_checks_catch_wrong_outputs():
    """A corrupted loss, an uncertified scheme claimed as certified and a
    broken network each count as failed."""
    from bmpnet import verify

    work = workloads.Rediscover(2, tiny=True)
    cfg = work.cfgs[0]
    from bmpnet import training
    rec = training.train(cfg)
    s = rec.scheme
    assert workloads.run_ok(cfg, rec.val_losses, rec.final_val_loss,
                            s.H, s.K, s.F)
    assert not workloads.run_ok(cfg, rec.val_losses,
                                rec.final_val_loss * (1 + 1e-9),
                                s.H, s.K, s.F)
    assert not workloads.run_ok(cfg, rec.val_losses + [math.nan],
                                rec.final_val_loss, s.H, s.K, s.F)

    strassen = verify.known_strassen()
    assert workloads.float_certifies(strassen)
    assert not workloads.float_certifies(workloads.perturbed(strassen))
    tally = workloads.Tally()
    wrong = verify.verify_scheme(workloads.perturbed(strassen))
    workloads.check_certificate(tally, "claimed", strassen, wrong, True, {})
    assert tally.failed == 1

    composed = workloads.compose(strassen, strassen)
    assert composed.n == 4 and composed.r == 49
    assert workloads.float_certifies(composed)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero
    and prints no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode != 0
    assert done.stdout == ""
