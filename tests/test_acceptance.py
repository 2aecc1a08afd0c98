"""End-to-end acceptance checks.  One test per headline requirement;
each prints a single pass/fail line with the measured numbers so a log
scan shows the whole scorecard.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear; without ``-s`` the verbose PASSED/FAILED column carries the
same verdicts.
"""

import math
import shutil
import time

import numpy as np

from bmpnet.border import EpsSchedule, evaluate, train_eps, \
    wstate_embedded, wstate_eps_scheme
from bmpnet.experiment import SweepConfig, per_rank_stats, sweep
from bmpnet.network import strassen_pipeline
from bmpnet.scheme import forward_fast_batch
from bmpnet.stats import SampleStats, t_cdf, welch_one_tailed
from bmpnet.training import (
    TrainConfig,
    gen_dataset,
    init_scheme,
    mse,
    train,
)
from bmpnet.verify import known_strassen, residual_sq_exact
from clirun import run_module
from netgen import random_exact, random_network
from reference import fresh_grads


def report(num, ok, detail):
    line = "criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    return line


def test_criterion_1_exact_seven_multiplication_scheme():
    """Pinned rank-7 scheme has exact residual zero and the staged
    pipeline reproduces vec(A @ B) on random rational inputs, < 1 s."""
    started = time.perf_counter()
    scheme = known_strassen()
    zero = residual_sq_exact(scheme, 2) == 0
    rng = np.random.default_rng(0)
    pipeline_ok = True
    for _ in range(50):
        a = random_exact(rng, (2, 2))
        b = random_exact(rng, (2, 2))
        out = strassen_pipeline(a, b, scheme)
        want = a.dot(b).reshape(4)
        if not (all(out[i] == want[i] for i in range(4))
                and all(out[i] == 0 for i in range(4, 7))):
            pipeline_ok = False
            break
    elapsed = time.perf_counter() - started
    ok = zero and pipeline_ok and elapsed < 1.0
    line = report(1, ok, "exact residual zero: %s, 50 rational pipeline "
                  "runs exact: %s, %.2fs" % (zero, pipeline_ok, elapsed))
    assert ok, line


def test_criterion_2_total_tensor_routes_agree():
    """Direct evaluation and the lifted-factor product give identical
    total tensors on 200 random networks, exact arithmetic, < 10 s."""
    from bmpnet.network import total_bmp, total_direct

    started = time.perf_counter()
    rng = np.random.default_rng(7)
    agree = True
    for _ in range(200):
        net = random_network(rng)
        direct = total_direct(net)
        product = total_bmp(net)
        if direct.shape != product.shape \
                or not all(direct[idx] == product[idx]
                           for idx in np.ndindex(direct.shape)):
            agree = False
            break
    elapsed = time.perf_counter() - started
    ok = agree and elapsed < 10.0
    line = report(2, ok, "200 random networks agree exactly: %s, %.2fs"
                  % (agree, elapsed))
    assert ok, line


def test_criterion_3_analytic_gradients():
    """Analytic gradients match central differences at h = 1e-6 within
    1e-5 relative error on 20 random cases, < 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 4))
        r = int(rng.integers(n * n, n * n + 4))
        scheme = init_scheme(n, r, int(rng.integers(1 << 30)), 1.0)
        a_rows, b_rows, t_rows = gen_dataset(n, 8,
                                             int(rng.integers(1 << 30)))
        _, (d_hk, d_f) = fresh_grads(
            np.stack((scheme.H, scheme.K)), scheme.F,
            np.stack((a_rows, b_rows)), t_rows)
        d_h, d_k = d_hk
        mats = {"H": (scheme.H, d_h), "K": (scheme.K, d_k),
                "F": (scheme.F, d_f)}
        for name, (mat, grad) in mats.items():
            for idx in np.ndindex(mat.shape):
                orig = mat[idx]
                mat[idx] = orig + h
                up = mse(forward_fast_batch(scheme, a_rows, b_rows), t_rows)
                mat[idx] = orig - h
                down = mse(forward_fast_batch(scheme, a_rows, b_rows),
                           t_rows)
                mat[idx] = orig
                fd = (up - down) / (2 * h)
                rel = abs(grad[idx] - fd) / max(abs(grad[idx]) + abs(fd),
                                                1e-12)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 30.0
    line = report(3, ok, "20 cases, max relative error %.3e, %.2fs"
                  % (worst, elapsed))
    assert ok, line


def test_criterion_4_rediscovery_rate():
    """Training at n=2, r=7 with 2000 samples for 30 epochs reaches a
    final validation loss below 1e-3 in at least 5 of 7 seeds."""
    finals = []
    for seed in range(7):
        cfg = TrainConfig(n=2, r=7, epochs=30, batch_size=32, lr=1e-3,
                          clip_threshold=10.0, train_size=2000,
                          val_size=10000, alpha=1.0, seed=seed)
        finals.append(train(cfg).final_val_loss)
    successes = sum(1 for v in finals if v < 1e-3)
    detail = "%d/7 seeds below 1e-3, finals %s" % (
        successes, ["%.3e" % v for v in finals])
    ok = successes >= 5
    line = report(4, ok, detail)
    assert ok, line


def test_criterion_5_rank_separation():
    """Rank sweep at n=3 (ranks 19..23, 3 reps, 2000 samples, 60
    epochs): either the top rank beats its neighbour by 3x with the mean
    losses monotone in rank, or at minimum the mean losses satisfy
    loss(23) < loss(22) < loss(19)."""
    cfg = SweepConfig(n=3, ranks=(19, 20, 21, 22, 23), reps=3, epochs=60,
                      batch_size=32, lr=1e-3, clip_threshold=10.0,
                      train_size=2000, val_size=10000, alpha=1.0,
                      base_seed=0)
    stats = per_rank_stats(sweep(cfg))
    means = {rank: stats[rank].mean for rank in cfg.ranks}
    ratio = means[22] / means[23]
    ordered = sorted(cfg.ranks, reverse=True)
    monotone = all(means[hi] < means[lo]
                   for hi, lo in zip(ordered, ordered[1:]))
    primary = ratio >= 3.0 and monotone
    fallback = means[23] < means[22] < means[19]
    detail = ("means %s; separation 22/23 = %.3f (>=3: %s), "
              "monotone in rank: %s, ordering 23<22<19: %s"
              % ({r: "%.4f" % means[r] for r in ordered}, ratio,
                 ratio >= 3.0, monotone, fallback))
    ok = primary or fallback
    line = report(5, ok, detail)
    assert ok, line


def test_criterion_6_welch_fixture():
    """The worked seven-vs-seven comparison reproduces the pinned
    statistic, interval and p-value, < 1 s."""
    started = time.perf_counter()
    g1 = SampleStats(mean=0.0022168, std=0.0047183, count=7)
    g2 = SampleStats(mean=0.012782, std=0.0069753, count=7)
    rep = welch_one_tailed(g1, g2)
    t_ok = abs(rep.t - (-3.318)) <= 0.005
    ci_ok = (abs(rep.ci_low - (-0.0176)) <= 0.0005
             and abs(rep.ci_high - (-0.0036)) <= 0.0005)
    p_ok = 0.002 <= rep.p_one_tailed <= 0.005
    elapsed = time.perf_counter() - started
    ok = t_ok and ci_ok and p_ok and elapsed < 1.0
    line = report(6, ok, "t=%.4f, df=%.2f (unrounded; 11.2 elsewhere is "
                  "a rounding), p=%.4g, ci=[%.4f, %.4f], %.2fs"
                  % (rep.t, rep.df, rep.p_one_tailed, rep.ci_low,
                     rep.ci_high, elapsed))
    assert ok, line


def test_criterion_7_t_distribution():
    """The t CDF coincides with the Cauchy closed form at one degree of
    freedom to 1e-10 and is exactly 1/2 at zero."""
    worst = 0.0
    for t in np.linspace(-20.0, 20.0, 50):
        want = 0.5 + math.atan(t) / math.pi
        worst = max(worst, abs(t_cdf(t, 1.0) - want))
    half = all(t_cdf(0.0, df) == 0.5 for df in (1.0, 5.0, 11.2, 30.0))
    ok = worst <= 1e-10 and half
    line = report(7, ok, "max Cauchy deviation %.3e, CDF(0)=1/2 exactly: "
                  "%s" % (worst, half))
    assert ok, line


def test_criterion_8_border_rank():
    """The rank-2 curve approaches the W tensor at slope 1 in log-log,
    and with degree 0 and decay 1 the annealed trainer reproduces plain
    training bitwise, < 1 min."""
    started = time.perf_counter()
    w = wstate_embedded()
    eps_values = (1e-1, 1e-2, 1e-3)
    errs = []
    for eps in eps_values:
        s = evaluate(wstate_eps_scheme(eps))
        tensor = np.einsum("is,js,sk->ijk", np.asarray(s.H, float),
                           np.asarray(s.K, float), np.asarray(s.F, float))
        errs.append(np.linalg.norm(tensor - w))
    slope = np.polyfit(np.log10(eps_values), np.log10(errs), 1)[0]
    slope_ok = abs(slope - 1.0) <= 0.1

    cfg = TrainConfig(n=2, r=7, epochs=5, batch_size=32, lr=1e-3,
                      train_size=512, val_size=256, seed=0)
    plain = train(cfg)
    annealed = train_eps(cfg, schedule=EpsSchedule(eps0=0.02, decay=1.0),
                         d_max=0, f_min=0)
    final = evaluate(annealed.eps_scheme)
    reduce_ok = (annealed.train_losses == plain.train_losses
                 and annealed.val_losses == plain.val_losses
                 and np.array_equal(final.H, plain.scheme.H)
                 and np.array_equal(final.K, plain.scheme.K)
                 and np.array_equal(final.F, plain.scheme.F))
    elapsed = time.perf_counter() - started
    ok = slope_ok and reduce_ok and elapsed < 60.0
    line = report(8, ok, "log-log slope %.4f (|slope-1|<=0.1: %s), "
                  "degree-0 decay-1 run bitwise equal to plain training: "
                  "%s, %.2fs" % (slope, slope_ok, reduce_ok, elapsed))
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    """Repeating a command with --threads 1 rewrites every JSON file
    byte for byte."""
    out_dir = tmp_path / "out"
    argv = ["sweep", "--n", "2", "--ranks", "5,7", "--reps", "2",
            "--epochs", "2", "--batch-size", "16", "--train-size", "64",
            "--val-size", "32", "--seed", "0", "--threads", "1",
            "--out", str(out_dir)]

    def files():
        return {path.relative_to(out_dir): path.read_bytes()
                for path in sorted(out_dir.rglob("*")) if path.is_file()}

    proc = run_module(argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    snapshot = files()
    # the rerun starts from an empty directory, so every file it is
    # compared on is one it wrote itself
    shutil.rmtree(out_dir)
    proc = run_module(argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    same = files() == snapshot
    names = sorted(str(rel) for rel in snapshot)
    ok = same and "welch.json" in names and "manifest.json" in names
    line = report(9, ok, "%d files rewritten identically: %s"
                  % (len(snapshot), same))
    assert ok, line
