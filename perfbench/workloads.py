"""The benchmark's three workloads and their output checks.

Every workload is a closed loop: one process runs passes back to back, and
a pass calls into bmpnet through module attributes (``training.train``,
``verify.verify_scheme``, ...) so that a traced run sees each call.  Inputs
derive from the workload seed alone and are the same in every pass.

A workload object builds its inputs on construction (the part ``setup_s``
times), ``run`` executes one pass and returns its outputs with the time
of each operation, and ``check`` compares the outputs against references
computed here, independently of the code under test.  A failed check or an
operation that raised counts as failed; it never stops the run.
"""

import contextlib
import csv
import io
import json
import math
import os
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

from bmpnet import border, cli, experiment, network, scheme, training, verify

BATCH = 32
RANKS = (19, 20, 21, 22, 23)


def derive(seed, *tags):
    """A 31-bit seed for one input role, from the workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0]
               >> 1)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


def guarded(errors, label, fn, *args, **kwargs):
    """Run one operation; an exception is recorded, not raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the pass goes on; check() counts it
        errors.append("%s: %s: %s" % (label, type(exc).__name__, exc))
        return None


# -- references ----------------------------------------------------------

def expected_val_loss(cfg, H, K, F):
    """Final validation loss recomputed from the regenerated validation
    set, with the targets taken as a float64 ``a @ b``."""
    rng = np.random.default_rng(training.run_streams(cfg)["val"])
    n, count = cfg.n, cfg.val_size
    a = rng.uniform(cfg.low, cfg.high, (count, n, n))
    b = rng.uniform(cfg.low, cfg.high, (count, n, n))
    target = (a @ b).reshape(count, n * n)
    pred = ((a.reshape(count, -1) @ H) * (b.reshape(count, -1) @ K)) @ F
    diff = pred - target
    return float(np.mean(np.sum(diff * diff, axis=-1)))


def run_ok(cfg, losses, final, H, K, F):
    if not all(math.isfinite(v) for v in losses):
        return False
    want = expected_val_loss(cfg, H, K, F)
    return abs(final - want) <= 1e-12 * abs(want)


def float_certifies(s):
    """Float64 einsum check of a scheme with dyadic entries, where every
    sum is exact, so the answer is exact too."""
    n, r = s.n, s.r
    m = n * n
    H = np.array(s.H, dtype=np.float64)
    K = np.array(s.K, dtype=np.float64)
    F = np.array(s.F, dtype=np.float64).reshape(r, n, n)
    F = F.transpose(0, 2, 1).reshape(r, m)
    target = np.zeros((m, m, m))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                target[i * n + j, j * n + k, k * n + i] = 1.0
    return bool(np.array_equal(np.einsum("as,bs,sc->abc", H, K, F),
                               target))


def perturbed(s):
    """Copy of an exact scheme with one H entry moved by 1/2, in a slot
    whose K column and F row are nonzero, so the map really changes."""
    H = s.H.copy()
    slot = next((j for j in range(s.r)
                 if any(v != 0 for v in s.K[:, j])
                 and any(v != 0 for v in s.F[j, :])), 0)
    H[slot % H.shape[0], slot] += Fraction(1, 2)
    return scheme.BilinearScheme(n=s.n, r=s.r, H=H, K=s.K.copy(),
                                 F=s.F.copy())


def check_certificate(tally, label, s, report, must_certify, seen):
    verdict = report is not None and bool(report.exact_zero)
    ok = report is not None and verdict == float_certifies(s)
    if must_certify:
        ok = ok and verdict
    tally.add(ok and rejects_perturbed(s, seen), label)
    return verdict


def rejects_perturbed(s, seen):
    """Whether verify_scheme rejects a perturbed copy of ``s`` (and the
    float check agrees).  Passes repeat the same schemes, so ``seen`` keeps
    the verdict per scheme content and each distinct scheme is verified
    once per run."""
    key = (s.n, s.r, tuple(s.H.ravel()), tuple(s.K.ravel()),
           tuple(s.F.ravel()))
    if key not in seen:
        bad = perturbed(s)
        seen[key] = (verify.verify_scheme(bad).exact_zero is False
                     and not float_certifies(bad))
    return seen[key]


def compose(s1, s2):
    """Kronecker product of two schemes: (n1 n2) x (n1 n2) product at rank
    r1 r2.  Row-major operand index (i1 i2, j1 j2) maps to
    ((i1 n2 + i2) n + j1 n2 + j2)."""
    n1, n2 = s1.n, s2.n
    n = n1 * n2

    def kron(A, B):
        A4 = A.reshape(n1, n1, -1)
        B4 = B.reshape(n2, n2, -1)
        out = np.einsum("ijs,klt->ikjlst", A4, B4)
        return np.ascontiguousarray(out.reshape(n * n, -1))

    return scheme.BilinearScheme(
        n=n, r=s1.r * s2.r, H=kron(s1.H, s2.H), K=kron(s1.K, s2.K),
        F=np.ascontiguousarray(kron(s1.F.T, s2.F.T).T))


def rational(rng, shape):
    """Small random rationals, as the criterion-1 and -2 fixtures draw."""
    numer = rng.integers(-4, 5, size=shape)
    denom = rng.choice([1, 2, 3], size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Fraction(int(numer[idx]), int(denom[idx]))
    return out


def random_network(rng, q_max=4, s_max=3):
    """A random valid DAG network with exact activations (criterion-2
    shape: up to four nodes of up to three states)."""
    q = int(rng.integers(1, q_max + 1))
    sizes = [int(rng.integers(1, s_max + 1)) for _ in range(q)]
    names = ["n%d" % k for k in range(q)]
    edges = [(names[i], names[j]) for j in range(1, q) for i in range(j)
             if rng.random() < 0.5]
    nodes = [network.NodeSpec(names[k], sizes[k],
                              hidden=bool(rng.random() < 0.3))
             for k in range(q)]
    net = network.Network(nodes=nodes, edges=edges, order=list(names),
                          activations={})
    for k, nid in enumerate(names):
        shape = tuple(sizes[p] for p in network.parent_positions(net, nid))
        net.activations[nid] = rational(rng, shape + (sizes[k],))
    return net


def steps_of(cfg):
    return cfg.epochs * -(-cfg.train_size // cfg.batch_size)


def median(values):
    return statistics.median(values) if values else 0.0


# -- workloads -----------------------------------------------------------

class Sweep:
    """The criterion-5 sweep through the command line, serially: the
    training engine at m=9, per-rank statistics, Welch tests, the export
    and one JSON file per run.  ``threads`` is the CLI's --threads; the
    benchmark runs it at 1, and the tests run the pool at 2."""

    name = "sweep-n3"
    epochs = 10

    def __init__(self, seed, tiny=False, threads=1):
        if tiny:
            self.cfg = experiment.SweepConfig(
                n=3, ranks=(9, 10), reps=2, epochs=1, batch_size=BATCH,
                train_size=64, val_size=64, base_seed=seed)
        else:
            self.cfg = experiment.SweepConfig(
                n=3, ranks=RANKS, reps=3, epochs=self.epochs,
                batch_size=BATCH, train_size=2000, val_size=10000,
                base_seed=seed)
        self.threads = threads
        self.runs = len(self.cfg.ranks) * self.cfg.reps
        self.steps = self.runs * steps_of(
            experiment.make_train_config(self.cfg, self.cfg.ranks[0], 0))

    def argv(self, outdir):
        c = self.cfg
        return ["sweep", "--n", str(c.n),
                "--ranks", ",".join(str(r) for r in c.ranks),
                "--reps", str(c.reps), "--epochs", str(c.epochs),
                "--batch-size", str(c.batch_size),
                "--train-size", str(c.train_size),
                "--val-size", str(c.val_size), "--seed", str(c.base_seed),
                "--threads", str(self.threads), "--out", outdir]

    def run(self, workdir):
        errors = []
        argv = self.argv(workdir)
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = guarded(errors, "cli", cli.main, argv)
        t1 = perf_counter()
        return {"code": code, "errors": errors, "train_s": t1 - t0}

    def check(self, out, workdir, tally):
        finals = []
        for rank in self.cfg.ranks:
            for rep in range(self.cfg.reps):
                path = os.path.join(workdir, "runs",
                                    "rank%02d_rep%d.json" % (rank, rep))
                finals.append(self._check_file(path, tally))
        tally.add(out["code"] == 0 and hist_rows(workdir) == self.runs,
                  "; ".join(out["errors"]) or "exit code %r" % out["code"])
        return training_quality([v for v in finals if v is not None],
                                self.steps, out["train_s"])

    @staticmethod
    def _check_file(path, tally):
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError):
            tally.add(False, "unreadable %s" % path)
            return None
        cfg = training.TrainConfig(**obj["config"])
        s = obj["scheme"]
        tally.add(run_ok(cfg, obj["train_losses"] + obj["val_losses"],
                         obj["final_val_loss"],
                         np.array(s["H"], dtype=np.float64),
                         np.array(s["K"], dtype=np.float64),
                         np.array(s["F"], dtype=np.float64)), path)
        return obj["final_val_loss"]


def hist_rows(outdir):
    path = os.path.join(outdir, "hist.csv")
    if not os.path.exists(path):
        return -1
    with open(path, newline="") as fh:
        return len(list(csv.reader(fh))) - 1


def training_quality(finals, steps, seconds):
    return {"steps_per_s": steps / seconds if seconds else 0.0,
            "val_loss_median": median(finals),
            "converged_frac": (sum(1 for v in finals if v < 1e-3)
                               / len(finals) if finals else 0.0)}


class Rediscover:
    """The paper's loop at n=2, r=7: train, gauge-normalise, round to the
    grid and certify exactly, per seed; plus one border-rank run."""

    name = "rediscover-n2"
    seeds = 4
    epochs = 5

    def __init__(self, seed, tiny=False):
        count, epochs, size = ((2, 1, 64) if tiny
                               else (self.seeds, self.epochs, 10000))
        self.cfgs = [training.TrainConfig(
            n=2, r=7, epochs=epochs, batch_size=BATCH, train_size=size,
            val_size=size, seed=derive(seed, 1, i)) for i in range(count)]
        self.eps_cfg = training.TrainConfig(
            n=2, r=7, epochs=epochs, batch_size=BATCH, train_size=size,
            val_size=size, seed=derive(seed, 2))
        self.steps = sum(steps_of(c) for c in self.cfgs)
        self.eps_steps = steps_of(self.eps_cfg)
        self.rejected = {}

    def run(self, workdir):
        errors = []
        results = []
        train_s = certify_s = 0.0
        for cfg in self.cfgs:
            t0 = perf_counter()
            rec = guarded(errors, "train", training.train, cfg)
            t1 = perf_counter()
            rounded = report = None
            if rec is not None:
                norm = guarded(errors, "normalize", verify.normalize_slots,
                               rec.scheme)
                rounded = guarded(errors, "round", verify.round_scheme, norm)
                report = guarded(errors, "verify", verify.verify_scheme,
                                 rounded)
            t2 = perf_counter()
            train_s += t1 - t0
            certify_s += t2 - t1
            results.append((cfg, rec, rounded, report))
        t0 = perf_counter()
        eps_rec = guarded(errors, "train_eps", border.train_eps,
                          self.eps_cfg, border.EpsSchedule(), d_max=2,
                          f_min=-2, probe_eps=1e-3)
        eps_s = perf_counter() - t0
        return {"results": results, "eps": eps_rec, "errors": errors,
                "train_s": train_s, "certify_s": certify_s, "eps_s": eps_s}

    def check(self, out, workdir, tally):
        finals = []
        certified = 0
        for cfg, rec, rounded, report in out["results"]:
            ok = rec is not None and run_ok(
                cfg, rec.train_losses + rec.val_losses, rec.final_val_loss,
                rec.scheme.H, rec.scheme.K, rec.scheme.F)
            tally.add(ok, "run seed %d" % cfg.seed)
            if rec is not None:
                finals.append(rec.final_val_loss)
            if rounded is None:
                tally.add(False, "certify seed %d" % cfg.seed)
                continue
            certified += check_certificate(tally, "certify seed %d"
                                           % cfg.seed, rounded, report,
                                           False, self.rejected)
        tally.add(self._eps_ok(out["eps"]), "train_eps")
        quality = training_quality(finals, self.steps, out["train_s"])
        quality["eps_steps_per_s"] = (self.eps_steps / out["eps_s"]
                                      if out["eps_s"] else 0.0)
        quality["certified_frac"] = certified / len(self.cfgs)
        quality["certify_s"] = out["certify_s"]
        return quality

    def _eps_ok(self, rec):
        if rec is None:
            return False
        if not all(math.isfinite(v) for v in rec.train_losses
                   + rec.val_losses + rec.probe_losses):
            return False
        es = rec.eps_scheme

        def at(coeffs, powers):
            return sum(c * es.eps ** p for c, p in zip(coeffs, powers))

        top = range(es.d_max + 1)
        want = expected_val_loss(
            self.eps_cfg, at(es.h_coeffs, top), at(es.k_coeffs, top),
            at(es.f_coeffs, range(es.f_min, es.d_max + 1)))
        return abs(rec.final_val_loss - want) <= 1e-12 * abs(want)


class CertifyExact:
    """The exact Fraction path with no training: certify the rank-7 scheme
    and Strassen composed with itself, snap a noisy float copy of the
    composition back to the grid and certify it, run the staged pipeline
    on random rational operands, and compute total tensors both ways on
    random exact networks."""

    name = "certify-exact"
    pipelines = 50
    networks = 200

    def __init__(self, seed, tiny=False):
        self.s2 = verify.known_strassen()
        if tiny:
            unit = scheme.BilinearScheme(
                n=1, r=1, H=np.array([[Fraction(1)]], dtype=object),
                K=np.array([[Fraction(1)]], dtype=object),
                F=np.array([[Fraction(1)]], dtype=object))
            self.big = compose(self.s2, unit)
        else:
            self.big = compose(self.s2, self.s2)
        rng = np.random.default_rng(derive(seed, 3))
        shape = self.big.H.shape, self.big.F.shape

        def noisy(mat, shp):
            return np.array(mat, dtype=np.float64) \
                + rng.uniform(-0.05, 0.05, shp)

        self.noisy = scheme.BilinearScheme(
            n=self.big.n, r=self.big.r, H=noisy(self.big.H, shape[0]),
            K=noisy(self.big.K, shape[0]), F=noisy(self.big.F, shape[1]))
        count, nets = (3, 5) if tiny else (self.pipelines, self.networks)
        self.operands = [(rational(rng, (2, 2)), rational(rng, (2, 2)))
                         for _ in range(count)]
        self.nets = [random_network(rng) for _ in range(nets)]
        self.rejected = {}

    def run(self, workdir):
        errors = []
        t0 = perf_counter()
        reports = [guarded(errors, "verify", verify.verify_scheme, s)
                   for s in (self.s2, self.big)]
        norm = guarded(errors, "normalize", verify.normalize_slots,
                       self.noisy)
        snapped = guarded(errors, "round", verify.round_scheme, norm)
        reports.append(guarded(errors, "verify", verify.verify_scheme,
                               snapped))
        certify_s = perf_counter() - t0
        pipes, pipe_s = [], []
        for a, b in self.operands:
            t = perf_counter()
            pipes.append(guarded(errors, "pipeline",
                                 network.strassen_pipeline, a, b, self.s2))
            pipe_s.append(perf_counter() - t)
        totals = []
        for net in self.nets:
            direct = guarded(errors, "total_direct", network.total_direct,
                             net)
            product = guarded(errors, "total_bmp", network.total_bmp, net)
            totals.append((direct, product))
        return {"reports": reports, "snapped": snapped, "pipes": pipes,
                "totals": totals, "errors": errors,
                "certify_s": certify_s, "pipe_s": pipe_s}

    def check(self, out, workdir, tally):
        schemes = (self.s2, self.big, out["snapped"])
        for label, s, report in zip(("rank-7", "composed", "snapped"),
                                    schemes, out["reports"]):
            if s is None:
                tally.add(False, label)
                continue
            check_certificate(tally, label, s, report, True, self.rejected)
        m = 4
        for (a, b), got in zip(self.operands, out["pipes"]):
            want = a.dot(b).reshape(m)
            tally.add(got is not None and got.shape == (self.s2.r,)
                      and all(got[i] == want[i] for i in range(m))
                      and all(v == 0 for v in got[m:]), "pipeline")
        for direct, product in out["totals"]:
            tally.add(direct is not None and product is not None
                      and direct.shape == product.shape
                      and bool(np.all(direct == product)), "network")
        return {"certify_s": out["certify_s"],
                "network_ms": median(out["pipe_s"]) * 1e3}


WORKLOADS = {cls.name: cls
             for cls in (Sweep, Rediscover, CertifyExact)}
