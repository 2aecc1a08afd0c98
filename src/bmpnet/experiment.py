"""Rank sweeps: train the same problem at several ranks with repeated
seeds, then compare adjacent ranks with Welch's test and export flat
files for plotting.

Run seeds derive from (base seed, rank, repetition) only, so any single
run can be reproduced without executing the rest of the sweep, and the
output files contain nothing time- or host-dependent.
"""

import csv
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields

from .stats import summarize, welch_one_tailed
from .tensor import ShapeMismatch
from .training import (
    TrainConfig, TrainingDiverged, mix64, train_stack)
# imported only for perfbench/tracing.py, which wraps it in this module
from .training import train  # noqa: F401


@dataclass
class SweepConfig:
    """A rank sweep: shared training hyperparameters, the rank list, and
    how many repetitions to run per rank."""

    n: int = 3
    ranks: tuple = (19, 20, 21, 22, 23)
    reps: int = 7
    epochs: int = 60
    batch_size: int = 32
    lr: float = 1e-3
    clip_threshold: float = 10.0
    train_size: int = 10000
    val_size: int = 10000
    alpha: float = 1.0
    base_seed: int = 0
    low: float = -1.0
    high: float = 1.0
    resample: bool = False

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if len(self.ranks) < 1:
            raise ShapeMismatch("need at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ShapeMismatch("ranks must be distinct")
        if self.reps < 2:
            raise ShapeMismatch("need at least 2 repetitions per rank")

    def to_json(self):
        out = asdict(self)
        out["ranks"] = list(self.ranks)
        return out


def run_seed(base_seed, rank, rep):
    """Seed of one run, independent of every other run in the sweep."""
    return mix64(base_seed, rank, rep)


def make_train_config(cfg, rank, rep):
    """One run's config: the sweep's fields that TrainConfig shares, by
    name, plus the rank and the run seed."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)
              if hasattr(cfg, f.name)}
    return TrainConfig(**shared, r=rank,
                       seed=run_seed(cfg.base_seed, rank, rep))


@contextmanager
def worker_pool(threads):
    """A pool of ``threads`` spawned processes whose BLAS runs on one
    thread each: they start with OPENBLAS_NUM_THREADS=1 in their
    environment, which OpenBLAS reads only when it loads, so that the
    workers do not contend for the cores.  The parent's environment is
    as before once the pool has closed."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(
                max_workers=threads,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def sweep(cfg, threads=1, progress=None):
    """Train every (rank, repetition) pair; returns records sorted by
    (rank, repetition).  Each rank's repetitions train as one stack, run
    for run bit-identical to training them alone.  ``threads`` > 1
    distributes the rank stacks over a :func:`worker_pool`; results do
    not depend on the schedule.  A diverged run raises its TrainingDiverged
    once the runs before it in (rank, repetition) order are reported, as
    a serial sweep would."""
    ranks = sorted(cfg.ranks)
    stacks = [[make_train_config(cfg, rank, rep) for rep in range(cfg.reps)]
              for rank in ranks]
    with (worker_pool(threads) if threads > 1 else nullcontext()) as pool:
        records = []
        # workers run training.train_stack, so they never import this
        # module's statistics and its scipy
        for rank, outcomes in zip(ranks, (pool.map if pool else map)(
                train_stack, stacks)):
            for rep, rec in enumerate(outcomes):
                if isinstance(rec, TrainingDiverged):
                    raise rec
                rec.extras.update(rank=rank, repetition=rep)
                if progress is not None:
                    progress(rec)
                records.append(rec)
    return records


def rank_groups(records):
    """Records bucketed by rank, each bucket sorted by repetition."""
    groups = {}
    for rec in records:
        groups.setdefault(rec.extras["rank"], []).append(rec)
    for rank in groups:
        groups[rank].sort(key=lambda rec: rec.extras["repetition"])
    return dict(sorted(groups.items()))


def per_rank_stats(records):
    """Final validation loss summarised per rank."""
    return {rank: summarize([rec.final_val_loss for rec in bucket])
            for rank, bucket in rank_groups(records).items()}


def adjacent_welch(records):
    """One-tailed Welch comparisons of neighbouring ranks, higher rank
    as group 1 (tested for having the smaller mean loss).  Pairs run
    from the largest rank down."""
    stats = per_rank_stats(records)
    ranks = sorted(stats, reverse=True)
    out = []
    for hi, lo in zip(ranks, ranks[1:]):
        out.append((hi, lo, welch_one_tailed(stats[hi], stats[lo])))
    return out


def top_vs_rest_welch(records):
    """Non-default variant: the largest rank against every other rank."""
    stats = per_rank_stats(records)
    ranks = sorted(stats, reverse=True)
    top = ranks[0]
    return [(top, lo, welch_one_tailed(stats[top], stats[lo]))
            for lo in ranks[1:]]


def _mean_std(values):
    count = len(values)
    mean = sum(values) / count
    if count < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (count - 1)
    return mean, var ** 0.5


def export(records, outdir, top_vs_rest=False):
    """Write curves.csv, hist.csv and welch.json; returns the file names.

    curves.csv has per-epoch mean and std of each split across the
    repetitions of a rank, hist.csv the per-run final validation losses,
    welch.json the adjacent-rank comparisons plus per-rank summaries
    (and, when requested, the top rank against every other).
    """
    os.makedirs(outdir, exist_ok=True)
    groups = rank_groups(records)

    curves_path = os.path.join(outdir, "curves.csv")
    with open(curves_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "rank", "split", "mean", "std"])
        for rank, bucket in groups.items():
            epochs = len(bucket[0].val_losses)
            for epoch in range(epochs):
                for split, attr in (("train", "train_losses"),
                                    ("val", "val_losses")):
                    vals = [getattr(rec, attr)[epoch] for rec in bucket]
                    mean, std = _mean_std(vals)
                    writer.writerow([epoch, rank, split,
                                     repr(mean), repr(std)])

    hist_path = os.path.join(outdir, "hist.csv")
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "repetition", "final_val_loss"])
        for rank, bucket in groups.items():
            for rec in bucket:
                writer.writerow([rank, rec.extras["repetition"],
                                 repr(rec.final_val_loss)])

    welch_path = os.path.join(outdir, "welch.json")
    payload = {
        "per_rank": {str(rank): stats.to_json()
                     for rank, stats in per_rank_stats(records).items()},
        "pairs": [
            {"rank1": hi, "rank2": lo, **report.to_json()}
            for hi, lo, report in adjacent_welch(records)
        ],
    }
    if top_vs_rest:
        payload["top_pairs"] = [
            {"rank1": hi, "rank2": lo, **report.to_json()}
            for hi, lo, report in top_vs_rest_welch(records)
        ]
    with open(welch_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return ["curves.csv", "hist.csv", "welch.json"]
