"""Rank sweeps: train the same problem at several ranks with repeated
seeds, then compare adjacent ranks with Welch's test and export flat
files for plotting.

Run seeds derive from (base seed, rank, repetition) only, so any single
run can be reproduced without executing the rest of the sweep, and the
output files contain nothing time- or host-dependent.
"""

import csv
import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from itertools import repeat

from .stats import summarize, welch_one_tailed
from .training import (
    ConfigError, RunOptions, TrainConfig, TrainingDiverged, mix64,
    train_stack)
# imported only for perfbench/tracing.py, which wraps it in this module
from .training import train  # noqa: F401


@dataclass
class SweepConfig(RunOptions):
    """A rank sweep: the training hyperparameters its runs share, the
    rank list, and how many repetitions to run per rank."""

    n: int = 3
    ranks: tuple = (19, 20, 21, 22, 23)
    reps: int = 7
    base_seed: int = 0

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if len(self.ranks) < 1:
            raise ConfigError("need at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ConfigError("ranks must be distinct")
        if self.reps < 2:
            raise ConfigError("need at least 2 repetitions per rank")


def run_seed(base_seed, rank, rep):
    """Seed of one run, independent of every other run in the sweep."""
    return mix64(base_seed, rank, rep)


def make_train_config(cfg, rank, rep):
    """One run's config: the sweep's :class:`RunOptions` and n, plus the
    rank and the run seed."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(RunOptions)}
    return TrainConfig(**shared, n=cfg.n, r=rank,
                       seed=run_seed(cfg.base_seed, rank, rep))


@contextmanager
def worker_pool(threads):
    """A pool of ``threads`` spawned processes whose BLAS runs on one
    thread each: they start with OPENBLAS_NUM_THREADS=1 in their
    environment, which OpenBLAS reads only when it loads, so that the
    workers do not contend for the cores.  The parent's environment is
    as before once the pool has closed.  The process machinery loads
    here, so serial sweeps never import it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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


def _welch_pairs(records, pick):
    """One-tailed Welch comparisons ``(hi, lo, report)`` of the rank pairs
    ``pick`` takes from the descending ranks, the higher rank as group 1
    (tested for having the smaller mean loss)."""
    stats = per_rank_stats(records)
    return [(hi, lo, welch_one_tailed(stats[hi], stats[lo]))
            for hi, lo in pick(sorted(stats, reverse=True))]


def adjacent_welch(records):
    """Welch comparisons of neighbouring ranks, from the largest rank
    down (see :func:`_welch_pairs`)."""
    return _welch_pairs(records, lambda ranks: zip(ranks, ranks[1:]))


def top_vs_rest_welch(records):
    """Non-default variant: the largest rank against every other rank."""
    return _welch_pairs(records,
                        lambda ranks: zip(repeat(ranks[0]), ranks[1:]))


def _pair_rows(pairs):
    """welch.json rows of ``(hi, lo, report)`` comparisons."""
    return [{"rank1": hi, "rank2": lo, **report.to_json()}
            for hi, lo, report in pairs]


def _mean_std(values):
    count = len(values)
    mean = sum(values) / count
    if count < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (count - 1)
    return mean, var ** 0.5


def write_json(outdir, name, payload):
    """Write ``payload`` to ``outdir/name``, making its directories, in
    the layout of every JSON file bmpnet writes: indent 2, sorted keys,
    a trailing newline."""
    path = os.path.join(outdir, name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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

    payload = {
        "per_rank": {str(rank): stats.to_json()
                     for rank, stats in per_rank_stats(records).items()},
        "pairs": _pair_rows(adjacent_welch(records)),
    }
    if top_vs_rest:
        payload["top_pairs"] = _pair_rows(top_vs_rest_welch(records))
    write_json(outdir, "welch.json", payload)
    return ["curves.csv", "hist.csv", "welch.json"]
