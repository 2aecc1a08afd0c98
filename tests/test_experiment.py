"""Rank sweeps: per-run seed derivation, record bookkeeping, group
statistics, flat-file export, and schedule independence."""

import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from bmpnet.cli import _COMMANDS, _resolve, build_parser
from bmpnet.experiment import (
    SweepConfig,
    adjacent_welch,
    export,
    make_train_config,
    per_rank_stats,
    rank_groups,
    run_seed,
    sweep,
    top_vs_rest_welch,
    worker_pool,
    write_json,
)
from bmpnet.training import ConfigError, RunOptions, TrainConfig, train
from perrun import assert_same_run


def tiny_sweep_config(**over):
    base = dict(n=2, ranks=(5, 7), reps=2, epochs=2, batch_size=16,
                lr=1e-3, train_size=64, val_size=32, base_seed=0)
    base.update(over)
    return SweepConfig(**base)


class TestConfig:
    def test_defaults_cover_the_rank_range(self):
        cfg = SweepConfig()
        assert cfg.ranks == (19, 20, 21, 22, 23)
        assert cfg.n == 3 and cfg.reps == 7

    def test_rejects_duplicate_ranks(self):
        with pytest.raises(ConfigError):
            SweepConfig(ranks=(21, 21, 22))

    def test_rejects_empty_ranks(self):
        with pytest.raises(ConfigError):
            SweepConfig(ranks=())

    def test_rejects_single_rep(self):
        with pytest.raises(ConfigError):
            SweepConfig(reps=1)


class TestSeeds:
    def test_runs_get_distinct_seeds(self):
        seeds = {run_seed(0, rank, rep)
                 for rank in range(19, 24) for rep in range(7)}
        assert len(seeds) == 35

    def test_seed_ignores_other_runs(self):
        # reproducing run (21, 3) must not require running anything else
        assert run_seed(5, 21, 3) == run_seed(5, 21, 3)
        assert run_seed(5, 21, 3) != run_seed(6, 21, 3)

    def test_train_config_carries_derived_seed(self):
        cfg = tiny_sweep_config()
        tc = make_train_config(cfg, 7, 1)
        assert tc.seed == run_seed(cfg.base_seed, 7, 1)
        assert tc.r == 7 and tc.n == cfg.n
        assert tc.epochs == cfg.epochs

    def test_train_config_copies_every_shared_field(self):
        cfg = SweepConfig(n=2, ranks=(5, 7), reps=2, epochs=3, batch_size=8,
                          lr=0.02, clip_threshold=3.0, train_size=40,
                          val_size=30, alpha=0.5, base_seed=9, low=-2.0,
                          high=3.0, resample=True)
        tc = make_train_config(cfg, 5, 0)
        shared = [f.name for f in fields(SweepConfig)
                  if f.name in {g.name for g in fields(TrainConfig)}]
        assert len(shared) == 11
        for name in shared:
            assert getattr(tc, name) == getattr(cfg, name), name

    def test_run_options_are_declared_once(self):
        # both configs inherit every shared field from RunOptions, and the
        # train and sweep command lines read the same default for each
        shared = {f.name for f in fields(RunOptions)}
        assert len(shared) == 10
        for cls in (TrainConfig, SweepConfig):
            own = set(vars(cls).get("__annotations__", {}))
            assert not own & shared, cls.__name__
        parser = build_parser()
        train_opts, sweep_opts = (
            _resolve(parser.parse_args([command]), _COMMANDS[command][1])
            for command in ("train", "sweep"))
        for f in fields(RunOptions):
            key = {"clip_threshold": "clip"}.get(f.name, f.name)
            assert train_opts[key] == sweep_opts[key] == f.default, key
            assert type(train_opts[key]) is type(sweep_opts[key]), key


class TestSweep:
    def test_record_layout(self):
        cfg = tiny_sweep_config()
        records = sweep(cfg)
        assert len(records) == 4
        keys = [(rec.extras["rank"], rec.extras["repetition"])
                for rec in records]
        assert keys == [(5, 0), (5, 1), (7, 0), (7, 1)]
        for rec in records:
            assert len(rec.val_losses) == cfg.epochs
            assert np.isfinite(rec.final_val_loss)

    def test_runs_match_standalone_training(self):
        # every run of a rank stack equals the run trained alone
        cfg = tiny_sweep_config()
        records = sweep(cfg)
        for rec in records:
            solo = train(make_train_config(cfg, rec.extras["rank"],
                                           rec.extras["repetition"]))
            assert_same_run(rec, (solo.scheme, solo.train_losses,
                                  solo.val_losses))

    def test_progress_callback_sees_every_run(self):
        seen = []
        sweep(tiny_sweep_config(), progress=lambda rec: seen.append(
            (rec.extras["rank"], rec.extras["repetition"])))
        assert sorted(seen) == [(5, 0), (5, 1), (7, 0), (7, 1)]

    def test_threaded_results_identical(self):
        cfg = tiny_sweep_config()
        one = sweep(cfg, threads=1)
        two = sweep(cfg, threads=2)
        assert [rec.extras for rec in one] == [rec.extras for rec in two]
        for a, b in zip(one, two):
            assert_same_run(a, (b.scheme, b.train_losses, b.val_losses))


class TestWorkerPool:
    @pytest.mark.parametrize("parent", [None, "4"])
    def test_workers_run_blas_on_one_thread(self, monkeypatch, parent):
        if parent is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", parent)
        before = dict(os.environ)
        with worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2))
        assert seen == ["1", "1"]
        assert dict(os.environ) == before

    def test_environment_restored_when_the_body_raises(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        with pytest.raises(KeyError):
            with worker_pool(2):
                assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
                raise KeyError("stop")
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


@pytest.fixture(scope="module")
def records():
    return sweep(tiny_sweep_config(reps=3))


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep")
    names = export(sweep(tiny_sweep_config()), str(path))
    assert names == ["curves.csv", "hist.csv", "welch.json"]
    return path


class TestGrouping:
    def test_rank_groups(self, records):
        groups = rank_groups(records)
        assert list(groups) == [5, 7]
        for bucket in groups.values():
            assert [rec.extras["repetition"] for rec in bucket] == [0, 1, 2]

    def test_per_rank_stats(self, records):
        stats = per_rank_stats(records)
        losses = [rec.final_val_loss for rec in records
                  if rec.extras["rank"] == 5]
        np.testing.assert_allclose(stats[5].mean, np.mean(losses),
                                   rtol=1e-12)
        np.testing.assert_allclose(stats[5].std, np.std(losses, ddof=1),
                                   rtol=1e-12)
        assert stats[5].count == 3

    def test_adjacent_pairs_descend_from_top(self, records):
        pairs = adjacent_welch(records)
        assert [(hi, lo) for hi, lo, _ in pairs] == [(7, 5)]
        stats = per_rank_stats(records)
        want = (stats[7].mean - stats[5].mean)
        assert (pairs[0][2].t < 0) == (want < 0)

    def test_adjacent_pairs_full_ladder(self):
        # five ranks produce four comparisons, largest rank first
        cfg = tiny_sweep_config(ranks=(4, 5, 6, 7, 8), epochs=1,
                                train_size=32, val_size=16)
        pairs = adjacent_welch(sweep(cfg))
        assert [(hi, lo) for hi, lo, _ in pairs] == \
            [(8, 7), (7, 6), (6, 5), (5, 4)]

    def test_top_vs_rest(self, records):
        pairs = top_vs_rest_welch(records)
        assert [(hi, lo) for hi, lo, _ in pairs] == [(7, 5)]


def test_write_json_bytes(tmp_path):
    # the one writer's bytes are json.dump's, with a trailing newline
    payload = {"z": [1, [2.5, float("nan")], {"b": None, "a": True}],
               "inf": [float("inf"), -float("inf")],
               "\u00e9t\u00e9": "r\u00e9el", "a": {"y": -0.0, "x": 1e-300}}
    write_json(str(tmp_path), "sub/out.json", payload)
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "sub" / "out.json").read_bytes() \
        == (tmp_path / "want.json").read_bytes()


class TestExport:
    def test_curves_layout(self, outdir):
        with open(outdir / "curves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 ranks x 2 epochs x 2 splits
        assert len(rows) == 8
        assert set(r["split"] for r in rows) == {"train", "val"}
        assert set(r["rank"] for r in rows) == {"5", "7"}
        assert set(r["epoch"] for r in rows) == {"0", "1"}
        for r in rows:
            assert np.isfinite(float(r["mean"]))
            assert float(r["std"]) >= 0.0

    def test_curves_values_match_records(self, outdir):
        records = sweep(tiny_sweep_config())
        vals = [rec.val_losses[1] for rec in records
                if rec.extras["rank"] == 7]
        with open(outdir / "curves.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r == {"epoch": "1", "rank": "7", "split": "val",
                             "mean": r["mean"], "std": r["std"]}]
        assert len(rows) == 1
        # repr round-trips floats exactly, so equality is bitwise
        assert float(rows[0]["mean"]) == sum(vals) / len(vals)

    def test_hist_layout(self, outdir):
        with open(outdir / "hist.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        keys = sorted((r["rank"], r["repetition"]) for r in rows)
        assert keys == [("5", "0"), ("5", "1"), ("7", "0"), ("7", "1")]

    def test_hist_values_match_records(self, outdir):
        records = sweep(tiny_sweep_config())
        with open(outdir / "hist.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_key = {(r["rank"], r["repetition"]): float(r["final_val_loss"])
                  for r in rows}
        for rec in records:
            key = (str(rec.extras["rank"]), str(rec.extras["repetition"]))
            assert by_key[key] == rec.final_val_loss

    def test_welch_json_structure(self, outdir):
        with open(outdir / "welch.json") as fh:
            payload = json.load(fh)
        assert set(payload) == {"per_rank", "pairs"}
        assert set(payload["per_rank"]) == {"5", "7"}
        assert len(payload["pairs"]) == 1
        pair = payload["pairs"][0]
        assert pair["rank1"] == 7 and pair["rank2"] == 5
        for key in ("t", "df", "p_one_tailed", "ci95"):
            assert key in pair

    def test_top_vs_rest_export(self, tmp_path):
        records = sweep(tiny_sweep_config())
        export(records, str(tmp_path), top_vs_rest=True)
        with open(tmp_path / "welch.json") as fh:
            payload = json.load(fh)
        assert "top_pairs" in payload
        assert payload["top_pairs"][0]["rank1"] == 7

    def test_export_is_deterministic(self, outdir, tmp_path):
        export(sweep(tiny_sweep_config()), str(tmp_path))
        for name in ("curves.csv", "hist.csv", "welch.json"):
            assert (tmp_path / name).read_bytes() == \
                (outdir / name).read_bytes()
