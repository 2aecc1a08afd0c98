"""The stacked training engine against the per-run loop it replaced
(``tests/perrun.py``): every run of a stack must equal that run trained
alone, bit for bit, in its factors and in both loss lists; a run that
diverges inside a stack stops alone and reports what it would alone."""

from dataclasses import replace

import numpy as np
import pytest

from bmpnet import experiment
from bmpnet.border import EpsSchedule, train_eps
from bmpnet.experiment import SweepConfig, sweep
from bmpnet.scheme import init_scheme
from bmpnet.training import (
    Factors, RunRecord, TrainConfig, TrainingDiverged, fit, train,
    train_stack)
import perrun
from perrun import assert_same_run, bits


def config(seed=0, **kw):
    base = dict(n=2, r=7, epochs=3, batch_size=16, train_size=72,
                val_size=40, seed=seed)
    base.update(kw)
    return TrainConfig(**base)


def assert_stack_matches(cfgs):
    records = train_stack(cfgs)
    assert len(records) == len(cfgs)
    for cfg, rec in zip(cfgs, records):
        assert rec.config == cfg
        assert_same_run(rec, perrun.train(cfg))


class TestStackMatchesPerRun:
    @pytest.mark.parametrize("n, r", [(2, 7), (3, 23), (3, 9)])
    def test_sizes(self, n, r):
        assert_stack_matches([config(seed, n=n, r=r) for seed in (1, 2)])

    @pytest.mark.parametrize("resample", [False, True])
    def test_resample(self, resample):
        assert_stack_matches([config(seed, resample=resample, epochs=4)
                              for seed in (3, 4, 5)])

    @pytest.mark.parametrize("train_size", [64, 65, 72])
    def test_short_last_batch(self, train_size):
        # 64 rows are four full batches; 65 leave one row, 72 leave eight
        assert_stack_matches([config(seed, train_size=train_size)
                              for seed in (6, 7)])

    @pytest.mark.parametrize("threshold, fires", [(0.5, True),
                                                  (1e12, False)])
    def test_clipping(self, monkeypatch, threshold, fires):
        cfgs = [config(seed, clip_threshold=threshold) for seed in (8, 9)]
        clipped = []
        clip = perrun.clip_gradients

        def counting(grads, limit):
            out = clip(grads, limit)
            clipped.append(out[0] is not grads[0])
            return out

        monkeypatch.setattr(perrun, "clip_gradients", counting)
        assert_stack_matches(cfgs)
        assert any(clipped) is fires

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_stack_sizes(self, size):
        assert_stack_matches([config(seed) for seed in range(10, 10 + size)])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_run_alone_equals_run_at_every_position(self, position):
        cfg = config(21, n=3, r=10)
        alone = train(cfg)
        cfgs = [config(seed, n=3, r=10) for seed in (22, 23)]
        cfgs.insert(position, cfg)
        stacked = train_stack(cfgs)[position]
        assert_same_run(stacked, (alone.scheme, alone.train_losses,
                                  alone.val_losses))

    def test_stack_rejects_configs_differing_beyond_the_seed(self):
        with pytest.raises(ValueError):
            train_stack([config(0), config(1, lr=2e-3)])

    def test_border_run(self):
        cfg = config(31, epochs=4)
        schedule = EpsSchedule(eps0=0.05, decay=0.8)
        rec = train_eps(cfg, schedule, d_max=2, f_min=-1, probe_eps=1e-3)
        es, train_losses, val_losses, probes = perrun.train_eps(
            cfg, schedule, 2, -1, 1e-3)
        for got, want in zip(rec.eps_scheme.h_coeffs + rec.eps_scheme.k_coeffs
                             + rec.eps_scheme.f_coeffs,
                             es.h_coeffs + es.k_coeffs + es.f_coeffs):
            assert bits(got) == bits(want)
        assert rec.eps_scheme.eps == es.eps
        assert bits(rec.train_losses) == bits(train_losses)
        assert bits(rec.val_losses) == bits(val_losses)
        assert bits(rec.probe_losses) == bits(probes)


def blown_up(victims):
    """A view that multiplies H and K of the runs in ``victims`` (run ->
    first epoch) by 1e200, so their losses overflow from that epoch on."""

    def view(arrays, epoch):
        H, K, F = arrays
        scale = np.ones((len(H), 1, 1))
        for run, since in victims.items():
            if epoch >= since:
                scale[run] = 1e200
        return Factors(H * scale, K * scale, F), None

    return view


def init_for(cfg):
    def init(seed):
        scheme = init_scheme(cfg.n, cfg.r, seed, cfg.alpha)
        return scheme.H, scheme.K, scheme.F
    return init


class TestDivergenceInsideAStack:
    def test_one_run_blown_up_leaves_the_others_untouched(self):
        cfgs = [config(seed) for seed in (40, 41, 42)]
        with np.errstate(all="ignore"):
            outcomes = fit(cfgs, init_for(cfgs[0]), lambda *args: None,
                           blown_up({1: 1}))
        assert isinstance(outcomes[1], TrainingDiverged)
        alone = train(replace(cfgs[1], epochs=1))
        assert outcomes[1].args == (1, alone.train_losses[0],
                                    alone.val_losses[0])
        for run in (0, 2):
            arrays, train_losses, val_losses = outcomes[run]
            scheme, ref_train, ref_val = perrun.train(cfgs[run])
            for got, want in zip(arrays, (scheme.H, scheme.K, scheme.F)):
                assert bits(got) == bits(want)
            assert bits(train_losses) == bits(ref_train)
            assert bits(val_losses) == bits(ref_val)

    def test_error_is_the_one_the_run_raises_alone(self):
        # run 0 blows up in epoch 2, run 2 in epoch 0: each reports its own
        cfgs = [config(seed) for seed in (43, 44, 45)]
        with np.errstate(all="ignore"):
            outcomes = fit(cfgs, init_for(cfgs[0]), lambda *args: None,
                           blown_up({0: 2, 2: 0}))
            for run, since in ((0, 2), (2, 0)):
                (alone,) = fit([cfgs[run]], init_for(cfgs[run]),
                               lambda *args: None,
                               blown_up({0: since}))
                assert isinstance(alone, TrainingDiverged)
                assert outcomes[run].args == alone.args
        assert outcomes[0].epoch == 2
        assert outcomes[2].args == (0, None, None)
        assert not isinstance(outcomes[1], TrainingDiverged)

    def test_every_run_blown_up_stops_the_stack(self):
        with np.errstate(all="ignore"):
            outcomes = train_stack([config(seed, alpha=1e200)
                                    for seed in (0, 1)])
        assert [out.args for out in outcomes] == [(0, None, None)] * 2


class TestSweepDivergence:
    def test_raises_the_first_diverged_run_in_order(self, monkeypatch):
        # rank 5 rep 1 diverged in epoch 2, rank 7 rep 0 in epoch 0: the
        # sweep reports rank 5 rep 0, then raises rank 5 rep 1's error
        errors = {(5, 1): TrainingDiverged(2, 0.5, 0.25),
                  (7, 0): TrainingDiverged(0, None, None)}
        real = experiment.train_stack

        def faulty(cfgs):
            records = real(cfgs)
            rank = cfgs[0].r
            return [errors.get((rank, rep), rec)
                    for rep, rec in enumerate(records)]

        monkeypatch.setattr(experiment, "train_stack", faulty)
        cfg = SweepConfig(n=2, ranks=(7, 5), reps=2, epochs=1, batch_size=16,
                          train_size=32, val_size=16)
        seen = []
        with pytest.raises(TrainingDiverged) as info:
            sweep(cfg, progress=lambda rec: seen.append(
                (rec.extras["rank"], rec.extras["repetition"])))
        assert info.value is errors[(5, 1)]
        assert seen == [(5, 0)]

    def test_sweep_record_carries_stack_time_share(self):
        records = sweep(SweepConfig(n=2, ranks=(5,), reps=3, epochs=1,
                                    batch_size=16, train_size=32,
                                    val_size=16))
        assert all(isinstance(rec, RunRecord) for rec in records)
        assert len({rec.wall_seconds for rec in records}) == 1
        assert "wall_seconds" not in records[0].to_json()
