"""The stacked training engine against the per-run loop it replaced
(``tests/perrun.py``): every run of a stack must equal that run trained
alone, bit for bit, in its factors and in both loss lists; a run that
diverges inside a stack stops alone and reports what it would alone."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bmpnet import experiment, training
from bmpnet.border import EpsSchedule, train_eps
from bmpnet.experiment import SweepConfig, sweep
from bmpnet.scheme import init_scheme
from bmpnet.training import (
    Factors, RunRecord, TrainConfig, TrainingDiverged, fit, train,
    train_stack)
import perrun
from perrun import assert_same_run, bits
from reference import array_global_norm


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

    def test_short_last_batch_in_a_stack_of_three(self):
        # the epoch's batch losses come from a (3, 4, 16) block of full
        # batches and a (3, 1) short one
        assert_stack_matches([config(seed, n=3, r=23, train_size=65)
                              for seed in (11, 12, 13)])

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

    @staticmethod
    def assert_border_matches(d_max, f_min):
        cfg = config(31, epochs=4)
        schedule = EpsSchedule(eps0=0.05, decay=0.8)
        rec = train_eps(cfg, schedule, d_max=d_max, f_min=f_min,
                        probe_eps=1e-3)
        es, train_losses, val_losses, probes = perrun.train_eps(
            cfg, schedule, d_max, f_min, 1e-3)
        for got, want in zip(rec.eps_scheme.h_coeffs + rec.eps_scheme.k_coeffs
                             + rec.eps_scheme.f_coeffs,
                             es.h_coeffs + es.k_coeffs + es.f_coeffs):
            assert bits(got) == bits(want)
        assert rec.eps_scheme.eps == es.eps
        assert bits(rec.train_losses) == bits(train_losses)
        assert bits(rec.val_losses) == bits(val_losses)
        assert bits(rec.probe_losses) == bits(probes)

    def test_border_run(self):
        # ten coefficient matrices: H and K at powers 0..2, F at -1..2
        self.assert_border_matches(2, -1)

    def test_border_run_seven_matrices(self):
        # H and K at powers 0..1, F at -1..1
        self.assert_border_matches(1, -1)

    def test_border_run_nine_output_rows(self):
        # F at powers -5..3: nine rows, where a pairwise sum would start
        self.assert_border_matches(3, -5)


def blown_up(victims):
    """A view of an (R, 3, 28) block at n=2, r=7 that multiplies H and K
    of the runs in ``victims`` (run -> first epoch) by 1e200, so their
    losses overflow from that epoch on."""

    def view(params, epoch):
        H, K, F = (params[:, i].reshape((len(params),) + shape)
                   for i, shape in enumerate(((4, 7), (4, 7), (7, 4))))
        scale = np.ones((len(H), 1, 1))
        for run, since in victims.items():
            if epoch >= since:
                scale[run] = 1e200
        return Factors(H * scale, K * scale, F)

    return view


def blown_up_once(victim, call):
    """A view and a pull of an (R, 3, 28) block at n=2, r=7.  The view's
    ``call``-th call (from 0) multiplies H and K of run ``victim`` by
    1e200, so that run's batch loss overflows in that one step; the pull
    drops that step's gradient of the run, so its factors stay finite
    and only the batch loss shows the overflow."""
    calls = []

    def view(params, epoch):
        calls.append(epoch)
        H, K, F = (params[:, i].reshape((len(params),) + shape)
                   for i, shape in enumerate(((4, 7), (4, 7), (7, 4))))
        if len(calls) - 1 != call:
            return Factors(H, K, F)
        scale = np.ones((len(H), 1, 1))
        scale[victim] = 1e200
        return Factors(H * scale, K * scale, F)

    def pull(grads, out, epoch):
        for i, g in enumerate(grads):
            out[:, i] = g.reshape(len(g), -1)
        if len(calls) - 1 == call:
            out[victim] = 0.0

    return view, pull


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
        assert outcomes[1].train_losses == alone.train_losses
        assert outcomes[1].val_losses == alone.val_losses
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

    @pytest.mark.parametrize("size, victim", [(1, 0), (3, 1)])
    def test_batch_loss_overflow_in_mid_epoch(self, size, victim):
        # 72 rows in batches of 16 take five steps and one end-of-epoch
        # view per epoch: call 8 is the third step of epoch 1
        cfgs = [config(seed) for seed in (46, 47, 48)[:size]]
        with np.errstate(all="ignore"):
            outcomes = fit(cfgs, init_for(cfgs[0]), lambda *args: None,
                           *blown_up_once(victim, 8))
        for run, cfg in enumerate(cfgs):
            scheme, ref_train, ref_val = perrun.train(cfg)
            if run == victim:
                assert isinstance(outcomes[run], TrainingDiverged)
                assert outcomes[run].args == (1, ref_train[0], ref_val[0])
                continue
            arrays, train_losses, val_losses = outcomes[run]
            for got, want in zip(arrays, (scheme.H, scheme.K, scheme.F)):
                assert bits(got) == bits(want)
            assert bits(train_losses) == bits(ref_train)
            assert bits(val_losses) == bits(ref_val)

    def test_epoch_mean_overflow_stops_that_run_alone(self):
        # at lr 1e50 every batch loss stays finite, but the epoch's mean
        # train loss overflows: seed 0 in epoch 6 and seed 4 in epoch 5,
        # while seed 2 finishes its eight epochs
        cfgs = [config(seed, lr=1e50, epochs=8, train_size=64, val_size=32)
                for seed in (0, 2, 4)]
        with np.errstate(all="ignore"):
            outcomes = train_stack(cfgs)
            for cfg, out in zip(cfgs, outcomes):
                if cfg.seed == 2:
                    assert_same_run(out, perrun.train(cfg))
                    continue
                with pytest.raises(TrainingDiverged) as alone:
                    perrun.train(cfg)
                assert out.args == alone.value.args
                assert out.epoch == {0: 6, 4: 5}[cfg.seed]
                assert len(out.train_losses) == out.epoch
                assert all(map(math.isfinite, out.train_losses))

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


def clip_spy(monkeypatch):
    """Record, per call of ``training.clip_gradients`` in ``fit``, which
    runs were above the threshold and whether the squares were kept for
    the Adam update."""
    real, seen = training.clip_gradients, []

    def spy(grads, threshold, ws=None):
        over = tuple(array_global_norm(grads) > threshold)
        out = real(grads, threshold, ws)
        seen.append((over, ws.squared is grads))
        return out

    monkeypatch.setattr(training, "clip_gradients", spy)
    return seen


class TestWorkspaceStep:
    # every buffer of a step lives in the stack's workspace, made once;
    # the runs must still equal the per-run loop bit for bit

    def test_short_last_batch_in_a_stack_of_three_at_n2(self):
        # 70 rows in batches of 16: four full batches and one of six,
        # each size with its own gradient buffers
        assert_stack_matches([config(seed, train_size=70, epochs=2)
                              for seed in (50, 51, 52)])

    def test_both_square_branches_in_one_stack(self, monkeypatch):
        # at threshold 1 some steps clip no run, so Adam reads g^2 from
        # the clipping squares, and others clip some runs and not others
        seen = clip_spy(monkeypatch)
        assert_stack_matches([config(seed, clip_threshold=1.0, lr=1e-2,
                                     alpha=0.5, epochs=4)
                              for seed in (53, 54, 55)])
        assert all(kept == (not any(over)) for over, kept in seen)
        assert any(kept for _, kept in seen)
        assert any(any(over) and not all(over) for over, _ in seen)

    def test_border_run_both_square_branches(self, monkeypatch):
        # H and K at powers 0..2, F at -1..2; 15 of the 20 steps clip
        seen = clip_spy(monkeypatch)
        cfg = config(56, clip_threshold=1.0, lr=1e-2, alpha=0.3, epochs=4)
        schedule = EpsSchedule(eps0=0.5, decay=0.8)
        rec = train_eps(cfg, schedule, d_max=2, f_min=-1, probe_eps=1e-3)
        es, train_losses, val_losses, probes = perrun.train_eps(
            cfg, schedule, 2, -1, 1e-3)
        for got, want in zip(rec.eps_scheme.h_coeffs + rec.eps_scheme.k_coeffs
                             + rec.eps_scheme.f_coeffs,
                             es.h_coeffs + es.k_coeffs + es.f_coeffs):
            assert bits(got) == bits(want)
        assert bits(rec.train_losses) == bits(train_losses)
        assert bits(rec.val_losses) == bits(val_losses)
        assert bits(rec.probe_losses) == bits(probes)
        assert {kept for _, kept in seen} == {True, False}

    def test_infinite_threshold_keeps_a_nan_run_to_itself(self):
        # at --clip inf the blown-up run's NaN norm scales its own
        # gradient alone; the others pass unscaled, as they would alone
        cfgs = [config(seed, clip_threshold=np.inf) for seed in (57, 58, 59)]
        with np.errstate(all="ignore"):
            outcomes = fit(cfgs, init_for(cfgs[0]), lambda *args: None,
                           blown_up({1: 1}))
            (alone,) = fit([cfgs[1]], init_for(cfgs[1]), lambda *args: None,
                           blown_up({0: 1}))
        assert isinstance(alone, TrainingDiverged)
        assert isinstance(outcomes[1], TrainingDiverged)
        assert outcomes[1].args == alone.args
        assert outcomes[1].train_losses == alone.train_losses
        assert outcomes[1].val_losses == alone.val_losses
        for run in (0, 2):
            arrays, train_losses, val_losses = outcomes[run]
            scheme, ref_train, ref_val = perrun.train(cfgs[run])
            for got, want in zip(arrays, (scheme.H, scheme.K, scheme.F)):
                assert bits(got) == bits(want)
            assert bits(train_losses) == bits(ref_train)
            assert bits(val_losses) == bits(ref_val)
