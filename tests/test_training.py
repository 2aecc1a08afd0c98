"""Training-loop tests: data generation, loss, gradients against the
finite-difference oracle, clipping, Adam, and the epoch loop."""

import pickle

import numpy as np
import pytest

from bmpnet.scheme import forward_fast_batch, init_scheme
from bmpnet.training import (
    Factors,
    LengthMismatch,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    adam_update,
    batch_slices,
    clip_gradients,
    fit,
    gen_dataset,
    global_norm,
    grad_analytic,
    init_adam,
    init_adam_params,
    mix64,
    mse,
    run_streams,
    shuffle_seed,
    train,
)
from reference import direct_scorer, grad_fd, within_gate


def tiny_config(**kw):
    base = dict(n=2, r=7, epochs=3, batch_size=32, lr=1e-3,
                clip_threshold=10.0, train_size=128, val_size=64,
                alpha=1.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestDataset:
    def test_same_seed_same_data(self):
        d1 = gen_dataset(3, 50, 123)
        d2 = gen_dataset(3, 50, 123)
        assert np.array_equal(d1.a, d2.a)
        assert np.array_equal(d1.b, d2.b)
        assert np.array_equal(d1.prod, d2.prod)

    def test_different_seed_differs(self):
        assert not np.array_equal(gen_dataset(2, 10, 1).a,
                                  gen_dataset(2, 10, 2).a)

    def test_range_and_shapes(self):
        d = gen_dataset(3, 10000, 7)
        assert d.a.shape == (10000, 3, 3)
        assert d.b.shape == (10000, 3, 3)
        assert d.prod.shape == (10000, 3, 3)
        for arr in (d.a, d.b):
            assert arr.min() >= -1.0
            assert arr.max() <= 1.0

    def test_custom_range(self):
        d = gen_dataset(2, 200, 3, low=0.5, high=0.75)
        assert d.a.min() >= 0.5
        assert d.a.max() <= 0.75

    def test_targets_match_recomputed_products(self):
        d = gen_dataset(3, 100, 11)
        want = np.matmul(d.a, d.b)
        assert np.max(np.abs(d.prod - want)) <= 1e-15

    def test_flat_layout(self):
        d = gen_dataset(2, 5, 13)
        a_rows, b_rows, t_rows = d.flat()
        assert a_rows.shape == (5, 4)
        np.testing.assert_array_equal(a_rows[2], d.a[2].reshape(4))
        np.testing.assert_array_equal(t_rows[4], d.prod[4].reshape(4))


class TestMse:
    def test_zero_on_equal(self):
        x = np.ones((3, 4))
        assert mse(x, x) == 0.0

    def test_single_unit_residual(self):
        pred = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert mse(pred, np.zeros((1, 4))) == 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(60)
        pred = rng.normal(size=(17, 9))
        target = rng.normal(size=(17, 9))
        total = 0.0
        for i in range(17):
            row = 0.0
            for j in range(9):
                row += (pred[i, j] - target[i, j]) ** 2
            total += row
        assert abs(mse(pred, target) - total / 17) <= 1e-14

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse(np.zeros((2, 4)), np.zeros((3, 4)))


class TestGradients:
    def random_case(self, rng, n):
        m = n * n
        r = int(rng.integers(m, m + 5))
        s = init_scheme(n, r, int(rng.integers(0, 2 ** 31)), 1.0)
        batch = int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, (batch, m))
        b = rng.uniform(-1, 1, (batch, m))
        t = rng.uniform(-1, 1, (batch, m))
        return s, a, b, t

    @staticmethod
    def max_rel_err(got, want):
        worst = 0.0
        for g, w in zip(got, want):
            denom = np.maximum(np.abs(g) + np.abs(w), 1e-12)
            worst = max(worst, float(np.max(np.abs(g - w) / denom)))
        return worst

    def test_zero_loss_means_zero_gradient(self):
        rng = np.random.default_rng(61)
        s = init_scheme(2, 7, 14, 1.0)
        a = rng.uniform(-1, 1, (6, 4))
        b = rng.uniform(-1, 1, (6, 4))
        t = forward_fast_batch(s, a, b)
        for g in grad_analytic(s, a, b, t)[1]:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_loss_is_the_forward_pass_mse(self):
        # the loss comes from the gradient's own forward pass, bit for
        # bit the mse of a separate one, with or without a run axis
        rng = np.random.default_rng(60)
        for n in (2, 3):
            s, a, b, t = self.random_case(rng, n)
            loss, _ = grad_analytic(s, a, b, t)
            assert loss == mse(forward_fast_batch(s, a, b), t)
            stack = Factors(s.H[None], s.K[None], s.F[None])
            losses, _ = grad_analytic(stack, a[None], b[None], t[None])
            assert losses.tobytes() == np.array([loss]).tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            n = int(rng.choice([2, 3]))
            s, a, b, t = self.random_case(rng, n)
            _, got = grad_analytic(s, a, b, t)
            want = grad_fd(s, a, b, t, h=1e-6)
            assert self.max_rel_err(got, want) <= 1e-5

    def test_zero_targets_case(self):
        # pure ||v||^2 objective, same oracle comparison
        rng = np.random.default_rng(63)
        s, a, b, _ = self.random_case(rng, 2)
        t = np.zeros((a.shape[0], 4))
        _, got = grad_analytic(s, a, b, t)
        want = grad_fd(s, a, b, t, h=1e-6)
        assert self.max_rel_err(got, want) <= 1e-5

    def test_central_difference_formula_order(self):
        def central(f, x, h):
            return (f(x + h) - f(x - h)) / (2 * h)

        # quadratic: derivative recovered almost exactly
        assert abs(central(lambda x: x * x, 3.0, 1e-6) - 6.0) <= 1e-6
        # cubic: truncation error h^2 * f'''/6, so halving h quarters it
        errs = [abs(central(lambda x: x ** 3, 1.0, h) - 3.0)
                for h in (1e-2, 5e-3)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_fd_step_insensitive_on_this_loss(self):
        # the loss is quadratic in every single coordinate, so the
        # central difference has no truncation term here; both step
        # sizes must land on the analytic gradient
        rng = np.random.default_rng(64)
        s, a, b, t = self.random_case(rng, 2)
        _, exact = grad_analytic(s, a, b, t)
        for h in (1e-3, 1e-6):
            fd = grad_fd(s, a, b, t, h=h)
            assert self.max_rel_err(fd, exact) <= 1e-5


class TestClipping:
    # gradients carry a leading run axis; these are stacks of one run

    def test_below_threshold_untouched(self):
        g = (np.array([[3.0, 4.0]]),)
        out = clip_gradients(g, 10.0)
        assert out[0] is g[0]

    def test_rescales_to_threshold(self):
        g = (np.full((1, 4, 4), 5.0),)
        assert global_norm(g) == 20.0
        out = clip_gradients(g, 10.0)
        assert abs(global_norm(out) - 10.0) <= 1e-12

    def test_zero_gradient_safe(self):
        g = (np.zeros((1, 3, 3)), np.zeros((1, 2, 2)))
        out = clip_gradients(g, 10.0)
        for mat in out:
            np.testing.assert_array_equal(mat, 0.0)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            g = tuple(rng.normal(size=(1, 3, 3)) * rng.uniform(0, 10)
                      for _ in range(3))
            before = global_norm(g)
            after = global_norm(clip_gradients(g, 10.0))
            assert after <= before + 1e-12

    def test_norm_is_global_not_per_matrix(self):
        # each part has norm 8 < 10, but jointly ~11.3 > 10
        g = (np.full((1, 4, 4), 2.0), np.full((1, 4, 4), 2.0))
        assert global_norm(g) == pytest.approx(128 ** 0.5)
        out = clip_gradients(g, 10.0)
        assert global_norm(out) == pytest.approx(10.0)

    def test_norm_and_clip_are_per_run(self):
        # run 0 has norm 5 and passes untouched; run 1 has norm 20 and is
        # scaled onto the ball, with the same factor in every array
        g = (np.array([[3.0, 0.0], [12.0, 0.0]]),
             np.array([[[4.0]], [[16.0]]]))
        np.testing.assert_array_equal(global_norm(g), [5.0, 20.0])
        out = clip_gradients(g, 10.0)
        np.testing.assert_array_equal(out[0], [[3.0, 0.0], [6.0, 0.0]])
        np.testing.assert_array_equal(out[1], [[[4.0]], [[8.0]]])


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        rng = np.random.default_rng(66)
        s = init_scheme(2, 7, 15, 1.0)
        state = init_adam(s)
        grads = tuple(rng.choice([-1.0, 1.0], size=m.shape) *
                      rng.uniform(0.5, 2.0, size=m.shape)
                      for m in (s.H, s.K, s.F))
        new_s, new_state = adam_step(state, s, grads, lr=1e-3)
        for old, new, g in zip((s.H, s.K, s.F),
                               (new_s.H, new_s.K, new_s.F), grads):
            np.testing.assert_allclose(new - old, -1e-3 * np.sign(g),
                                       atol=1e-10)
        assert new_state.step == 1

    def test_zero_gradient_is_a_fixed_point(self):
        s = init_scheme(2, 7, 16, 1.0)
        state = init_adam(s)
        zeros = tuple(np.zeros_like(m) for m in (s.H, s.K, s.F))
        cur = s
        for _ in range(3):
            cur, state = adam_step(state, cur, zeros, lr=1e-3)
        assert np.array_equal(cur.H, s.H)
        assert np.array_equal(cur.K, s.K)
        assert np.array_equal(cur.F, s.F)
        assert state.step == 3

    def test_constant_gradient_descends(self):
        s = init_scheme(2, 7, 17, 1.0)
        state = init_adam(s)
        g = np.full_like(s.H, 0.7)
        grads = (g, np.zeros_like(s.K), np.zeros_like(s.F))
        cur = s
        for _ in range(50):
            cur, state = adam_step(state, cur, grads, lr=1e-3)
        assert np.all(cur.H < s.H)
        np.testing.assert_array_equal(cur.K, s.K)

    def test_early_update_norm_bound(self):
        rng = np.random.default_rng(67)
        params = (rng.normal(size=(4, 7)),)
        state = init_adam_params(params)
        count = params[0].size
        for _ in range(5):
            grads = (rng.normal(size=(4, 7)),)
            new_params, state = adam_update(state, params, grads, 1e-3)
            step_norm = float(np.linalg.norm(new_params[0] - params[0]))
            assert step_norm <= 1e-3 * 1.1 * count ** 0.5
            params = new_params

    def test_generic_update_matches_scheme_wrapper(self):
        # adam_step lays H, K and F back to back as one flat run
        rng = np.random.default_rng(68)
        s = init_scheme(2, 7, 18, 1.0)
        grads = tuple(rng.normal(size=m.shape) for m in (s.H, s.K, s.F))
        s2, _ = adam_step(init_adam(s), s, grads, lr=1e-2)
        flat = np.concatenate([s.H.ravel(), s.K.ravel(), s.F.ravel()])
        params, _ = adam_update(
            init_adam_params(flat), flat,
            np.concatenate([g.ravel() for g in grads]), 1e-2)
        assert np.array_equal(params[:28].reshape(4, 7), s2.H)
        assert np.array_equal(params[56:].reshape(7, 4), s2.F)


class TestSeedDerivation:
    def test_mix64_is_deterministic_and_wide(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 3, 2)
        vals = {mix64(0, k) for k in range(1000)}
        assert len(vals) == 1000
        assert all(0 <= v < 2 ** 64 for v in vals)

    def test_streams_are_distinct(self):
        cfg = tiny_config(seed=9)
        streams = run_streams(cfg)
        assert set(streams) == {"init", "data", "val"}
        assert len(set(streams.values())) == 3
        assert shuffle_seed(cfg, 0) not in set(streams.values())

    def test_shuffle_seed_varies_by_epoch(self):
        cfg = tiny_config(seed=9)
        seeds = {shuffle_seed(cfg, e) for e in range(50)}
        assert len(seeds) == 50


class TestBatchSlices:
    def test_partition_keeps_partial_tail(self):
        perm = np.arange(10)
        sizes = [len(idx) for idx in batch_slices(perm, 4)]
        assert sizes == [4, 4, 2]

    def test_covers_permutation_in_order(self):
        rng = np.random.default_rng(69)
        perm = rng.permutation(17)
        chunks = list(batch_slices(perm, 5))
        np.testing.assert_array_equal(np.concatenate(chunks), perm)


class TestTrain:
    def test_bitwise_deterministic(self):
        cfg = tiny_config()
        r1 = train(cfg)
        r2 = train(cfg)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        assert np.array_equal(r1.scheme.H, r2.scheme.H)
        assert np.array_equal(r1.scheme.F, r2.scheme.F)

    def test_loss_array_shapes(self):
        rec = train(tiny_config(epochs=5))
        assert len(rec.train_losses) == 5
        assert len(rec.val_losses) == 5
        assert all(v >= 0 for v in rec.train_losses)
        assert all(v >= 0 for v in rec.val_losses)

    def test_first_epoch_train_loss_bookkeeping(self):
        # one batch per epoch makes the epoch mean reconstructable
        cfg = tiny_config(train_size=64, batch_size=64, epochs=1)
        rec = train(cfg)
        streams = run_streams(cfg)
        data = gen_dataset(cfg.n, cfg.train_size, streams["data"])
        s0 = init_scheme(cfg.n, cfg.r, streams["init"], cfg.alpha)
        a, b, t = data.flat()
        want = mse(forward_fast_batch(s0, a, b), t)
        assert rec.train_losses[0] == pytest.approx(want, rel=1e-12)

    def test_single_epoch_val_matches_final_scheme(self):
        cfg = tiny_config(epochs=1)
        rec = train(cfg)
        streams = run_streams(cfg)
        val = gen_dataset(cfg.n, cfg.val_size, streams["val"])
        want = direct_scorer(val)(rec.scheme)
        assert within_gate(want, rec.val_losses[0])

    def test_loss_decreases_over_training(self):
        cfg = tiny_config(train_size=512, val_size=256, epochs=30,
                          lr=1e-2, seed=3)
        rec = train(cfg)
        assert rec.val_losses[-1] < rec.val_losses[0]

    def test_resample_changes_trajectory_deterministically(self):
        fixed = train(tiny_config(epochs=4))
        redrawn1 = train(tiny_config(epochs=4, resample=True))
        redrawn2 = train(tiny_config(epochs=4, resample=True))
        assert redrawn1.train_losses == redrawn2.train_losses
        assert fixed.train_losses[0] == redrawn1.train_losses[0]
        assert fixed.train_losses[1:] != redrawn1.train_losses[1:]

    def test_full_scale_convergence_single_seed(self):
        # the multi-seed statistical claim lives in the acceptance suite;
        # this pins one known-good seed end to end at full scale
        cfg = TrainConfig(n=2, r=7, epochs=60, batch_size=32, lr=1e-3,
                          clip_threshold=10.0, train_size=10000,
                          val_size=10000, alpha=1.0, seed=4)
        rec = train(cfg)
        assert rec.final_val_loss < 1e-3
        assert rec.train_losses[-1] < rec.train_losses[0] / 100.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)
        with pytest.raises(ValueError):
            tiny_config(batch_size=256, train_size=128)
        with pytest.raises(ValueError):
            tiny_config(lr=-1.0)


class TestDivergence:
    def test_first_epoch_divergence_names_no_losses(self):
        with pytest.raises(TrainingDiverged) as info:
            with np.errstate(all="ignore"):
                train(tiny_config(alpha=1e200))
        assert info.value.epoch == 0
        assert info.value.train_loss is None
        assert info.value.val_loss is None
        assert "diverged in epoch 0" in str(info.value)

    def test_later_divergence_carries_last_finite_losses(self):
        # the loss is taken at a blown-up copy of the factors from epoch 1
        cfg = tiny_config(epochs=3)
        first = train(tiny_config(epochs=1))

        def init(seed):
            scheme = init_scheme(cfg.n, cfg.r, seed, cfg.alpha)
            return scheme.H, scheme.K, scheme.F

        def view(arrays, epoch):
            H, K, F = arrays
            if epoch == 0:
                return Factors(H, K, F), None
            return Factors(H * 1e200, K * 1e200, F), None

        with np.errstate(all="ignore"):
            (outcome,) = fit([cfg], init, lambda *args: None, view)
        with pytest.raises(TrainingDiverged) as info:
            raise outcome
        assert info.value.epoch == 1
        assert info.value.train_loss == first.train_losses[0]
        assert info.value.val_loss == first.val_losses[0]

    def test_survives_pickling(self):
        # sweep workers hand the error back to the parent process
        exc = pickle.loads(pickle.dumps(TrainingDiverged(2, 0.5, 0.25)))
        assert (exc.epoch, exc.train_loss, exc.val_loss) == (2, 0.5, 0.25)
        assert str(exc) == str(TrainingDiverged(2, 0.5, 0.25))
