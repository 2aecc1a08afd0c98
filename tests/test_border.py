"""Polynomial-in-eps schemes: evaluation, coefficient gradients, the
annealing schedule, reduction to plain training, and the rank-2 curve
whose limit is the three-party W tensor."""

import numpy as np
import pytest

from bmpnet import border
from bmpnet.border import (
    EpsScheme,
    EpsSchedule,
    EpsilonNonpositive,
    _factor_writer,
    coefficient_grads,
    eps_powers,
    eps_scheme_to_json,
    evaluate,
    init_eps_scheme,
    stack_index,
    train_eps,
    wstate_embedded,
    wstate_eps_scheme,
)
from bmpnet.scheme import forward_fast_batch, scheme_to_json
from bmpnet.tensor import ShapeMismatch
from bmpnet.training import (
    ConfigError,
    TrainConfig,
    gen_dataset,
    init_scheme,
    mse,
    train,
)
import perrun
from perrun import bits
from reference import fresh_grads


def triad(scheme):
    """Sum of rank-1 terms h_s (x) k_s (x) f_s as an order-3 array."""
    H = np.asarray(scheme.H, dtype=float)
    K = np.asarray(scheme.K, dtype=float)
    F = np.asarray(scheme.F, dtype=float)
    return np.einsum("is,js,sk->ijk", H, K, F)


def small_eps_scheme(seed=0, d_max=1, f_min=-1, eps=0.1):
    return init_eps_scheme(2, 4, seed, alpha=0.5, d_max=d_max,
                           f_min=f_min, eps=eps)


def tiny_config(**over):
    base = dict(n=2, r=7, epochs=3, batch_size=32, lr=1e-3,
                train_size=128, val_size=64, seed=0)
    base.update(over)
    return TrainConfig(**base)


class TestEpsScheme:
    def test_stack_shapes(self):
        es = init_eps_scheme(2, 5, 3, d_max=2, f_min=-2)
        assert len(es.h_coeffs) == 3 and len(es.k_coeffs) == 3
        assert len(es.f_coeffs) == 5
        assert all(m.shape == (4, 5) for m in es.h_coeffs)
        assert all(m.shape == (5, 4) for m in es.f_coeffs)
        assert (es.f_min, es.d_max) == (-2, 2)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(EpsilonNonpositive):
            small_eps_scheme(eps=0.0)
        with pytest.raises(EpsilonNonpositive):
            small_eps_scheme(eps=-0.5)

    def test_rejects_bad_degree_bounds(self):
        es = small_eps_scheme()
        with pytest.raises(ShapeMismatch):
            EpsScheme(n=2, r=4, d_max=-1, f_min=0, h_coeffs=[],
                      k_coeffs=[], f_coeffs=[], eps=0.1)
        with pytest.raises(ShapeMismatch):
            EpsScheme(n=2, r=4, d_max=1, f_min=2,
                      h_coeffs=es.h_coeffs, k_coeffs=es.k_coeffs,
                      f_coeffs=es.f_coeffs, eps=0.1)

    def test_rejects_wrong_stack_lengths(self):
        es = small_eps_scheme()
        with pytest.raises(ShapeMismatch):
            EpsScheme(n=2, r=4, d_max=1, f_min=-1,
                      h_coeffs=es.h_coeffs[:1], k_coeffs=es.k_coeffs,
                      f_coeffs=es.f_coeffs, eps=0.1)
        with pytest.raises(ShapeMismatch):
            EpsScheme(n=2, r=4, d_max=1, f_min=-1,
                      h_coeffs=es.h_coeffs, k_coeffs=es.k_coeffs,
                      f_coeffs=es.f_coeffs[:2], eps=0.1)

    def test_rejects_wrong_matrix_shapes(self):
        es = small_eps_scheme()
        bad = [np.zeros((3, 4)), np.zeros((3, 4))]
        with pytest.raises(ShapeMismatch):
            EpsScheme(n=2, r=4, d_max=1, f_min=-1, h_coeffs=bad,
                      k_coeffs=es.k_coeffs, f_coeffs=es.f_coeffs, eps=0.1)


class TestInit:
    def test_deterministic(self):
        a = small_eps_scheme(seed=9)
        b = small_eps_scheme(seed=9)
        for x, y in zip(a.h_coeffs + a.k_coeffs + a.f_coeffs,
                        b.h_coeffs + b.k_coeffs + b.f_coeffs):
            assert np.array_equal(x, y)

    def test_degree_zero_matches_plain_init(self):
        # same seed, same draw order: the flat machinery is a special case
        es = init_eps_scheme(2, 7, 123, alpha=1.0, d_max=0, f_min=0)
        s = init_scheme(2, 7, 123, 1.0)
        assert np.array_equal(es.h_coeffs[0], s.H)
        assert np.array_equal(es.k_coeffs[0], s.K)
        assert np.array_equal(es.f_coeffs[0], s.F)


class TestEvaluate:
    def test_left_fold_bit_for_bit(self):
        # one multiply by the powers and one sum over them equals adding
        # the terms one at a time from the lowest power, signed zeros too
        es = small_eps_scheme(d_max=2, f_min=-2, eps=0.3)
        for mat in es.h_coeffs + es.f_coeffs:
            mat[0] = -0.0
        for eps in (0.3, 1e-3):
            got, want = evaluate(es, eps), perrun.evaluate(es, eps)
            for name in "HKF":
                assert bits(getattr(got, name)) == bits(getattr(want, name))
        assert np.signbit(evaluate(es).H[0]).all()

    def test_polynomial_by_hand(self):
        es = small_eps_scheme(d_max=2, f_min=-2, eps=0.25)
        s = evaluate(es)
        e = 0.25
        want_h = es.h_coeffs[0] + es.h_coeffs[1] * e + es.h_coeffs[2] * e * e
        np.testing.assert_allclose(s.H, want_h, rtol=1e-15)
        want_f = sum(mat * e ** p
                     for mat, p in zip(es.f_coeffs, range(-2, 3)))
        np.testing.assert_allclose(s.F, want_f, rtol=1e-15)

    def test_eps_argument_overrides_stored(self):
        es = small_eps_scheme(eps=0.5)
        assert np.array_equal(evaluate(es).H, evaluate(es, 0.5).H)
        assert not np.array_equal(evaluate(es).H, evaluate(es, 0.125).H)

    def test_degree_zero_ignores_eps(self):
        es = small_eps_scheme(d_max=0, f_min=0)
        assert np.array_equal(evaluate(es, 1.0).H, evaluate(es, 1e-6).H)
        assert np.array_equal(evaluate(es, 1.0).F, evaluate(es, 1e-6).F)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(EpsilonNonpositive):
            evaluate(small_eps_scheme(), 0.0)
        with pytest.raises(EpsilonNonpositive):
            evaluate(small_eps_scheme(), -1.0)

    def test_negative_powers_diverge_as_eps_shrinks(self):
        es = small_eps_scheme(d_max=1, f_min=-1)
        big = np.abs(np.asarray(evaluate(es, 1e-6).F)).max()
        small = np.abs(np.asarray(evaluate(es, 1e-1).F)).max()
        assert big > small * 1e3


class TestFactorWriter:
    @pytest.mark.parametrize("d_max, f_min", [(2, -2), (1, -1), (0, 0),
                                              (3, -1)])
    def test_bits_of_each_stack_summed_alone(self, d_max, f_min):
        # H and K are summed by one reduction of a (..., 2, d_max + 1,
        # P) view; each must equal its stack's rows summed alone from
        # -0.0, with +-0, +-inf and NaN among the coefficients
        rng = np.random.default_rng(d_max - f_min)
        n_h, size = d_max + 1, 12
        rows = len(stack_index(d_max, f_min))
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for lead in ((), (1,), (3,)):
            out = np.empty((3,) + lead + (size,))
            write = _factor_writer(lead + (rows, size), n_h, out)
            for _ in range(170):
                coeffs = rng.normal(size=lead + (rows, size)) \
                    * 10.0 ** rng.uniform(-5, 5, size=lead + (rows, 1))
                mask = rng.random(coeffs.shape) < 0.2
                coeffs[mask] = rng.choice(special, size=mask.sum())
                powers = eps_powers(d_max, f_min, rng.uniform(1e-3, 1.0))
                with np.errstate(invalid="ignore", over="ignore"):
                    assert write(coeffs, powers) is out
                    terms = coeffs * powers
                    for k, stack in enumerate(np.split(
                            terms, [n_h, 2 * n_h], axis=-2)):
                        want = np.add.reduce(stack, axis=-2, initial=-0.0)
                        assert out[k].tobytes() == want.tobytes()


class TestCoefficientGrads:
    def test_matches_finite_differences(self):
        # loss as a function of the coefficient stacks, probed coordinate
        # by coordinate; the chain rule multiplies by eps^power
        rng = np.random.default_rng(2)
        es = small_eps_scheme(seed=5, d_max=1, f_min=-1, eps=0.3)
        a_rows, b_rows, t_rows = gen_dataset(2, 16, 44)

        def loss_of(stacks):
            probe = EpsScheme(n=2, r=4, d_max=1, f_min=-1,
                              h_coeffs=stacks[:2], k_coeffs=stacks[2:4],
                              f_coeffs=stacks[4:], eps=0.3)
            preds = forward_fast_batch(evaluate(probe), a_rows, b_rows)
            return mse(preds, t_rows)

        stacks = [m.copy() for m in es.h_coeffs + es.k_coeffs + es.f_coeffs]
        scheme = evaluate(es)
        _, (d_hk, d_f) = fresh_grads(
            np.stack((scheme.H, scheme.K)), scheme.F,
            np.stack((a_rows, b_rows)), t_rows)
        grads = coefficient_grads(
            np.stack([d_hk[0].ravel(), d_hk[1].ravel(), d_f.ravel()]),
            eps_powers(1, -1, 0.3), stack_index(1, -1),
            np.empty((len(stacks), 16)))
        h = 1e-6
        for _ in range(12):
            stack_i = rng.integers(len(stacks))
            idx = tuple(rng.integers(d) for d in stacks[stack_i].shape)
            bumped = [m.copy() for m in stacks]
            bumped[stack_i][idx] += h
            up = loss_of(bumped)
            bumped[stack_i][idx] -= 2 * h
            down = loss_of(bumped)
            fd = (up - down) / (2 * h)
            got = grads[stack_i].reshape(stacks[stack_i].shape)[idx]
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_power_scaling(self):
        es = small_eps_scheme(d_max=1, f_min=-1, eps=0.5)
        out = np.empty((7, 16))
        grads = coefficient_grads(np.ones((3, 16)),
                                  eps_powers(es.d_max, es.f_min, 0.5),
                                  stack_index(es.d_max, es.f_min), out)
        # H and K stacks: powers 0, 1; F stack: powers -1, 0, 1 for
        # d_max=1, f_min=-1, so seven rows, written into the block
        assert grads is out
        assert len(grads) == 2 + 2 + 3
        assert grads[0][0] == 1.0
        assert grads[1][0] == 0.5
        assert grads[4][0] == 2.0
        assert grads[5][0] == 1.0
        assert grads[6][0] == 0.5


    @pytest.mark.parametrize("d_max, f_min", [(2, -2), (1, -1), (0, 0),
                                              (3, -1)])
    def test_power_block_bits_equal_the_column(self, d_max, f_min):
        # train_eps passes each epoch's powers as a full block and gathers
        # into the same coefficient block every step; the bytes must be
        # those of the (A, 1) column times the gathered gradients, with
        # +-0, +-inf and NaN among the gradients and eps moving per epoch
        rng = np.random.default_rng(d_max - 3 * f_min)
        index, size = stack_index(d_max, f_min), 12
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for runs in (1, 3):
            out = np.empty((runs, len(index), size))
            for eps in rng.uniform(1e-3, 1.0, size=6):
                column = eps_powers(d_max, f_min, eps)
                block = np.broadcast_to(column, out.shape).copy()
                for _ in range(20):
                    grads = rng.normal(size=(3, runs, size)) \
                        * 10.0 ** rng.uniform(-5, 5, size=(3, runs, 1))
                    mask = rng.random(grads.shape) < 0.2
                    grads[mask] = rng.choice(special, size=mask.sum())
                    with np.errstate(invalid="ignore", over="ignore"):
                        want = np.multiply(
                            grads.take(index, axis=0).swapaxes(0, -2),
                            column)
                        assert coefficient_grads(grads, block, index,
                                                 out) is out
                        assert out.tobytes() == want.tobytes()
                        coefficient_grads(grads, column, index, out)
                        assert out.tobytes() == want.tobytes()


class TestSchedule:
    def test_closed_form_trajectory(self):
        sched = EpsSchedule(eps0=0.5, decay=0.9, floor=1e-3)
        for epoch in range(200):
            assert sched.at(epoch) == max(1e-3, 0.5 * 0.9 ** epoch)

    def test_floor_engages(self):
        sched = EpsSchedule(eps0=0.02, decay=0.5, floor=1e-4)
        assert sched.at(0) == 0.02
        assert sched.at(50) == 1e-4

    def test_constant_when_decay_is_one(self):
        sched = EpsSchedule(eps0=0.125, decay=1.0, floor=1e-8)
        assert [sched.at(e) for e in range(10)] == [0.125] * 10

    def test_validation(self):
        with pytest.raises(EpsilonNonpositive):
            EpsSchedule(eps0=0.0)
        with pytest.raises(ConfigError):
            EpsSchedule(eps0=np.inf)
        with pytest.raises(ConfigError):
            EpsSchedule(decay=0.0)
        with pytest.raises(ConfigError):
            EpsSchedule(decay=1.5)
        with pytest.raises(ConfigError):
            EpsSchedule(eps0=0.02, floor=0.05)
        with pytest.raises(ConfigError):
            EpsSchedule(floor=0.0)


class TestTrainEps:
    @pytest.mark.parametrize("d_max, f_min", [(2, 5), (2, 4), (-1, -3)])
    def test_bad_degree_bounds_rejected_before_training(
            self, monkeypatch, d_max, f_min):
        # f_min >= d_max + 2 once reached numpy's "repeats may not contain
        # negative values" from stack_index
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")
        monkeypatch.setattr(border, "fit", no_fit)
        with pytest.raises(ShapeMismatch,
                           match="need 0 <= d_max and f_min <= d_max"):
            train_eps(tiny_config(), d_max=d_max, f_min=f_min)

    def test_reduces_to_plain_training(self):
        # degree-0 stacks and a constant schedule leave nothing for eps
        # to do; every recorded number must agree bitwise
        cfg = tiny_config()
        plain = train(cfg)
        rec = train_eps(cfg, schedule=EpsSchedule(eps0=0.02, decay=1.0),
                        d_max=0, f_min=0)
        assert rec.train_losses == plain.train_losses
        assert rec.val_losses == plain.val_losses
        assert rec.probe_losses == rec.val_losses
        assert rec.epsilon_trajectory == [0.02] * cfg.epochs
        final = evaluate(rec.eps_scheme)
        assert np.array_equal(final.H, plain.scheme.H)
        assert np.array_equal(final.K, plain.scheme.K)
        assert np.array_equal(final.F, plain.scheme.F)

    def test_reduction_holds_with_resampling(self):
        cfg = tiny_config(resample=True, epochs=3)
        plain = train(cfg)
        rec = train_eps(cfg, schedule=EpsSchedule(eps0=0.02, decay=1.0),
                        d_max=0, f_min=0)
        assert rec.train_losses == plain.train_losses
        assert rec.val_losses == plain.val_losses

    def test_trajectory_matches_schedule_bitwise(self):
        cfg = tiny_config(epochs=6)
        sched = EpsSchedule(eps0=0.5, decay=0.8, floor=1e-6)
        rec = train_eps(cfg, schedule=sched)
        assert rec.epsilon_trajectory == \
            [max(1e-6, 0.5 * 0.8 ** e) for e in range(6)]

    def test_deterministic(self):
        cfg = tiny_config(epochs=2)
        a = train_eps(cfg)
        b = train_eps(cfg)
        assert a.train_losses == b.train_losses
        assert a.probe_losses == b.probe_losses
        assert np.array_equal(a.eps_scheme.h_coeffs[1],
                              b.eps_scheme.h_coeffs[1])

    def test_loss_decreases(self):
        # start the anneal at eps = 1 so the negative-power coefficients
        # do not blow up the initial predictions
        rec = train_eps(tiny_config(epochs=5, lr=1e-2),
                        schedule=EpsSchedule(eps0=1.0, decay=0.9),
                        d_max=1, f_min=-1)
        assert rec.train_losses[-1] < rec.train_losses[0]
        assert all(np.isfinite(v) for v in rec.probe_losses)

    def test_progress_callback(self):
        seen = []
        train_eps(tiny_config(epochs=2),
                  progress=lambda *args: seen.append(args))
        assert len(seen) == 2
        assert seen[0][0] == 0 and len(seen[0]) == 5

    def test_record_json(self):
        rec = train_eps(tiny_config(epochs=2))
        d = rec.to_json()
        assert "wall_seconds" not in d
        assert d["probe_eps"] == 1e-3
        assert len(d["epsilon_trajectory"]) == 2
        assert len(d["eps_factors"]["h_coeffs"]) == 3
        assert d["final_val_loss"] == rec.val_losses[-1]
        assert set(d) == {
            "config", "epsilon_trajectory", "eps_factors", "final_val_loss",
            "probe_eps", "probe_losses", "schedule", "scheme",
            "train_losses", "val_losses"}
        assert d["scheme"] == scheme_to_json(evaluate(rec.eps_scheme))
        assert d["eps_factors"] == eps_scheme_to_json(rec.eps_scheme)


class TestWState:
    """Rank-2 polynomial curve converging to a tensor of rank 3: the
    textbook witness that the border notion is strictly weaker."""

    def test_target_tensor(self):
        w = wstate_embedded()
        assert w.shape == (4, 4, 4)
        assert w.sum() == 3.0
        assert w[0, 0, 1] == w[0, 1, 0] == w[1, 0, 0] == 1.0

    def test_curve_error_formula(self):
        # leftover terms at eps are eps * (three disjoint cross terms)
        # plus eps^2 * (rank-1 corner), so the distance is known exactly
        w = wstate_embedded()
        for eps in (0.25, 1e-2, 1e-4):
            err = np.linalg.norm(triad(evaluate(wstate_eps_scheme(eps))) - w)
            want = np.sqrt(3.0 * eps ** 2 + eps ** 4)
            np.testing.assert_allclose(err, want, rtol=1e-8)

    def test_loglog_slope_is_one(self):
        w = wstate_embedded()
        eps_values = (1e-1, 1e-2, 1e-3)
        errs = [np.linalg.norm(triad(evaluate(wstate_eps_scheme(e))) - w)
                for e in eps_values]
        slope = np.polyfit(np.log10(eps_values), np.log10(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_only_two_slots(self):
        es = wstate_eps_scheme(0.1)
        assert es.r == 2
        s = evaluate(es)
        assert np.asarray(s.H).shape == (4, 2)
