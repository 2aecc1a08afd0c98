"""Validation as a quadratic form of the residual tensor: the package's
scorer against the forward pass over the same rows
(``reference.direct_scorer``), held to ``reference.within_gate``, and
against the per-run scorer through ``reconstruct`` that it replaced
(``reference.reconstruct_scorer``); a stack of runs scores each run as
it scores alone."""

import numpy as np
import pytest

from bmpnet import training
from bmpnet.border import EpsSchedule, train_eps
from bmpnet.scheme import BilinearScheme, init_scheme
from bmpnet.tensor import float_array
from bmpnet.training import (
    Factors, TrainConfig, TrainingDiverged, draw_operands, fit, fourth_moment,
    gen_dataset, run_streams, scorer, train)
from bmpnet.verify import known_strassen
from perrun import bits
from reference import (
    chunked_fourth_moment, direct_scorer, reconstruct_scorer, within_gate)
from test_stack import blown_up, config, init_for

RANGES = [(-1.0, 1.0), (0.0, 2.0), (-3.0, 1.0)]


def both(n, low, high, count=2000, seed=5):
    val = gen_dataset(n, count, seed, low, high)
    return direct_scorer(val), scorer(n, fourth_moment(val.a, val.b))


def val_set(cfg):
    return gen_dataset(cfg.n, cfg.val_size, run_streams(cfg)["val"],
                       cfg.low, cfg.high)


@pytest.mark.parametrize("low, high", RANGES)
@pytest.mark.parametrize("n, r", [(2, 7), (3, 19), (3, 23)])
def test_random_schemes(n, r, low, high):
    val = gen_dataset(n, 2000, 5, low, high)
    moment = fourth_moment(val.a, val.b)
    direct, form = direct_scorer(val), scorer(n, moment)
    ref = reconstruct_scorer(n, moment)
    for seed in range(3):
        s = init_scheme(n, r, seed, 1.0)
        got, want = form(s), ref(s)
        assert within_gate(direct(s), got)
        assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("low, high", RANGES)
@pytest.mark.parametrize("n, r", [(2, 7), (3, 23)])
def test_trained_schemes(n, r, low, high):
    cfg = TrainConfig(n=n, r=r, epochs=3, train_size=256, val_size=512,
                      seed=4, low=low, high=high)
    rec = train(cfg)
    direct = direct_scorer(val_set(cfg))
    assert within_gate(direct(rec.scheme), rec.final_val_loss)


def strassen():
    s = known_strassen()
    return BilinearScheme(2, 7, *(float_array(x) for x in (s.H, s.K, s.F)))


@pytest.mark.parametrize("low, high", RANGES)
def test_exact_strassen_scores_zero(low, high):
    direct, form = both(2, low, high)
    assert bits(form(strassen())) == bits(0.0)
    moments = np.stack([fourth_moment(*gen_dataset(2, 100, seed, low, high)
                                      .flat()[:2]) for seed in range(3)])
    s = strassen()
    stack = Factors(*(np.stack([x] * 3) for x in (s.H, s.K, s.F)))
    assert bits(scorer(2, moments)(stack)) == bits(np.zeros(3))
    # the forward pass reads only the rounding of its targets, which
    # grows with the operands: 1.6e-30 on [-3, 1], just above the gate's
    # 1e-30 at a form of 0
    assert direct(strassen()) < 1e-29
    if (low, high) != (-3.0, 1.0):
        assert within_gate(direct(strassen()), 0.0)


@pytest.mark.parametrize("low, high", RANGES)
@pytest.mark.parametrize("delta", [1e-8, 1e-5, 1e-2])
def test_perturbed_strassen(delta, low, high):
    direct, form = both(2, low, high)
    s = strassen()
    rng = np.random.default_rng(9)
    near = BilinearScheme(
        2, 7, *(x + delta * rng.standard_normal(x.shape)
                for x in (s.H, s.K, s.F)))
    got = form(near)
    assert got > 0.0
    assert within_gate(direct(near), got)


def signed_zeros(x, rng):
    """x with about a quarter of its entries set to 0.0 and as many to
    -0.0."""
    x = x.copy()
    pick = rng.random(x.shape)
    x[pick < 0.25] = 0.0
    x[pick > 0.75] = -0.0
    return x


@pytest.mark.parametrize("r", [19, 23])
def test_stack_scores_each_run_as_alone(r):
    # the factors are views of a parameter block, as in training
    n, runs, rng = 3, 3, np.random.default_rng(r)
    moments = np.stack([fourth_moment(*gen_dataset(n, 500, seed).flat()[:2])
                        for seed in range(runs)])
    block = signed_zeros(rng.standard_normal((runs, 3, 9 * r)), rng)
    stack = Factors(*(block[:, i].reshape((runs,) + shape) for i, shape
                      in enumerate(((9, r), (9, r), (r, 9)))))
    got = scorer(n, moments)(stack)
    assert got.shape == (runs,)
    for run in range(runs):
        alone = scorer(n, moments[run])(
            Factors(*(np.array(f[run]) for f in stack)))
        assert bits(got[run]) == bits(alone)


@pytest.mark.filterwarnings("error")
def test_blown_up_run_is_left_unscored(monkeypatch):
    # every score runs with warnings on, so scoring the overflowing run
    # would fail the test; its training steps overflow with them off
    plain = training.scorer

    def loud(n, moment):
        score = plain(n, moment)

        def wrapped(scheme):
            with np.errstate(all="warn"):
                return score(scheme)
        return wrapped

    def pull(grads, out, epoch):
        # run 1 takes no steps, so its blown-up factors stay finite
        for i, g in enumerate(grads):
            out[:, i] = g.reshape(len(g), -1)
        out[1] = 0.0

    monkeypatch.setattr(training, "scorer", loud)
    cfgs = [config(seed) for seed in (40, 41, 42)]
    with np.errstate(all="ignore"):
        outcomes = fit(cfgs, init_for(cfgs[0]), lambda *args: None,
                       blown_up({1: 1}), pull)
    assert isinstance(outcomes[1], TrainingDiverged)
    for run in (0, 2):
        (alone,) = fit([cfgs[run]], init_for(cfgs[run]), lambda *args: None)
        assert bits(outcomes[run][2]) == bits(alone[2])
        assert bits(outcomes[run][1]) == bits(alone[1])


def test_factors_slice_scores_as_its_scheme():
    _, form = both(3, -1.0, 1.0)
    s = init_scheme(3, 21, 2, 1.0)
    assert form(Factors(s.H, s.K, s.F)) == form(s)


@pytest.mark.parametrize("count", [1, 1024, 2500])
def test_fourth_moment_is_the_mean_over_all_rows(count):
    # rows are summed in chunks of 1,024; the last one may be short
    val = gen_dataset(2, count, 8, 0.0, 2.0)
    a, b, _ = val.flat()
    x = (a[:, :, None] * b[:, None, :]).reshape(count, 16)
    np.testing.assert_allclose(fourth_moment(val.a, val.b), x.T @ x / count,
                               rtol=1e-13)


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fourth_moment_bits(n, count):
    # bitwise against a fresh product per chunk: a set below one chunk and
    # a short last chunk fill part of the reused buffer, and the zeros of
    # the first rows lose their sign in it without changing a bit of S
    a, b = draw_operands(n, count, 40 + n)
    a[:3, 0], b[:2, -1] = -0.0, 0.0
    assert fourth_moment(a, b).tobytes() \
        == chunked_fourth_moment(a, b).tobytes()


def test_border_run_val_and_probe_losses(monkeypatch):
    # every val and probe score of a border run, against the forward pass
    seen = []
    plain = training.scorer

    def recording(n, moment):
        score = plain(n, moment)

        def wrapped(scheme):
            # the epoch's score has a run axis, the probe's has none
            value = score(scheme)
            factors = [np.array(x) for x in (scheme.H, scheme.K, scheme.F)]
            if np.ndim(value):
                seen.extend((Factors(*(f[run] for f in factors)), v)
                            for run, v in enumerate(value))
            else:
                seen.append((Factors(*factors), value))
            return value
        return wrapped

    monkeypatch.setattr(training, "scorer", recording)
    cfg = TrainConfig(n=2, r=7, epochs=4, train_size=256, val_size=512,
                      seed=3)
    rec = train_eps(cfg, EpsSchedule(eps0=0.05, decay=0.8), probe_eps=1e-3)
    scored = [v for pair in zip(rec.val_losses, rec.probe_losses)
              for v in pair]
    assert [v for _, v in seen] == scored
    direct = direct_scorer(val_set(cfg))
    for scheme, value in seen:
        assert within_gate(direct(scheme), value)
