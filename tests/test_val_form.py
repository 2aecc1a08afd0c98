"""Validation as a quadratic form of the residual tensor: the package's
scorer against the forward pass over the same rows
(``reference.direct_scorer``), held to ``reference.within_gate``."""

import numpy as np
import pytest

from bmpnet import training
from bmpnet.border import EpsSchedule, train_eps
from bmpnet.scheme import BilinearScheme, init_scheme
from bmpnet.tensor import float_array
from bmpnet.training import (
    Factors, TrainConfig, fourth_moment, gen_dataset, run_streams, scorer,
    train)
from bmpnet.verify import known_strassen
from reference import direct_scorer, within_gate

RANGES = [(-1.0, 1.0), (0.0, 2.0), (-3.0, 1.0)]


def both(n, low, high, count=2000, seed=5):
    val = gen_dataset(n, count, seed, low, high)
    return direct_scorer(val), scorer(n, fourth_moment(val))


def val_set(cfg):
    return gen_dataset(cfg.n, cfg.val_size, run_streams(cfg)["val"],
                       cfg.low, cfg.high)


@pytest.mark.parametrize("low, high", RANGES)
@pytest.mark.parametrize("n, r", [(2, 7), (3, 23)])
def test_random_schemes(n, r, low, high):
    direct, form = both(n, low, high)
    for seed in range(3):
        s = init_scheme(n, r, seed, 1.0)
        assert within_gate(direct(s), form(s))


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
    assert form(strassen()) == 0.0
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
    np.testing.assert_allclose(fourth_moment(val), x.T @ x / count,
                               rtol=1e-13)


def test_border_run_val_and_probe_losses(monkeypatch):
    # every val and probe score of a border run, against the forward pass
    seen = []
    plain = training.scorer

    def recording(n, moment):
        score = plain(n, moment)

        def wrapped(scheme):
            value = score(scheme)
            seen.append((Factors(*(np.array(x) for x in
                                   (scheme.H, scheme.K, scheme.F))), value))
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
