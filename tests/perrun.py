"""Reference for the stacked training engine: the per-run loop it
replaced, one run at a time, with its own 2-D forward, loss, gradient,
global-norm clipping and per-array Adam, a validated scheme built after
every update, and the border trainer's eps evaluation and chain rule one
coefficient matrix at a time.  Validation goes through the package's
scorer, as in the engine; its forward-pass reference is
``reference.direct_scorer``.
Tests train the same configs both ways and demand bitwise equality
(:func:`assert_same_run`); nothing here is used by the package."""

import math

import numpy as np

from bmpnet.border import EpsScheme, init_eps_scheme
from bmpnet.scheme import BilinearScheme, NonFiniteEntries, init_scheme
from bmpnet.training import (
    TrainingDiverged, fourth_moment, gen_dataset, mix64, run_streams,
    scorer, shuffle_seed)


def forward_fast_batch(scheme, a_rows, b_rows):
    return (a_rows.dot(scheme.H) * b_rows.dot(scheme.K)).dot(scheme.F)


def mse(pred_rows, target_rows):
    diff = pred_rows - target_rows
    return float(np.mean(np.sum(diff * diff, axis=-1)))


def grad_analytic(scheme, a_rows, b_rows, target_rows):
    count = a_rows.shape[0]
    u = a_rows.dot(scheme.H)
    w = b_rows.dot(scheme.K)
    m = u * w
    err = 2.0 * (m.dot(scheme.F) - target_rows) / count
    d_f = m.T.dot(err)
    g = err.dot(scheme.F.T)
    d_h = a_rows.T.dot(g * w)
    d_k = b_rows.T.dot(g * u)
    return d_h, d_k, d_f


def clip_gradients(grads, threshold):
    total = 0.0
    for g in grads:
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm <= threshold or norm == 0.0:
        return tuple(grads)
    scale = threshold / norm
    return tuple(np.asarray(g) * scale for g in grads)


def init_adam(params):
    zeros = tuple(np.zeros_like(np.asarray(p, dtype=np.float64))
                  for p in params)
    return 0, zeros, tuple(z.copy() for z in zeros)


def adam_update(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    step, ms, vs = state
    t = step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, ms, vs):
        g = np.asarray(g, dtype=np.float64)
        m1 = beta1 * m + (1.0 - beta1) * g
        v1 = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m1 / (1.0 - beta1 ** t)
        v_hat = v1 / (1.0 - beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m1)
        new_v.append(v1)
    return tuple(new_params), (t, tuple(new_m), tuple(new_v))


def adam_step(state, scheme, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    params, state = adam_update(state, (scheme.H, scheme.K, scheme.F),
                                grads, lr, beta1, beta2, eps)
    return BilinearScheme(n=scheme.n, r=scheme.r, H=params[0], K=params[1],
                          F=params[2]), state


def evaluate(es, eps=None):
    eps = es.eps if eps is None else eps

    def poly(coeffs, powers):
        acc = None
        for mat, p in zip(coeffs, powers):
            term = mat * (eps ** p)
            acc = term if acc is None else acc + term
        return acc

    combo = range(es.d_max + 1)
    return BilinearScheme(es.n, es.r, poly(es.h_coeffs, combo),
                          poly(es.k_coeffs, combo),
                          poly(es.f_coeffs, range(es.f_min, es.d_max + 1)))


def coefficient_grads(es, d_h, d_k, d_f, eps):
    combo = range(es.d_max + 1)
    return tuple([d_h * (eps ** p) for p in combo]
                 + [d_k * (eps ** p) for p in combo]
                 + [d_f * (eps ** p) for p in range(es.f_min, es.d_max + 1)])


def batch_slices(perm, batch_size):
    for start in range(0, len(perm), batch_size):
        yield perm[start:start + batch_size]


def fit(cfg, init, step, epoch_end,
        view=lambda params, epoch: (params, params),
        pull=lambda ctx, grads: grads):
    """One run: returns the last context and both loss lists, or raises
    TrainingDiverged."""
    streams = run_streams(cfg)
    train_set = gen_dataset(cfg.n, cfg.train_size, streams["data"],
                            cfg.low, cfg.high)
    val_set = gen_dataset(cfg.n, cfg.val_size, streams["val"],
                          cfg.low, cfg.high)
    params, state = init(streams["init"])
    a_rows, b_rows, t_rows = train_set.flat()
    score = scorer(cfg.n, fourth_moment(val_set.a, val_set.b))

    train_losses, val_losses = [], []
    for epoch in range(cfg.epochs):
        if cfg.resample and epoch > 0:
            fresh = gen_dataset(cfg.n, cfg.train_size,
                                mix64(streams["data"], epoch),
                                cfg.low, cfg.high)
            a_rows, b_rows, t_rows = fresh.flat()
        perm = np.random.default_rng(
            shuffle_seed(cfg, epoch)).permutation(cfg.train_size)
        sq_err_total = 0.0
        last = (train_losses[-1], val_losses[-1]) if train_losses \
            else (None, None)
        try:
            for idx in batch_slices(perm, cfg.batch_size):
                ab, bb, tb = a_rows[idx], b_rows[idx], t_rows[idx]
                scheme, ctx = view(params, epoch)
                batch_loss = mse(forward_fast_batch(scheme, ab, bb), tb)
                if not math.isfinite(batch_loss):
                    raise TrainingDiverged(epoch, *last)
                grads = pull(ctx, grad_analytic(scheme, ab, bb, tb))
                grads = clip_gradients(grads, cfg.clip_threshold)
                params, state = step(state, params, grads, cfg.lr,
                                     cfg.beta1, cfg.beta2, cfg.adam_eps)
                sq_err_total += batch_loss * len(idx)
            scheme, ctx = view(params, epoch)
        except NonFiniteEntries:
            raise TrainingDiverged(epoch, *last) from None
        train_loss = float(sq_err_total / cfg.train_size)
        if not math.isfinite(train_loss):
            raise TrainingDiverged(epoch, *last)
        train_losses.append(train_loss)
        val_losses.append(score(scheme))
        epoch_end(epoch, ctx, train_losses[-1], val_losses[-1], score)
    return ctx, train_losses, val_losses


def train(cfg):
    """(scheme, train losses, val losses) of one run."""

    def init(seed):
        scheme = init_scheme(cfg.n, cfg.r, seed, cfg.alpha)
        return scheme, init_adam((scheme.H, scheme.K, scheme.F))

    return fit(cfg, init, adam_step, lambda *args: None)


def train_eps(cfg, schedule, d_max, f_min, probe_eps):
    """(eps scheme, train, val and probe losses) of one border run."""
    n_h = d_max + 1
    probes = []

    def init(seed):
        es = init_eps_scheme(cfg.n, cfg.r, seed, cfg.alpha, d_max=d_max,
                             f_min=f_min, eps=schedule.eps0)
        params = tuple(es.h_coeffs + es.k_coeffs + es.f_coeffs)
        return params, init_adam(params)

    def view(params, epoch):
        es = EpsScheme(n=cfg.n, r=cfg.r, d_max=d_max, f_min=f_min,
                       h_coeffs=list(params[:n_h]),
                       k_coeffs=list(params[n_h:2 * n_h]),
                       f_coeffs=list(params[2 * n_h:]),
                       eps=schedule.at(epoch))
        return evaluate(es), es

    def pull(es, grads):
        return coefficient_grads(es, *grads, es.eps)

    def epoch_end(epoch, es, train_loss, val_loss, score):
        probes.append(score(evaluate(es, probe_eps)))

    es, train_losses, val_losses = fit(cfg, init, adam_update, epoch_end,
                                       view, pull)
    return es, train_losses, val_losses, probes


def bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def assert_same_run(rec, ref):
    """A record equals (scheme, train losses, val losses) bit for bit."""
    scheme, train_losses, val_losses = ref
    for name in "HKF":
        assert bits(getattr(rec.scheme, name)) == \
            bits(getattr(scheme, name)), name
    assert bits(rec.train_losses) == bits(train_losses)
    assert bits(rec.val_losses) == bits(val_losses)
