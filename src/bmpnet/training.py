"""Gradient training of bilinear schemes on random matrix pairs.

The loss is the mean over samples of the squared Euclidean error of the
predicted product vector.  Gradients come in closed form from the batch
loss's forward pass, updates are Adam with global-norm clipping across
all three factors of a run jointly, and validation is a quadratic form
of the residual tensor.  Runs that differ only in their seed train as
one stack, with a leading run axis on every array; every random draw is
derived from the run's seed through a fixed mixing function, so each
record reproduces bitwise, alone or in any stack.
"""

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .scheme import BilinearScheme, init_scheme, reconstruct, scheme_to_json
# imported only for perfbench/tracing.py, which wraps it in this module
from .scheme import forward_fast_batch  # noqa: F401
from .tensor import ShapeMismatch, matmul_tensor


class LengthMismatch(ValueError):
    """Prediction and target collections differ in shape."""


_MASK64 = (1 << 64) - 1

# role tags for deriving independent streams from one run seed
_TAG_INIT = 1
_TAG_DATA = 2
_TAG_VAL = 3
_TAG_SHUFFLE = 4


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(*parts):
    """Fold integers into one 64-bit seed; order-sensitive, collision
    resistant enough for seed derivation."""
    x = 0
    for p in parts:
        x = _splitmix64(x ^ (int(p) & _MASK64))
    return x


@dataclass
class Dataset:
    """Random operand pairs with their true products."""

    n: int
    a: np.ndarray
    b: np.ndarray
    prod: np.ndarray

    def flat(self):
        """Row-major flattened views: (count, n^2) each for a, b, prod."""
        m = self.n * self.n
        count = self.a.shape[0]
        return (self.a.reshape(count, m), self.b.reshape(count, m),
                self.prod.reshape(count, m))


def gen_dataset(n, count, seed, low=-1.0, high=1.0):
    """Draw ``count`` operand pairs entrywise uniform on [low, high]
    (all of A first, then all of B) and compute their products.

    Targets come from the plain triple-loop product written out below,
    so they do not depend on any library multiplication routine.
    """
    if count < 1:
        raise ShapeMismatch("dataset size must be positive")
    if not low < high:
        raise ShapeMismatch("need low < high for the sampling range")
    rng = np.random.default_rng(seed)
    a = rng.uniform(low, high, (count, n, n))
    b = rng.uniform(low, high, (count, n, n))
    prod = np.zeros((count, n, n))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                prod[:, i, k] += a[:, i, j] * b[:, j, k]
    return Dataset(n=n, a=a, b=b, prod=prod)


def mse(pred_rows, target_rows):
    """Mean over samples of the squared Euclidean error per sample; with
    a leading run axis, one mean per run."""
    pred_rows = np.asarray(pred_rows, dtype=np.float64)
    target_rows = np.asarray(target_rows, dtype=np.float64)
    if pred_rows.shape != target_rows.shape:
        raise LengthMismatch(
            "prediction shape %s vs target shape %s"
            % (pred_rows.shape, target_rows.shape))
    diff = pred_rows - target_rows
    out = (diff * diff).sum(axis=-1).sum(axis=-1) / diff.shape[-2]
    return float(out) if out.ndim == 0 else out


def grad_analytic(scheme, a_rows, b_rows, target_rows):
    """The :func:`mse` loss on one batch and its closed-form gradients,
    as ``(loss, (dH, dK, dF))``; the factors and the rows may carry a
    leading run axis, and then the loss holds one value per run.

    With U = A H, W = B K, M = U * W, V = M F and E = 2 (V - T) / count:
    the loss is mse(V, T), dF = M^T E, and with G = E F^T,
    dH = A^T (G * W), dK = B^T (G * U).
    """
    a_rows = np.asarray(a_rows, dtype=np.float64)
    b_rows = np.asarray(b_rows, dtype=np.float64)
    target_rows = np.asarray(target_rows, dtype=np.float64)
    count = a_rows.shape[-2]
    u = a_rows @ scheme.H
    w = b_rows @ scheme.K
    m = u * w
    pred = m @ scheme.F
    err = 2.0 * (pred - target_rows) / count
    d_f = m.mT @ err
    g = err @ scheme.F.mT
    d_h = a_rows.mT @ (g * w)
    d_k = b_rows.mT @ (g * u)
    return mse(pred, target_rows), (d_h, d_k, d_f)


def fourth_moment(data):
    """The m^2 x m^2 mean of x x^T over a dataset's rows, where x is the
    Kronecker product of the flattened operands a and b (m = n^2).  It
    is summed 1,024 rows at a time, so no (count, m^2) array of all the
    x exists at once."""
    a_rows, b_rows, _ = data.flat()
    (count, m), chunk = a_rows.shape, 1024
    total = np.zeros((m * m, m * m))
    for start in range(0, count, chunk):
        x = (a_rows[start:start + chunk, :, None]
             * b_rows[start:start + chunk, None, :]).reshape(-1, m * m)
        total += x.T @ x
    return total / count


def scorer(n, moment):
    """``score(scheme)``: the :func:`mse` of any scheme's factors H, K,
    F over the rows whose :func:`fourth_moment` is ``moment``, without
    the rows.  A row's error is x^T D, with D = reconstruct - T as an
    (m^2, m) matrix, so the mean is the sum of D * (moment D), whatever
    the layout of the output index."""
    target = matmul_tensor(n, n, n)

    def score(scheme):
        scheme = BilinearScheme(n, len(scheme.F), scheme.H, scheme.K, scheme.F)
        d = (reconstruct(scheme) - target).reshape(len(moment), -1)
        return float((d * (moment @ d)).sum())
    return score


def global_norm(grads):
    """Euclidean norm over all gradient entries of each run jointly, one
    norm per run along the leading run axis; the squared sums are added
    array by array, in the order given."""
    total = 0.0
    for g in grads:
        g = np.asarray(g, dtype=np.float64).reshape(len(g), -1)
        total = total + (g * g).sum(axis=1)
    return np.sqrt(total)


def clip_gradients(grads, threshold):
    """Rescale each run's gradients onto the ball of the given global
    norm; runs below the threshold pass through untouched, and when no
    run is above it the inputs are returned as they are."""
    if threshold <= 0:
        raise ShapeMismatch("clip threshold must be positive")
    norm = global_norm(grads)
    if (norm <= threshold).all():
        return tuple(grads)
    # threshold / threshold is exactly 1, and x * 1 is x
    scale = threshold / np.maximum(norm, threshold)
    return tuple(np.asarray(g) * scale.reshape((-1,) + (1,) * (g.ndim - 1))
                 for g in grads)


@dataclass
class AdamState:
    """First and second moment accumulators plus the step counter."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam_params(params):
    """Zero Adam state for a parameter array."""
    zeros = np.zeros_like(np.asarray(params, dtype=np.float64))
    return AdamState(step=0, m=zeros, v=zeros.copy())


def adam_update(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of a parameter array, entry by entry, such as a
    stack's flat (R, P) parameters; returns the new array and state,
    inputs are left untouched."""
    t = state.step + 1
    g = np.asarray(grads, dtype=np.float64)
    m1 = beta1 * state.m + (1.0 - beta1) * g
    v1 = beta2 * state.v + (1.0 - beta2) * (g * g)
    m_hat = m1 / (1.0 - beta1 ** t)
    v_hat = v1 / (1.0 - beta2 ** t)
    return (params - lr * m_hat / (np.sqrt(v_hat) + eps),
            AdamState(step=t, m=m1, v=v1))


def _flat(arrays):
    """Arrays with a common leading axis, laid back to back along one."""
    return np.concatenate([np.asarray(a).reshape(len(a), -1)
                           for a in arrays], axis=1)


def _split(flat, shapes):
    """Views of :func:`_flat`'s pieces, each with the leading axis."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[:, start:start + size].reshape((len(flat),) + shape))
        start += size
    return tuple(out)


def _flat_one(arrays):
    return _flat([np.asarray(a)[None] for a in arrays])


def init_adam(scheme):
    """Zero Adam state for a scheme, in :func:`adam_step`'s layout."""
    return init_adam_params(_flat_one((scheme.H, scheme.K, scheme.F)))


def adam_step(state, scheme, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of a scheme's three factors, laid back to back as
    a stack of one; returns the new scheme and state."""
    params = _flat_one((scheme.H, scheme.K, scheme.F))
    new, state = adam_update(state, params, _flat_one(grads), lr,
                             beta1, beta2, eps)
    shapes = (scheme.H.shape, scheme.K.shape, scheme.F.shape)
    H, K, F = (a[0] for a in _split(new, shapes))
    return BilinearScheme(n=scheme.n, r=scheme.r, H=H, K=K, F=F), state


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    n: int
    r: int
    epochs: int = 60
    batch_size: int = 32
    lr: float = 1e-3
    clip_threshold: float = 10.0
    train_size: int = 10000
    val_size: int = 10000
    alpha: float = 1.0
    seed: int = 0
    low: float = -1.0
    high: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # by default one fixed training set, reshuffled per epoch
    resample: bool = field(default=False, metadata={
        "help": "draw a fresh training set each epoch"})

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ShapeMismatch("n and r must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ShapeMismatch("epochs and batch size must be positive")
        if self.train_size < 1 or self.val_size < 1:
            raise ShapeMismatch("dataset sizes must be positive")
        if self.batch_size > self.train_size:
            raise ShapeMismatch("batch size exceeds the training set")
        if not self.low < self.high:
            raise ShapeMismatch("need low < high for the sampling range")
        if self.lr <= 0 or self.clip_threshold <= 0 or self.alpha <= 0:
            raise ShapeMismatch("lr, clip threshold and alpha must be > 0")

    def to_json(self):
        return asdict(self)


@dataclass
class RunRecord:
    """Everything one run produced.  ``wall_seconds`` is the run's share
    of its stack's training time, the stack's wall time divided by the
    number of runs in it, so the sum over a sweep's records is the
    sweep's training time.  It stays out of the JSON by default so
    identical seeds give identical files."""

    config: TrainConfig
    train_losses: list
    val_losses: list
    scheme: BilinearScheme
    wall_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def final_val_loss(self):
        return self.val_losses[-1]

    def to_json(self, include_timing=False):
        out = {
            "config": self.config.to_json(),
            "train_losses": list(self.train_losses),
            "val_losses": list(self.val_losses),
            "final_val_loss": self.final_val_loss,
            "scheme": scheme_to_json(self.scheme),
        }
        for key, val in self.extras.items():
            out[key] = val
        if include_timing:
            out["wall_seconds"] = self.wall_seconds
        return out


def run_streams(cfg):
    """Derived seeds for the independent random roles of one run."""
    return {
        "init": mix64(cfg.seed, _TAG_INIT),
        "data": mix64(cfg.seed, _TAG_DATA),
        "val": mix64(cfg.seed, _TAG_VAL),
    }


def shuffle_seed(cfg, epoch):
    return mix64(cfg.seed, _TAG_SHUFFLE, epoch)


def batch_slices(perm, batch_size):
    """Index batches in permutation order along the last axis, which
    holds one permutation per run of a stack; the last one may be
    short."""
    for start in range(0, np.shape(perm)[-1], batch_size):
        yield perm[..., start:start + batch_size]


class TrainingDiverged(ArithmeticError):
    """A batch loss, or a scheme at the end of an epoch, stopped being
    finite.  Carries
    the epoch and the last finite per-epoch train and val losses (None
    within the first epoch)."""

    def __init__(self, epoch, train_loss, val_loss):
        super().__init__(epoch, train_loss, val_loss)
        self.epoch, self.train_loss, self.val_loss = self.args

    def __str__(self):
        return ("training diverged in epoch %d: non-finite loss or "
                "parameters (last finite losses: train %s, val %s)"
                % self.args)


class Factors(NamedTuple):
    """H, K and F of a stack of runs, each with a leading run axis: what
    :func:`grad_analytic` reads of a scheme, and a :func:`scorer` of one."""

    H: np.ndarray
    K: np.ndarray
    F: np.ndarray


def fit(cfgs, init, epoch_end,
        view=lambda arrays, epoch: (Factors(*arrays), None),
        pull=lambda ctx, grads: grads):
    """The training loop of :func:`train_stack` and ``border.train_eps``:
    R runs whose configs differ only in the seed, stepped as one stack.

    ``init(seed)`` gives one run's parameter arrays; the stack keeps all
    of them back to back in one float64 (R, P) array.  ``view(arrays,
    epoch)`` maps the parameter arrays, as views with a leading run axis,
    to the :class:`Factors` the loss is taken at and a context, with
    which ``pull(context, grads)`` maps their gradients back to the
    parameter arrays.  A step takes one forward pass over the stack, for
    the losses and the gradients, clips per run and makes one Adam
    update.  Data, shuffles and validation stay per run.  Per epoch, a
    run's train loss is the exact sample mean of its batch losses and its
    val loss is scored after the updates; then ``epoch_end(run, epoch,
    arrays, train_loss, val_loss, score)`` runs, where ``arrays`` are the
    run's parameter arrays and ``score(scheme)`` is any scheme's val loss
    on the run's validation set, a :func:`scorer`.

    Returns, per run, its parameter arrays and both loss lists, or the
    :class:`TrainingDiverged` it raised: a non-finite batch loss, or
    non-finite factors at the end of an epoch, stops that run, and the
    other runs go on untouched.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ShapeMismatch("runs of a stack may differ only in the seed")
    streams = [run_streams(c) for c in cfgs]

    scores = [scorer(cfg.n, fourth_moment(gen_dataset(
        cfg.n, cfg.val_size, s["val"], cfg.low, cfg.high))) for s in streams]
    first = [init(s["init"]) for s in streams]
    shapes = [np.shape(a) for a in first[0]]
    params = _flat([np.stack(group) for group in zip(*first)])
    state = init_adam_params(params)

    runs = range(len(cfgs))
    # row offset of each run in the stacked (R * train_size, n^2) data
    offsets = cfg.train_size * np.arange(len(cfgs))[:, None]
    train_losses = [[] for _ in runs]
    val_losses = [[] for _ in runs]
    failed = [None for _ in runs]

    def diverge(run, epoch):
        last = (train_losses[run][-1], val_losses[run][-1]) \
            if train_losses[run] else (None, None)
        failed[run] = TrainingDiverged(epoch, *last)

    for epoch in range(cfg.epochs):
        if epoch == 0 or cfg.resample:
            # by default one fixed training set, a fresh one per epoch
            # with resampling
            sets = (gen_dataset(cfg.n, cfg.train_size,
                                mix64(s["data"], epoch) if epoch
                                else s["data"], cfg.low, cfg.high).flat()
                    for s in streams)
            data = tuple(np.concatenate(x) for x in zip(*sets))
        perm = offsets + np.stack([
            np.random.default_rng(shuffle_seed(c, epoch))
            .permutation(cfg.train_size) for c in cfgs])
        sq_err_total = np.zeros(len(cfgs))
        for idx in batch_slices(perm, cfg.batch_size):
            ab, bb, tb = (x.take(idx, axis=0) for x in data)
            factors, ctx = view(_split(params, shapes), epoch)
            batch_loss, grads = grad_analytic(factors, ab, bb, tb)
            if not np.isfinite(batch_loss).all():
                for run in np.flatnonzero(~np.isfinite(batch_loss)):
                    if failed[run] is None:
                        diverge(run, epoch)
                if all(failed):
                    return failed
            grads = clip_gradients(pull(ctx, grads), cfg.clip_threshold)
            params, state = adam_update(state, params, _flat(grads), cfg.lr,
                                        cfg.beta1, cfg.beta2, cfg.adam_eps)
            sq_err_total += batch_loss * idx.shape[1]
        arrays = _split(params, shapes)
        factors, _ = view(arrays, epoch)
        for run in runs:
            if failed[run] is not None:
                continue
            scheme = Factors(*(f[run] for f in factors))
            if not all(np.isfinite(f).all() for f in scheme):
                diverge(run, epoch)
                continue
            train_losses[run].append(float(sq_err_total[run]
                                           / cfg.train_size))
            val_losses[run].append(scores[run](scheme))
            epoch_end(run, epoch, [a[run] for a in arrays],
                      train_losses[run][-1], val_losses[run][-1],
                      scores[run])
        if all(failed):
            return failed
    return [failed[run] or ([np.array(a[run]) for a in arrays],
                            train_losses[run], val_losses[run])
            for run in runs]


def train_stack(cfgs, progress=None):
    """Train runs whose configs differ only in the seed as one stack;
    returns, per run in order, its record or the
    :class:`TrainingDiverged` it raised.  Each run is bit-identical to
    training it alone.  ``progress(epoch, train_loss, val_loss)`` is
    called after each epoch of each run.
    """
    started = time.perf_counter()
    cfg = cfgs[0]

    def init(seed):
        scheme = init_scheme(cfg.n, cfg.r, seed, cfg.alpha)
        return scheme.H, scheme.K, scheme.F

    def epoch_end(run, epoch, arrays, train_loss, val_loss, score):
        if progress is not None:
            progress(epoch, train_loss, val_loss)

    outcomes = fit(cfgs, init, epoch_end)
    wall = (time.perf_counter() - started) / len(cfgs)
    return [out if isinstance(out, TrainingDiverged) else RunRecord(
        config=c, train_losses=out[1], val_losses=out[2],
        scheme=BilinearScheme(n=c.n, r=c.r, H=out[0][0], K=out[0][1],
                              F=out[0][2]),
        wall_seconds=wall) for c, out in zip(cfgs, outcomes)]


def train(cfg, progress=None):
    """Run one full training, a stack of one; returns the record with
    per-epoch losses.  ``progress(epoch, train_loss, val_loss)`` is
    called after each epoch.
    """
    (record,) = train_stack([cfg], progress)
    if isinstance(record, TrainingDiverged):
        raise record
    return record
