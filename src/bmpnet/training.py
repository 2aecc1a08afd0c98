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
import operator
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce

import numpy as np

from .scheme import (
    BilinearScheme, init_scheme, residual_matrix, scheme_to_json)
# imported only for perfbench/tracing.py, which wraps it in this module
from .scheme import forward_fast_batch  # noqa: F401
from .tensor import ShapeMismatch

# the ufuncs of a training step, looked up once
_add, _sub, _mul, _div, _sqrt, _matmul = (
    np.add, np.subtract, np.multiply, np.divide, np.sqrt, np.matmul)
_sum = np.add.reduce


class LengthMismatch(ValueError):
    """Prediction and target collections differ in shape."""


class ConfigError(ValueError):
    """A hyperparameter, rank list or schedule is out of its range."""


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


def draw_operands(n, count, seed, low=-1.0, high=1.0):
    """Draw ``count`` operand pairs entrywise uniform on [low, high]:
    all of A first, then all of B, each (count, n, n)."""
    if count < 1:
        raise ConfigError("dataset size must be positive")
    if not low < high:
        raise ConfigError("need low < high for the sampling range")
    rng = np.random.default_rng(seed)
    return (rng.uniform(low, high, (count, n, n)),
            rng.uniform(low, high, (count, n, n)))


def gen_dataset(n, count, seed, low=-1.0, high=1.0):
    """(count, n^2) rows of A, B and AB, the pairs of :func:`draw_operands`.

    Targets come from the plain triple-loop product written out below,
    so they do not depend on any library multiplication routine.
    """
    a, b = draw_operands(n, count, seed, low, high)
    prod = np.zeros((count, n, n))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                prod[:, i, k] += a[:, i, j] * b[:, j, k]
    return tuple(x.reshape(count, n * n) for x in (a, b, prod))


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


class GradBuffers:
    """The temporaries of :func:`grad_analytic` for batches of ``count``
    rows of ``runs`` runs, allocated once with the views it reads of
    them: U and W as one (2, *runs, count, r) array with its two rows and
    their reversal, M with its transpose, the residual, G, the 0-d
    count / 2, and the last F seen with its transpose.  F is read
    through a view of its block, so one transpose serves every step that
    passes the same F."""

    __slots__ = ("uw", "u", "w", "wu", "m", "m_t", "diff", "g", "half",
                 "f", "f_t")

    def __init__(self, runs, count, m, r):
        self.uw = np.empty((2,) + runs + (count, r))
        self.u, self.w, self.wu = self.uw[0], self.uw[1], self.uw[::-1]
        self.m = np.empty(runs + (count, r))
        self.m_t = self.m.mT
        self.diff = np.empty(runs + (count, m))
        self.g = np.empty_like(self.m)
        self.half = np.array(count * 0.5)
        self.f = self.f_t = None


def grad_analytic(hk, f, ab_rows, target_rows, out, ws):
    """The squared errors of one batch's forward pass and the closed-form
    gradients of their :func:`mse` loss, as ``(sq_err, (dHK, dF))``.
    ``hk`` holds H and K as one (2, ..., n^2, r) array and ``ab_rows``
    the operand rows A and B as one (2, ..., count, n^2) array; F, the
    target rows and both of them may carry a leading run axis.  ``out``
    holds the three arrays written: two shaped as ``hk`` and F for the
    gradients, and one shaped as the target rows for the squared errors,
    which may be the target rows themselves.  ``ws``, the
    :class:`GradBuffers` of the batch size, holds every temporary.

    With U = A H, W = B K, M = U * W, V = M F and E = 2 (V - T) / count:
    the squared errors are (V - T)^2, their sum over the last two axes
    divided by count is mse(V, T), dF = M^T E, and with G = E F^T,
    dH = A^T (G * W) and dK = B^T (G * U).  U and W are one batched
    product, and so are dH and dK.
    """
    d_hk, d_f, sq_err = out
    if f is not ws.f:
        ws.f, ws.f_t = f, f.mT
    _matmul(ab_rows, hk, ws.uw)
    m, diff, wu = _mul(ws.u, ws.w, ws.m), ws.diff, ws.wu
    _sub(_matmul(m, f, diff), target_rows, diff)
    sq_err = _mul(diff, diff, sq_err)
    # 2 d and count / 2 are exact, so this rounds 2 d / count once
    _div(diff, ws.half, diff)
    d_f = _matmul(ws.m_t, diff, d_f)
    _mul(_matmul(diff, ws.f_t, ws.g), wu, wu)
    return sq_err, (_matmul(ab_rows.mT, wu, d_hk), d_f)


def epoch_loss(sq_err, batch_size):
    """Per run, the sample mean of an epoch's batch losses, from the
    squared errors (R, count, m) of its consecutive batches.  Each batch
    loss is the :func:`mse` of its batch bit for bit: the row sums of a
    batch are one contiguous run, reduced by the same pairwise sum as the
    batch alone.  The batch losses times their sizes are then summed in
    batch order, which a pairwise sum over the batches would not do."""
    rows = np.add.reduce(sq_err, axis=-1)
    runs, count = rows.shape
    full = count - count % batch_size
    losses = [np.add.reduce(rows[:, :full].reshape(runs, -1, batch_size),
                            axis=-1) / batch_size]
    if full < count:
        losses.append(np.add.reduce(rows[:, full:], axis=-1, keepdims=True)
                      / (count - full))
    losses = np.concatenate(losses, axis=-1)
    sizes = np.minimum(batch_size, count - np.arange(0, count, batch_size))
    return np.add.accumulate(losses * sizes, axis=-1)[:, -1] / count


def fourth_moment(a, b):
    """The m^2 x m^2 mean of x x^T over operand pairs, where x is the
    Kronecker product of the flattened operands a and b (m = n^2).  It
    is summed 1,024 rows at a time, each chunk of x written into one
    buffer reused across chunks, so no (count, m^2) array of all the x
    exists at once.  ``einsum`` writes each zero product as +0 whatever
    its sign; the total, which starts at +0, cannot show the sign."""
    a_rows, b_rows = (x.reshape(len(x), -1) for x in (a, b))
    (count, m), chunk = a_rows.shape, 1024
    total = np.zeros((m * m, m * m))
    buf = np.empty((min(chunk, count), m, m))
    for start in range(0, count, chunk):
        a_chunk = a_rows[start:start + chunk]
        x = np.einsum("ti,tj->tij", a_chunk, b_rows[start:start + chunk],
                      out=buf[:len(a_chunk)]).reshape(-1, m * m)
        total += x.T @ x
    return total / count


def scorer(moment):
    """``score(scheme)``: the :func:`mse` of any scheme's factors H, K,
    F over the rows whose :func:`fourth_moment` is ``moment``, without
    the rows.  A row's error is x^T D, with D the residual of the scheme
    against the structure tensor T as an (m^2, m) matrix, so the mean is
    the sum of D * (moment D), whatever the layout of the output index.

    The factors and ``moment`` may carry a leading run axis, and then the
    score holds one value per run.  D is :func:`residual_matrix`, whose
    runs are each the same matrix products as alone, so a run scores
    bitwise the same in any stack."""
    def score(scheme):
        d = residual_matrix(scheme.H, scheme.K, scheme.F)
        val = np.add.reduce((d * (moment @ d)).reshape(d.shape[:-2] + (-1,)),
                            axis=-1)
        return float(val) if val.ndim == 0 else val
    return score


def _run_norms(sums):
    """Each run's norm as a Python float from the (R, A) sums of squares
    of its arrays: summed over the A arrays left to right in plain float
    additions (which ``sum`` is not from Python 3.12 on), then one
    correctly rounded root."""
    return [math.sqrt(reduce(operator.add, run)) for run in sums.tolist()]


class Workspace:
    """What one stack's step writes, allocated once for (R, A, P) blocks
    shaped as ``params``.  Adam's moments m and v are the two rows of one
    (2, R, A, P) block, and the gradient g and its squares the two rows of
    a second, so each moment update is one call over both.  Next to them:
    the step count, a (2, R, A, P) scratch block, the last
    hyperparameters with their constants (beta1 and beta2 as the rows of
    one full block, 1 - beta1 and 1 - beta2 as the rows of another, lr
    and eps 0-d), the 0-d bias corrections, the clipping's per-array sums
    and per-run 0-d scales, and the :class:`GradBuffers` of each batch
    size.  A threshold, if given, is checked here, once.  ``squared`` is
    the gradient block whose squares ``squares`` holds, set by a
    :func:`clip_gradients` that scaled no run, so the next
    :func:`adam_update` of that block reads g^2 there."""

    def __init__(self, params, threshold=None):
        if threshold is not None and not threshold > 0:
            raise ConfigError("clip threshold must be positive")
        shape = (2,) + np.shape(params)
        self.step, self.moments = 0, np.zeros(shape)
        self.m, self.v = self.moments
        self.gradients = np.empty(shape)
        self.grads, self.squares = self.gradients
        self.terms = np.empty(shape)
        self.s, self.q = self.terms
        self.hyper = None
        self.decay, self.gain = np.empty(shape), np.empty(shape)
        self.rate, self.floor = np.empty(()), np.empty(())
        self.fix1, self.fix2 = np.empty(()), np.empty(())
        self.squared = None
        self.sums = np.empty(shape[1:-1])
        self.scales = [np.empty(()) for _ in range(shape[1])]
        self.grad = {}

    def gradient(self, n, r, count):
        """The stack's :class:`GradBuffers` for batches of ``count`` rows
        at n and r, made on first use."""
        if count not in self.grad:
            self.grad[count] = GradBuffers(self.m.shape[:-2], count,
                                           n * n, r)
        return self.grad[count]


def clip_gradients(grads, threshold, ws):
    """Rescale each run's gradient block (R, A, P) in place onto the ball
    of its :func:`_run_norms` norm; returns the block.  A run whose
    norm is at most the threshold is left unwritten (so at an infinite
    threshold every finite or infinite norm passes), any other is
    multiplied by its own 0-d scale threshold / norm, so a NaN norm gives
    NaN to its own run alone.  The squares are written into the
    :class:`Workspace` ``ws``, made for ``grads``."""
    squares = _mul(grads, grads, ws.squares)
    norms = _run_norms(_sum(squares, -1, None, ws.sums))
    ws.squared = grads
    for run, norm in enumerate(norms):
        if not norm <= threshold:
            scale, rows = ws.scales[run], grads[run]
            scale[()] = threshold / norm
            _mul(rows, scale, rows)
            ws.squared = None
    return grads


def init_adam_params(params):
    """Zero Adam state for a parameter block: a :class:`Workspace`."""
    return Workspace(params)


def adam_update(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of a float64 parameter block, such as a stack's
    (R, A, P) block, in place in ``params`` and the :class:`Workspace`
    ``state``, with the operations of m = beta1 m + (1 - beta1) g, v =
    beta2 v + (1 - beta2) g^2, params - (lr m / (1 - beta1^t)) /
    (sqrt(v / (1 - beta2^t)) + eps).  m and v are updated together, as
    the rows of one block, from g and g^2, the rows of another: gradients
    other than the workspace's own row are copied into it first, and
    g^2 is the squares of a :func:`clip_gradients` that left ``grads`` as
    they were, or else squared here.  The constant blocks and 0-d
    constants are kept in the state until the hyperparameters change,
    and both bias corrections are 0-d."""
    state.step = t = state.step + 1
    if (lr, beta1, beta2, eps) != state.hyper:
        state.hyper = lr, beta1, beta2, eps
        state.decay[0], state.decay[1] = beta1, beta2
        state.gain[0], state.gain[1] = 1.0 - beta1, 1.0 - beta2
        state.rate[()], state.floor[()] = lr, eps
    g, moments, s, q, fix1, fix2 = (state.grads, state.moments, state.s,
                                    state.q, state.fix1, state.fix2)
    if grads is not g:
        np.copyto(g, grads)
    if state.squared is not grads:
        _mul(g, g, state.squares)
    state.squared = None
    _mul(moments, state.decay, moments)
    _add(moments, _mul(state.gradients, state.gain, state.terms), moments)
    fix1[()], fix2[()] = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    _div(state.m, fix1, s)
    _sqrt(_div(state.v, fix2, q), q)
    _div(_mul(s, state.rate, s), _add(q, state.floor, q), s)
    _sub(params, s, params)


# the names perfbench/tracing.py times the update under
init_adam, adam_step = init_adam_params, adam_update


@dataclass(kw_only=True)
class RunOptions:
    """The hyperparameters every run of a rank sweep shares: the fields
    of both :class:`TrainConfig` and ``experiment.SweepConfig``."""

    epochs: int = 60
    batch_size: int = 32
    lr: float = 1e-3
    clip_threshold: float = 10.0
    train_size: int = 10000
    val_size: int = 10000
    alpha: float = 1.0
    low: float = -1.0
    high: float = 1.0
    # by default one fixed training set, reshuffled per epoch
    resample: bool = False


@dataclass
class TrainConfig(RunOptions):
    """Hyperparameters of one training run."""

    n: int
    r: int
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ShapeMismatch("n and r must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be positive")
        if self.train_size < 1 or self.val_size < 1:
            raise ConfigError("dataset sizes must be positive")
        if self.batch_size > self.train_size:
            raise ConfigError("batch size exceeds the training set")
        if not np.isfinite([self.lr, self.alpha, self.low, self.high]).all():
            raise ConfigError("lr, alpha, low and high must be finite")
        if not self.low < self.high:
            raise ConfigError("need low < high for the sampling range")
        if not (self.lr > 0 and self.clip_threshold > 0 and self.alpha > 0):
            raise ConfigError("lr, clip threshold and alpha must be > 0")

    def to_json(self):
        return asdict(self)


@dataclass
class RunRecord:
    """Everything one run produced.  ``wall_seconds`` is the run's share
    of its stack's training time, the stack's wall time divided by the
    number of runs in it, so the sum over a sweep's records is the
    sweep's training time.  It stays out of the JSON, so identical
    seeds give identical files."""

    config: TrainConfig
    train_losses: list
    val_losses: list
    scheme: BilinearScheme
    wall_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def final_val_loss(self):
        return self.val_losses[-1]

    def to_json(self):
        out = {
            "config": self.config.to_json(),
            "train_losses": list(self.train_losses),
            "val_losses": list(self.val_losses),
            "final_val_loss": self.final_val_loss,
            "scheme": scheme_to_json(self.scheme),
        }
        for key, val in self.extras.items():
            out[key] = val
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


class TrainingDiverged(ArithmeticError):
    """A batch or epoch mean loss, or a scheme at an epoch's end, stopped
    being finite.  Carries the epoch, the last finite per-epoch train and val
    losses (None within the first epoch) and, from ``losses``, the lists
    of all of them (``train_losses`` and ``val_losses``)."""

    def __init__(self, epoch, train_loss, val_loss, losses=((), ())):
        super().__init__(epoch, train_loss, val_loss)
        self.epoch, self.train_loss, self.val_loss = self.args
        self.train_losses, self.val_losses = map(list, losses)

    def __str__(self):
        return ("training diverged in epoch %d: non-finite loss or "
                "parameters (last finite losses: train %s, val %s)"
                % self.args)


class Factors:
    """H, K and F of a stack of runs, each with a leading run axis: what
    :func:`grad_analytic` reads of a scheme, and a :func:`scorer` of one.
    H and K are the two rows of one (2, ..., n^2, r) array ``HK``, which
    ``Factors(H, K, F)`` stacks and :meth:`of_block` views."""

    def __init__(self, H, K, F):
        self.HK, self.F = np.stack((H, K)), F

    H = property(lambda self: self.HK[0])
    K = property(lambda self: self.HK[1])

    def __iter__(self):
        return iter((self.H, self.K, self.F))

    @classmethod
    def of_block(cls, block, n, r):
        """H, K and F as views of a factor block (3, ..., n^2 r) that
        holds them flattened along its first axis."""
        m, runs = n * n, block.shape[1:-1]
        factors = cls.__new__(cls)
        factors.HK = block[:2].reshape((2,) + runs + (m, r))
        factors.F = block[2].reshape(runs + (r, m))
        return factors


def fit(cfgs, init, epoch_end, view=None, pull=None):
    """The training loop of :func:`train_stack` and ``border.train_eps``:
    R runs whose configs differ only in the seed, stepped as one stack.

    ``init(seed)`` gives one run's A parameter arrays of n^2 r entries
    each; the parameters, both Adam moments and the gradient live in
    (R, A, n^2 r) float64 blocks.  ``view(params, epoch)`` maps the
    parameter block to the :class:`Factors` the loss is taken at, and
    ``pull(grads, out, epoch)`` writes the gradient block ``out`` from
    their gradients ``grads``, a (3, R, n^2 r) block of dH, dK and dF
    flattened; by default the A = 3 arrays are H, K and F, and the
    factors and their gradients are views of the blocks.  A step takes
    one forward pass for the gradients, clips per run and makes one Adam
    update, all in place, with every temporary in the stack's one
    :class:`Workspace`, so a step allocates no buffer.  Data, shuffles and
    validation sets stay per run; the stack's rows of A, B and the
    products live in one (3, R count, n^2) array, an epoch gathers them
    once into one (3, R, count, n^2) array made before the first, and
    its batches are slices of that, made once with it.  The forward pass
    writes its squared errors over the batch's target rows, which no
    later step reads.  Per epoch, after the updates, a run's train loss
    is the exact sample mean of its batch losses, summed from those
    squared errors (:func:`epoch_loss`), and one call of the stack's
    :func:`scorer` scores every run, as each run scores bitwise the same
    in any stack; a diverged run's score is never read.  Then
    ``epoch_end(run, epoch, arrays, train_loss, val_loss, score)`` runs
    for every run still going, with views of the run's parameter arrays
    and ``score(scheme)``, any scheme's val loss on the run's validation
    set (a :func:`scorer`).

    Returns, per run, its parameter arrays and both loss lists, or the
    :class:`TrainingDiverged` it raised: a non-finite epoch mean (as any
    non-finite batch loss makes it), or non-finite factors, stops a run
    at the end of the epoch, and the other runs go on untouched.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ConfigError("runs of a stack may differ only in the seed")
    streams = [run_streams(c) for c in cfgs]

    moments = np.stack([fourth_moment(*draw_operands(
        cfg.n, cfg.val_size, s["val"], cfg.low, cfg.high)) for s in streams])
    scores = [scorer(moment) for moment in moments]
    first = [init(s["init"]) for s in streams]
    if any(np.size(a) != cfg.n * cfg.n * cfg.r for run in first for a in run):
        raise ShapeMismatch("every parameter array needs n^2 r entries")
    params = np.array([[np.ravel(a) for a in run] for run in first],
                      dtype=np.float64)
    ws = Workspace(params, cfg.clip_threshold)
    # the gradient block is the workspace's own row, which Adam reads
    grads = ws.grads

    param_arrays = [params[:, i].reshape((len(params),) + np.shape(a))
                    for i, a in enumerate(first[0])]
    own = Factors.of_block(params.swapaxes(0, 1), cfg.n, cfg.r) \
        if view is None else None
    if pull is None:
        grad_out = Factors.of_block(grads.swapaxes(0, 1), cfg.n, cfg.r)
    else:
        factor_grads = np.empty((3, len(cfgs), cfg.n * cfg.n * cfg.r))
        grad_out = Factors.of_block(factor_grads, cfg.n, cfg.r)
    runs = range(len(cfgs))
    size, batch = cfg.train_size, cfg.batch_size
    data = np.empty((3, len(cfgs) * size, cfg.n * cfg.n))
    # row offset of each run in the stack's rows
    offsets = size * np.arange(len(cfgs))[:, None]
    # each epoch gathers the stack's rows into this one array, so every
    # batch is a view made here, with its outputs and buffers
    rows = np.empty((3, len(cfgs), size, cfg.n * cfg.n))
    batches = []
    for start in range(0, size, batch):
        ab, tb = (rows[:2, :, start:start + batch],
                  rows[2, :, start:start + batch])
        batches.append((ab, tb, (grad_out.HK, grad_out.F, tb),
                        ws.gradient(cfg.n, cfg.r, tb.shape[-2])))
    hk, f = (None, None) if own is None else (own.HK, own.F)
    lr, beta1, beta2, eps, threshold = (
        cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.clip_threshold)
    train_losses = [[] for _ in runs]
    val_losses = [[] for _ in runs]
    failed = [None for _ in runs]
    score_stack = scorer(moments)

    for epoch in range(cfg.epochs):
        if epoch == 0 or cfg.resample:
            # by default one fixed training set, a fresh one per epoch
            # with resampling
            for run, s in enumerate(streams):
                data[:, run * size:(run + 1) * size] = gen_dataset(
                    cfg.n, size, mix64(s["data"], epoch) if epoch
                    else s["data"], cfg.low, cfg.high)
        perm = offsets + np.stack([
            np.random.default_rng(shuffle_seed(c, epoch))
            .permutation(size) for c in cfgs])
        # every index is in range, and "clip" writes without a buffer
        data.take(perm, axis=1, out=rows, mode="clip")
        # a diverging run overflows quietly; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for ab, tb, out, buffers in batches:
                if view is not None:
                    factors = view(params, epoch)
                    hk, f = factors.HK, factors.F
                grad_analytic(hk, f, ab, tb, out, buffers)
                if pull is not None:
                    pull(factor_grads, grads, epoch)
                clip_gradients(grads, threshold, ws)
                adam_update(ws, params, grads, lr, beta1, beta2, eps)
            train_loss = epoch_loss(rows[2], batch)
        factors = own if view is None else view(params, epoch)
        finite = np.logical_and.reduce(
            [np.isfinite(train_loss)]
            + [np.isfinite(f).all(axis=(-2, -1)) for f in factors])
        for run in runs:
            if failed[run] is None and not finite[run]:
                curves = (train_losses[run], val_losses[run])
                failed[run] = TrainingDiverged(epoch, *(
                    c[-1] if c else None for c in curves), curves)
        live = [run for run in runs if failed[run] is None]
        if not live:
            return failed
        # a diverged run's factors overflow quietly; its score is not read
        with np.errstate(over="ignore", invalid="ignore"):
            vals = score_stack(factors)
        for run in live:
            train_losses[run].append(float(train_loss[run]))
            val_losses[run].append(float(vals[run]))
            epoch_end(run, epoch, [a[run] for a in param_arrays],
                      train_losses[run][-1], val_losses[run][-1],
                      scores[run])
    return [failed[run] or ([np.array(a[run]) for a in param_arrays],
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
