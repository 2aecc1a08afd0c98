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

import time
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .scheme import BilinearScheme, init_scheme, scheme_to_json
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


def draw_operands(n, count, seed, low=-1.0, high=1.0):
    """Draw ``count`` operand pairs entrywise uniform on [low, high]:
    all of A first, then all of B, each (count, n, n)."""
    if count < 1:
        raise ShapeMismatch("dataset size must be positive")
    if not low < high:
        raise ShapeMismatch("need low < high for the sampling range")
    rng = np.random.default_rng(seed)
    return (rng.uniform(low, high, (count, n, n)),
            rng.uniform(low, high, (count, n, n)))


def gen_dataset(n, count, seed, low=-1.0, high=1.0):
    """The operand pairs of :func:`draw_operands` with their products.

    Targets come from the plain triple-loop product written out below,
    so they do not depend on any library multiplication routine.
    """
    a, b = draw_operands(n, count, seed, low, high)
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


def grad_analytic(scheme, a_rows, b_rows, target_rows, out=None):
    """The :func:`mse` loss on one batch and its closed-form gradients,
    as ``(loss, (dH, dK, dF))``; the factors and the rows may carry a
    leading run axis, and then the loss holds one value per run.  The
    gradients go into ``out``, three arrays shaped as H, K and F, if given.

    With U = A H, W = B K, M = U * W, V = M F and E = 2 (V - T) / count:
    the loss is mse(V, T), dF = M^T E, and with G = E F^T,
    dH = A^T (G * W), dK = B^T (G * U).
    """
    count = a_rows.shape[-2]
    out = (None, None, None) if out is None else out
    u = a_rows @ scheme.H
    w = b_rows @ scheme.K
    m = u * w
    diff = m @ scheme.F - target_rows
    err = 2.0 * diff / count
    d_f = np.matmul(m.mT, err, out=out[2])
    g = err @ scheme.F.mT
    d_h = np.matmul(a_rows.mT, g * w, out=out[0])
    d_k = np.matmul(b_rows.mT, g * u, out=out[1])
    loss = (diff * diff).sum(axis=-1).sum(axis=-1) / count
    return float(loss) if loss.ndim == 0 else loss, (d_h, d_k, d_f)


def fourth_moment(a, b):
    """The m^2 x m^2 mean of x x^T over operand pairs, where x is the
    Kronecker product of the flattened operands a and b (m = n^2).  It
    is summed 1,024 rows at a time, so no (count, m^2) array of all the
    x exists at once."""
    a_rows, b_rows = (x.reshape(len(x), -1) for x in (a, b))
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
    the rows.  A row's error is x^T D, with D the residual of the scheme
    against the structure tensor T as an (m^2, m) matrix, so the mean is
    the sum of D * (moment D), whatever the layout of the output index.

    The factors and ``moment`` may carry a leading run axis, and then the
    score holds one value per run.  D is the Khatri-Rao product of H and
    K, one row per pair of input indices, times F with its columns put in
    T's transposed output layout, minus T; each run's products are the
    same matrix products as alone, so a run scores bitwise the same in
    any stack."""
    m = n * n
    target = matmul_tensor(n, n, n).reshape(m * m, m)
    flip = np.arange(m).reshape(n, n).T.ravel()

    def score(scheme):
        h, k = scheme.H, scheme.K
        runs = h.shape[:-2]
        kr = (h[..., :, None, :] * k[..., None, :, :]).reshape(
            runs + (m * m, -1))
        d = kr @ scheme.F[..., flip] - target
        val = np.add.reduce((d * (moment @ d)).reshape(runs + (-1,)),
                            axis=-1)
        return float(val) if val.ndim == 0 else val
    return score


def global_norm(grads):
    """Euclidean norm of each run's gradient block (R, A, P): the squares
    are summed per array, then over the A arrays in order."""
    squares = np.add.reduce(grads * grads, axis=-1)
    return np.sqrt(np.add.accumulate(squares, axis=-1)[:, -1])


def clip_gradients(grads, threshold):
    """Rescale each run's gradient block (R, A, P) in place onto the ball
    of the given :func:`global_norm`; runs below the threshold pass
    through untouched.  Returns the block."""
    if threshold <= 0:
        raise ShapeMismatch("clip threshold must be positive")
    norm = global_norm(grads)
    if not norm.max() <= threshold:
        # threshold / threshold is exactly 1, and x * 1 is x
        grads *= (threshold / np.maximum(norm, threshold))[:, None, None]
    return grads


@dataclass
class AdamState:
    """Moment accumulators, step counter and the update's scratch."""

    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: tuple


def init_adam_params(params):
    """Zero Adam state for a parameter block."""
    zeros = np.zeros_like(np.asarray(params, dtype=np.float64))
    return AdamState(0, zeros, zeros.copy(),
                     (np.empty_like(zeros), np.empty_like(zeros)))


def adam_update(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of a float64 parameter block, such as a stack's
    (R, A, P) block, in place in ``params`` and ``state``, with the
    operations of m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2)
    g^2, params - (lr m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)."""
    state.step += 1
    t, m, v, (s, q) = state.step, state.m, state.v, state.scratch
    np.add(np.multiply(m, beta1, out=m),
           np.multiply(grads, 1.0 - beta1, out=s), out=m)
    np.multiply(np.multiply(grads, grads, out=s), 1.0 - beta2, out=s)
    np.add(np.multiply(v, beta2, out=v), s, out=v)
    np.divide(m, 1.0 - beta1 ** t, out=s)
    np.sqrt(np.divide(v, 1.0 - beta2 ** t, out=q), out=q)
    np.divide(np.multiply(s, lr, out=s), np.add(q, eps, out=q), out=s)
    np.subtract(params, s, out=params)


# the names perfbench/tracing.py times the update under
init_adam, adam_step = init_adam_params, adam_update


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
    resample: bool = False

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ShapeMismatch("n and r must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ShapeMismatch("epochs and batch size must be positive")
        if self.train_size < 1 or self.val_size < 1:
            raise ShapeMismatch("dataset sizes must be positive")
        if self.batch_size > self.train_size:
            raise ShapeMismatch("batch size exceeds the training set")
        if not np.isfinite([self.lr, self.alpha, self.low, self.high]).all():
            raise ShapeMismatch("lr, alpha, low and high must be finite")
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


def batch_slices(rows, batch_size):
    """Consecutive batches of a stack's rows, (R, count, ...), along the
    row axis, as views in order; the last one may be short."""
    for start in range(0, rows.shape[1], batch_size):
        yield rows[:, start:start + batch_size]


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


def fit(cfgs, init, epoch_end, view=None, pull=None):
    """The training loop of :func:`train_stack` and ``border.train_eps``:
    R runs whose configs differ only in the seed, stepped as one stack.

    ``init(seed)`` gives one run's A parameter arrays of n^2 r entries
    each; the parameters, both Adam moments and the gradient live in
    (R, A, n^2 r) float64 blocks.  ``view(params, epoch)`` maps the
    parameter block to the :class:`Factors` the loss is taken at, and
    ``pull(grads, out, epoch)`` writes their gradients into the gradient
    block ``out``; by default the A = 3 arrays are H, K and F.  A step
    takes one forward pass for the losses and the gradients, clips per
    run and makes one Adam update, all in place.  Data, shuffles and
    validation sets stay per run; an epoch's batches are views of the rows
    it gathers once.  Per epoch, a run's train loss is the exact sample
    mean of its batch losses, and after the updates one :func:`scorer`
    call scores every run still going; then
    ``epoch_end(run, epoch, arrays, train_loss, val_loss, score)``
    runs, with views of the run's parameter arrays and ``score(scheme)``,
    any scheme's val loss on the run's validation set (a :func:`scorer`).

    Returns, per run, its parameter arrays and both loss lists, or the
    :class:`TrainingDiverged` it raised: a non-finite batch loss, or
    non-finite factors at the end of an epoch, stops that run, and the
    other runs go on untouched.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ShapeMismatch("runs of a stack may differ only in the seed")
    streams = [run_streams(c) for c in cfgs]

    moments = np.stack([fourth_moment(*draw_operands(
        cfg.n, cfg.val_size, s["val"], cfg.low, cfg.high)) for s in streams])
    score_stack = scorer(cfg.n, moments)
    scores = [scorer(cfg.n, moment) for moment in moments]
    first = [init(s["init"]) for s in streams]
    if any(np.size(a) != cfg.n * cfg.n * cfg.r for run in first for a in run):
        raise ShapeMismatch("every parameter array needs n^2 r entries")
    params = np.array([[np.ravel(a) for a in run] for run in first],
                      dtype=np.float64)
    grads = np.empty_like(params)
    state = init_adam_params(params)

    def arrays(block):
        return [block[:, i].reshape((len(block),) + np.shape(a))
                for i, a in enumerate(first[0])]

    param_arrays, grad_arrays = arrays(params), arrays(grads)
    own = Factors(*param_arrays) if view is None else None
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
        rows = None  # the last epoch's gather goes before the next
        rows = tuple(x.take(perm, axis=0) for x in data)
        sq_err_total = np.zeros(len(cfgs))
        for ab, bb, tb in zip(*(batch_slices(x, cfg.batch_size)
                                for x in rows)):
            factors = own if view is None else view(params, epoch)
            batch_loss, dfs = grad_analytic(
                factors, ab, bb, tb, grad_arrays if pull is None else None)
            if not np.isfinite(batch_loss).all():
                for run in np.flatnonzero(~np.isfinite(batch_loss)):
                    if failed[run] is None:
                        diverge(run, epoch)
                if all(failed):
                    return failed
            if pull is not None:
                pull(dfs, grads, epoch)
            clip_gradients(grads, cfg.clip_threshold)
            adam_update(state, params, grads, cfg.lr,
                        cfg.beta1, cfg.beta2, cfg.adam_eps)
            sq_err_total += batch_loss * ab.shape[1]
        factors = own if view is None else view(params, epoch)
        finite = np.logical_and.reduce(
            [np.isfinite(f).all(axis=(-2, -1)) for f in factors])
        for run in runs:
            if failed[run] is None and not finite[run]:
                diverge(run, epoch)
        live = [run for run in runs if failed[run] is None]
        if not live:
            return failed
        # diverged runs are left out, so scoring them raises no warnings
        vals = score_stack(factors) if len(live) == len(cfgs) else scorer(
            cfg.n, moments[live])(Factors(*(f[live] for f in factors)))
        for run, val in zip(live, vals):
            train_losses[run].append(float(sq_err_total[run]
                                           / cfg.train_size))
            val_losses[run].append(float(val))
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
