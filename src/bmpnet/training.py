"""Gradient training of bilinear schemes on random matrix pairs.

The loss is the mean over samples of the squared Euclidean error of the
predicted product vector.  Gradients come in closed form (with a finite
difference fallback used only for cross-checking), updates are Adam with
global-norm clipping across all three factors jointly.  Every random
draw is derived from the run seed through a fixed mixing function, so
records reproduce bitwise.
"""

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .scheme import (
    BilinearScheme,
    forward_fast_batch,
    init_scheme,
    scheme_from_json,
    scheme_to_json,
)
from .tensor import ShapeMismatch


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
    """Mean over samples of the squared Euclidean error per sample."""
    pred_rows = np.asarray(pred_rows, dtype=np.float64)
    target_rows = np.asarray(target_rows, dtype=np.float64)
    if pred_rows.shape != target_rows.shape:
        raise LengthMismatch(
            "prediction shape %s vs target shape %s"
            % (pred_rows.shape, target_rows.shape))
    diff = pred_rows - target_rows
    return float(np.mean(np.sum(diff * diff, axis=-1)))


def grad_analytic(scheme, a_rows, b_rows, target_rows):
    """Closed-form loss gradients (dH, dK, dF) on one batch.

    With U = A H, W = B K, M = U * W, V = M F and E = 2 (V - T) / count:
    dF = M^T E, and with G = E F^T, dH = A^T (G * W), dK = B^T (G * U).
    """
    a_rows = np.asarray(a_rows, dtype=np.float64)
    b_rows = np.asarray(b_rows, dtype=np.float64)
    target_rows = np.asarray(target_rows, dtype=np.float64)
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


def grad_fd(scheme, a_rows, b_rows, target_rows, h=1e-6):
    """Central-difference gradients, one coordinate at a time.  Slow by
    construction; exists to audit :func:`grad_analytic`."""

    def loss_for(H, K, F):
        s = BilinearScheme(n=scheme.n, r=scheme.r, H=H, K=K, F=F)
        return mse(forward_fast_batch(s, a_rows, b_rows), target_rows)

    mats = [np.array(scheme.H, dtype=np.float64),
            np.array(scheme.K, dtype=np.float64),
            np.array(scheme.F, dtype=np.float64)]
    grads = []
    for which in range(3):
        g = np.zeros_like(mats[which])
        for idx in np.ndindex(mats[which].shape):
            orig = mats[which][idx]
            mats[which][idx] = orig + h
            up = loss_for(*mats)
            mats[which][idx] = orig - h
            down = loss_for(*mats)
            mats[which][idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return tuple(grads)


def global_norm(grads):
    """Euclidean norm over all gradient entries jointly."""
    total = 0.0
    for g in grads:
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_gradients(grads, threshold):
    """Rescale the gradient triple onto the ball of the given global
    norm; below the threshold the inputs pass through untouched."""
    if threshold <= 0:
        raise ShapeMismatch("clip threshold must be positive")
    norm = global_norm(grads)
    if norm <= threshold or norm == 0.0:
        return tuple(grads)
    scale = threshold / norm
    return tuple(np.asarray(g) * scale for g in grads)


@dataclass
class AdamState:
    """First and second moment accumulators plus the step counter."""

    step: int
    m: tuple
    v: tuple


def init_adam_params(params):
    zeros = tuple(np.zeros_like(np.asarray(p, dtype=np.float64))
                  for p in params)
    return AdamState(step=0,
                     m=tuple(z.copy() for z in zeros),
                     v=tuple(z.copy() for z in zeros))


def init_adam(scheme):
    return init_adam_params((scheme.H, scheme.K, scheme.F))


def adam_update(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update over an arbitrary tuple of parameter arrays;
    returns the new tuple and state, inputs are left untouched."""
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        m1 = beta1 * m + (1.0 - beta1) * g
        v1 = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m1 / (1.0 - beta1 ** t)
        v_hat = v1 / (1.0 - beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m1)
        new_v.append(v1)
    return tuple(new_params), AdamState(step=t, m=tuple(new_m),
                                        v=tuple(new_v))


def adam_step(state, scheme, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of a scheme's three factors; returns the new
    scheme and state."""
    params = (scheme.H, scheme.K, scheme.F)
    new_params, new_state = adam_update(state, params, grads, lr,
                                        beta1, beta2, eps)
    new_scheme = BilinearScheme(n=scheme.n, r=scheme.r,
                                H=new_params[0], K=new_params[1],
                                F=new_params[2])
    return new_scheme, new_state


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
    """Everything one run produced; wall time stays out of the JSON by
    default so identical seeds give identical files."""

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


def run_record_from_json(obj):
    known = {"config", "train_losses", "val_losses", "final_val_loss",
             "scheme", "wall_seconds"}
    return RunRecord(
        config=TrainConfig(**obj["config"]),
        train_losses=[float(v) for v in obj["train_losses"]],
        val_losses=[float(v) for v in obj["val_losses"]],
        scheme=scheme_from_json(obj["scheme"]),
        wall_seconds=float(obj.get("wall_seconds", 0.0)),
        extras={k: v for k, v in obj.items()
                if k not in known},
    )


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
    """Index batches in permutation order; the last one may be short."""
    for start in range(0, len(perm), batch_size):
        yield perm[start:start + batch_size]


class TrainingDiverged(ArithmeticError):
    """A batch loss stopped being finite.  Carries the epoch and the last
    finite per-epoch train and val losses (None within the first epoch)."""

    def __init__(self, epoch, train_loss, val_loss):
        super().__init__(epoch, train_loss, val_loss)
        self.epoch, self.train_loss, self.val_loss = self.args

    def __str__(self):
        return ("training diverged in epoch %d: non-finite batch loss "
                "(last finite losses: train %s, val %s)" % self.args)


def fit(cfg, init, step, epoch_end,
        view=lambda params, epoch: (params, params),
        pull=lambda ctx, grads: grads):
    """The training loop of :func:`train` and ``border.train_eps``.

    ``init(seed)`` gives the parameters and the Adam state.
    ``view(params, epoch)`` gives the scheme the loss is taken at and a
    context, with which ``pull(context, grads)`` maps that scheme's
    gradients back to the parameters.  ``step`` is :func:`adam_step` or
    :func:`adam_update`.  Per epoch, the train loss is the exact sample
    mean of the batch losses and the val loss is scored after the
    updates; then ``epoch_end(epoch, context, train_loss, val_loss,
    score)`` runs, where ``score(scheme)`` is any scheme's val loss.
    Returns the last context and both loss lists.  A non-finite batch
    loss raises :class:`TrainingDiverged`.
    """
    streams = run_streams(cfg)
    train_set = gen_dataset(cfg.n, cfg.train_size, streams["data"],
                            cfg.low, cfg.high)
    val_set = gen_dataset(cfg.n, cfg.val_size, streams["val"],
                          cfg.low, cfg.high)
    params, state = init(streams["init"])

    a_rows, b_rows, t_rows = train_set.flat()
    va_rows, vb_rows, vt_rows = val_set.flat()

    def score(scheme):
        return mse(forward_fast_batch(scheme, va_rows, vb_rows), vt_rows)

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
        for idx in batch_slices(perm, cfg.batch_size):
            ab, bb, tb = a_rows[idx], b_rows[idx], t_rows[idx]
            scheme, ctx = view(params, epoch)
            batch_loss = mse(forward_fast_batch(scheme, ab, bb), tb)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(epoch, *(
                    (train_losses[-1], val_losses[-1]) if train_losses
                    else (None, None)))
            grads = pull(ctx, grad_analytic(scheme, ab, bb, tb))
            grads = clip_gradients(grads, cfg.clip_threshold)
            params, state = step(state, params, grads, cfg.lr, cfg.beta1,
                                 cfg.beta2, cfg.adam_eps)
            sq_err_total += batch_loss * len(idx)
        scheme, ctx = view(params, epoch)
        train_losses.append(float(sq_err_total / cfg.train_size))
        val_losses.append(score(scheme))
        epoch_end(epoch, ctx, train_losses[-1], val_losses[-1], score)
    return ctx, train_losses, val_losses


def train(cfg, progress=None):
    """Run one full training; returns the record with per-epoch losses.
    ``progress(epoch, train_loss, val_loss)`` is called after each epoch.
    """
    started = time.perf_counter()

    def init(seed):
        scheme = init_scheme(cfg.n, cfg.r, seed, cfg.alpha)
        return scheme, init_adam(scheme)

    def epoch_end(epoch, scheme, train_loss, val_loss, score):
        if progress is not None:
            progress(epoch, train_loss, val_loss)

    scheme, train_losses, val_losses = fit(cfg, init, adam_step, epoch_end)
    return RunRecord(
        config=cfg,
        train_losses=train_losses,
        val_losses=val_losses,
        scheme=scheme,
        wall_seconds=time.perf_counter() - started,
    )
