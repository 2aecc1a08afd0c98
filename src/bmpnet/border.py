"""Border-rank extension: factor matrices polynomial in a vanishing
parameter.

The combination factors become polynomials in eps with matrix
coefficients (powers 0..d_max) while the output factor may carry
negative powers (f_min..d_max), so divisions by eps can cancel only in
the limit.  Training anneals eps toward zero on a fixed schedule; a
probe loss at a small frozen eps tracks whether the limit object, not
just the current eps, solves the problem.  With d_max = 0, f_min = 0 and
decay 1 the machinery reduces bitwise to ordinary training.
"""

import functools
import time
from dataclasses import asdict, dataclass

import numpy as np

from .scheme import BilinearScheme
from .tensor import ShapeMismatch, matrix_to_json
from .training import (
    ConfigError, Factors, RunRecord, TrainingDiverged, fit)
# imported only for perfbench/tracing.py, which wraps them in this module
from .training import (  # noqa: F401
    adam_update, clip_gradients, forward_fast_batch, gen_dataset,
    grad_analytic, init_adam_params, mse)


class EpsilonNonpositive(ValueError):
    """The vanishing parameter must stay strictly positive."""


@dataclass
class EpsScheme:
    """Bilinear factors polynomial in eps.

    ``h_coeffs[k]`` and ``k_coeffs[k]`` are the matrix coefficients of
    eps^k for k = 0..d_max; ``f_coeffs[i]`` is the coefficient of
    eps^(f_min + i) up to eps^d_max.  Evaluating at a concrete eps gives
    an ordinary scheme.
    """

    n: int
    r: int
    d_max: int
    f_min: int
    h_coeffs: list
    k_coeffs: list
    f_coeffs: list
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise EpsilonNonpositive("eps must be positive, got %r"
                                     % self.eps)
        if self.d_max < 0 or self.f_min > self.d_max:
            raise ShapeMismatch("need 0 <= d_max and f_min <= d_max")
        m = self.n * self.n
        if len(self.h_coeffs) != self.d_max + 1 \
                or len(self.k_coeffs) != self.d_max + 1:
            raise ShapeMismatch("combination stacks need d_max + 1 entries")
        if len(self.f_coeffs) != self.d_max - self.f_min + 1:
            raise ShapeMismatch("output stack needs d_max - f_min + 1 entries")
        for mat in self.h_coeffs + self.k_coeffs:
            if np.asarray(mat).shape != (m, self.r):
                raise ShapeMismatch("combination coefficients must be "
                                    "(n^2, r)")
        for mat in self.f_coeffs:
            if np.asarray(mat).shape != (self.r, m):
                raise ShapeMismatch("output coefficients must be (r, n^2)")


@dataclass
class EpsSchedule:
    """Per-epoch annealing of eps: eps0 * decay**epoch, never below
    ``floor``.  Closed form rather than repeated multiplication so the
    recorded trajectory matches the power law bitwise."""

    eps0: float = 0.02
    decay: float = 0.95
    floor: float = 1e-8

    def __post_init__(self):
        if self.eps0 <= 0:
            raise EpsilonNonpositive("eps0 must be positive")
        if not np.isfinite(self.eps0):
            raise ConfigError("eps0 must be finite")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError("decay must lie in (0, 1]")
        if not 0.0 < self.floor <= self.eps0:
            raise ConfigError("need 0 < floor <= eps0")

    def at(self, epoch):
        return max(self.floor, self.eps0 * self.decay ** epoch)


def init_eps_scheme(n, r, seed, alpha=1.0, *, d_max, f_min,
                    eps=EpsSchedule.eps0):
    """Draw all coefficient matrices N(0, alpha^2): the H stack in
    ascending power order, then the K stack, then the F stack.  With
    d_max = 0 and f_min = 0 the draws coincide with a plain scheme
    initialisation from the same seed."""
    rng = np.random.default_rng(seed)
    m = n * n
    h_coeffs = [rng.normal(0.0, alpha, (m, r)) for _ in range(d_max + 1)]
    k_coeffs = [rng.normal(0.0, alpha, (m, r)) for _ in range(d_max + 1)]
    f_coeffs = [rng.normal(0.0, alpha, (r, m))
                for _ in range(d_max - f_min + 1)]
    return EpsScheme(n=n, r=r, d_max=d_max, f_min=f_min,
                     h_coeffs=h_coeffs, k_coeffs=k_coeffs,
                     f_coeffs=f_coeffs, eps=eps)


def eps_powers(d_max, f_min, eps):
    """eps^p for the rows of a coefficient block, as an (A, 1) column:
    powers 0..d_max for the H stack, again for K, then f_min..d_max for
    F."""
    if eps <= 0:
        raise EpsilonNonpositive("eps must be positive, got %r" % eps)
    combo = [eps ** p for p in range(d_max + 1)]
    return np.array(combo + combo
                    + [eps ** p for p in range(f_min, d_max + 1)])[:, None]


def stack_index(d_max, f_min):
    """The factor of each row of a coefficient block: 0 for the rows of
    the H stack, 1 for K and 2 for F."""
    return np.repeat([0, 1, 2], [d_max + 1, d_max + 1, d_max - f_min + 1])


def _factor_writer(shape, n_h, out):
    """``write(coeffs, powers)``, which fills the factor block ``out``
    (3, ..., n^2 r) with H, K and F of a coefficient block shaped
    ``shape`` (..., A, n^2 r) at the eps of ``powers`` and returns it.
    Each row times its power goes into one terms buffer, made here with
    the views read of it.  The H and K stacks are then summed over their
    n_h powers by one reduction of an (..., 2, n_h, n^2 r) view, and F by
    a second, each in ascending order from -0.0, which leaves every
    term's bits as they are."""
    terms = np.empty(shape)
    lead, size = shape[:-2], shape[-1]
    # a slice of whole rows of a new array: the reshape is a view
    hk_terms = terms[..., :2 * n_h, :].reshape(lead + (2, n_h, size))
    f_terms = terms[..., 2 * n_h:, :]
    hk_out, f_out = np.moveaxis(out[:2], 0, -2), out[2]
    mul, add = np.multiply, np.add.reduce

    def write(coeffs, powers):
        mul(coeffs, powers, terms)
        add(hk_terms, -2, None, hk_out, initial=-0.0)
        add(f_terms, -2, None, f_out, initial=-0.0)
        return out
    return write


def evaluate(es, eps=None):
    """Ordinary scheme obtained by substituting a concrete eps."""
    coeffs = np.stack([np.ravel(c)
                       for c in es.h_coeffs + es.k_coeffs + es.f_coeffs])
    powers = eps_powers(es.d_max, es.f_min, es.eps if eps is None else eps)
    write = _factor_writer(coeffs.shape, es.d_max + 1,
                           np.empty((3, es.n * es.n * es.r)))
    block = write(coeffs, powers)
    return BilinearScheme(es.n, es.r, *Factors.of_block(block, es.n, es.r))


def coefficient_grads(grads, powers, index, out):
    """Chain rule from the factor gradients ``grads``, a block (3, ...,
    n^2 r) of dH, dK and dF flattened, back to the coefficient block
    ``out`` (..., A, n^2 r), which it returns: row i of ``out`` is its
    eps^p times the gradient of factor ``index[i]``.  The gradients are
    gathered into ``out`` and multiplied there in place by ``powers``,
    the (A, 1) column of :func:`eps_powers` or that column repeated into
    a block shaped as ``out``, which one contiguous product reads."""
    # every index is in range, and "clip" writes without a buffer
    grads.swapaxes(0, -2).take(index, -2, out, "clip")
    return np.multiply(out, powers, out)


@dataclass(kw_only=True)
class EpsRunRecord(RunRecord):
    """A run record plus the annealing trajectory and probe losses;
    ``scheme`` is ``eps_scheme`` evaluated at its final eps."""

    schedule: EpsSchedule
    probe_losses: list
    epsilon_trajectory: list
    eps_scheme: EpsScheme
    probe_eps: float

    def to_json(self):
        out = super().to_json()
        out.update(schedule=asdict(self.schedule), probe_eps=self.probe_eps,
                   probe_losses=list(self.probe_losses),
                   epsilon_trajectory=list(self.epsilon_trajectory),
                   eps_factors=eps_scheme_to_json(self.eps_scheme))
        return out


def eps_scheme_to_json(es):
    return {
        "n": es.n,
        "r": es.r,
        "d_max": es.d_max,
        "f_min": es.f_min,
        "eps": es.eps,
        "h_coeffs": [matrix_to_json(m) for m in es.h_coeffs],
        "k_coeffs": [matrix_to_json(m) for m in es.k_coeffs],
        "f_coeffs": [matrix_to_json(m) for m in es.f_coeffs],
    }


def train_eps(cfg, schedule=None, d_max=2, f_min=-2, probe_eps=1e-3,
              progress=None):
    """Train the polynomial parameterisation while annealing eps.

    Runs the plain training loop (same derived seeds, same batch order,
    same clipping and Adam constants from ``cfg``) with the loss taken at
    the current eps and gradients pushed back to the coefficient stacks.
    Records eps per epoch and the validation loss of the scheme frozen at
    ``probe_eps``; ``progress(epoch, train_loss, val_loss, probe_loss,
    eps)`` is called after each epoch.
    """
    if not 0 < probe_eps < np.inf:
        raise EpsilonNonpositive("probe_eps must be positive and finite, "
                                 "got %r" % probe_eps)
    if schedule is None:
        schedule = EpsSchedule()
    started = time.perf_counter()
    n_h = d_max + 1
    probe_losses, eps_path = [], []

    def init(seed):
        es = init_eps_scheme(cfg.n, cfg.r, seed, cfg.alpha,
                             d_max=d_max, f_min=f_min, eps=schedule.eps0)
        return es.h_coeffs + es.k_coeffs + es.f_coeffs

    def eps_scheme(arrays, eps):
        return EpsScheme(n=cfg.n, r=cfg.r, d_max=d_max, f_min=f_min,
                         h_coeffs=list(arrays[:n_h]),
                         k_coeffs=list(arrays[n_h:2 * n_h]),
                         f_coeffs=list(arrays[2 * n_h:]), eps=eps)

    index = stack_index(d_max, f_min)
    size = cfg.n * cfg.n * cfg.r
    shape = (1, len(index), size)
    # the powers of each epoch's eps as a block shaped as the stack's
    # coefficients, built once per epoch
    powers = functools.cache(lambda epoch: np.broadcast_to(
        eps_powers(d_max, f_min, schedule.at(epoch)), shape).copy())
    # the factor block of the stack of one, rewritten by every view
    block = np.empty((3, 1, size))
    factors = Factors.of_block(block, cfg.n, cfg.r)
    write = _factor_writer(shape, n_h, block)

    def view(params, epoch):
        write(params, powers(epoch))
        return factors

    def pull(grads, out, epoch):
        coefficient_grads(grads, powers(epoch), index, out)

    def epoch_end(run, epoch, arrays, train_loss, val_loss, score):
        es = eps_scheme(arrays, schedule.at(epoch))
        probe_losses.append(score(evaluate(es, probe_eps)))
        eps_path.append(es.eps)
        if progress is not None:
            progress(epoch, train_loss, val_loss, probe_losses[-1], es.eps)

    (outcome,) = fit([cfg], init, epoch_end, view, pull)
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    arrays, train_losses, val_losses = outcome
    final = eps_scheme(arrays, eps_path[-1])
    return EpsRunRecord(
        config=cfg,
        train_losses=train_losses,
        val_losses=val_losses,
        scheme=evaluate(final),
        schedule=schedule,
        probe_losses=probe_losses,
        epsilon_trajectory=eps_path,
        eps_scheme=final,
        probe_eps=probe_eps,
        wall_seconds=time.perf_counter() - started,
    )


def wstate_embedded():
    """The 3-qubit W tensor carried on the first two coordinates of the
    4-dimensional operand space (order 3, shape (4, 4, 4))."""
    a = np.zeros(4)
    b = np.zeros(4)
    a[0] = 1.0
    b[1] = 1.0
    return (np.einsum("i,j,k->ijk", a, a, b)
            + np.einsum("i,j,k->ijk", a, b, a)
            + np.einsum("i,j,k->ijk", b, a, a))


def wstate_eps_scheme(eps):
    """Rank-2 polynomial curve whose limit is the W tensor: the classic
    witness that border rank can undercut rank.  Evaluating and
    reconstructing at eps gives ((a + eps b)^(x3) - a^(x3)) / eps."""
    a = np.zeros(4)
    b = np.zeros(4)
    a[0] = 1.0
    b[1] = 1.0
    h0 = np.stack([a, a], axis=1)
    h1 = np.stack([b, np.zeros(4)], axis=1)
    f_m1 = np.stack([a, -a], axis=0)
    f_0 = np.stack([b, np.zeros(4)], axis=0)
    f_1 = np.zeros((2, 4))
    return EpsScheme(n=2, r=2, d_max=1, f_min=-1,
                     h_coeffs=[h0, h1], k_coeffs=[h0.copy(), h1.copy()],
                     f_coeffs=[f_m1, f_0, f_1], eps=eps)
