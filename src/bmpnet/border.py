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

import time
from dataclasses import dataclass, field

import numpy as np

from .scheme import BilinearScheme, scheme_to_json
from .tensor import ShapeMismatch, matrix_from_json, matrix_to_json
from .training import Factors, TrainingDiverged, fit
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

    def f_powers(self):
        return range(self.f_min, self.d_max + 1)


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
        if not 0.0 < self.decay <= 1.0:
            raise ShapeMismatch("decay must lie in (0, 1]")
        if not 0.0 < self.floor <= self.eps0:
            raise ShapeMismatch("need 0 < floor <= eps0")

    def at(self, epoch):
        return max(self.floor, self.eps0 * self.decay ** epoch)


def init_eps_scheme(n, r, seed, alpha=1.0, d_max=2, f_min=-2, eps=0.02):
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


def _poly_sum(coeffs, powers, eps):
    acc = None
    for mat, p in zip(coeffs, powers):
        term = mat * (eps ** p)
        acc = term if acc is None else acc + term
    return acc


def evaluate(es, eps=None):
    """Ordinary scheme obtained by substituting a concrete eps."""
    if eps is None:
        eps = es.eps
    if eps <= 0:
        raise EpsilonNonpositive("eps must be positive, got %r" % eps)
    return BilinearScheme(es.n, es.r, *_factors(es, eps))


def _factors(es, eps):
    return (_poly_sum(es.h_coeffs, range(es.d_max + 1), eps),
            _poly_sum(es.k_coeffs, range(es.d_max + 1), eps),
            _poly_sum(es.f_coeffs, es.f_powers(), eps))


def coefficient_grads(es, d_h, d_k, d_f, eps):
    """Chain rule from gradients at the evaluated scheme back to the
    coefficient stacks: the eps^p coefficient receives eps^p times the
    evaluated gradient."""
    g_h = [d_h * (eps ** p) for p in range(es.d_max + 1)]
    g_k = [d_k * (eps ** p) for p in range(es.d_max + 1)]
    g_f = [d_f * (eps ** p) for p in es.f_powers()]
    return tuple(g_h + g_k + g_f)


@dataclass
class EpsRunRecord:
    """Training record plus the annealing trajectory and probe losses."""

    config: object
    schedule: EpsSchedule
    train_losses: list
    val_losses: list
    probe_losses: list
    epsilon_trajectory: list
    eps_scheme: EpsScheme
    probe_eps: float
    wall_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def final_val_loss(self):
        return self.val_losses[-1]

    def to_json(self, include_timing=False):
        out = {
            "config": self.config.to_json(),
            "schedule": {"eps0": self.schedule.eps0,
                         "decay": self.schedule.decay,
                         "floor": self.schedule.floor},
            "train_losses": list(self.train_losses),
            "val_losses": list(self.val_losses),
            "final_val_loss": self.final_val_loss,
            "probe_eps": self.probe_eps,
            "probe_losses": list(self.probe_losses),
            "epsilon_trajectory": list(self.epsilon_trajectory),
            "scheme": scheme_to_json(evaluate(self.eps_scheme)),
            "eps_factors": eps_scheme_to_json(self.eps_scheme),
        }
        for key, val in self.extras.items():
            out[key] = val
        if include_timing:
            out["wall_seconds"] = self.wall_seconds
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


def eps_scheme_from_json(obj):
    return EpsScheme(
        n=int(obj["n"]),
        r=int(obj["r"]),
        d_max=int(obj["d_max"]),
        f_min=int(obj["f_min"]),
        h_coeffs=[matrix_from_json(m) for m in obj["h_coeffs"]],
        k_coeffs=[matrix_from_json(m) for m in obj["k_coeffs"]],
        f_coeffs=[matrix_from_json(m) for m in obj["f_coeffs"]],
        eps=float(obj["eps"]),
    )


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

    def view(stacks, epoch):
        # a stack of one run: its scheme at eps, with the run axis put back
        es = eps_scheme([a[0] for a in stacks], schedule.at(epoch))
        return Factors(*(x[None] for x in _factors(es, es.eps))), es

    def pull(es, grads):
        return coefficient_grads(es, *grads, es.eps)

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
    return EpsRunRecord(
        config=cfg,
        schedule=schedule,
        train_losses=train_losses,
        val_losses=val_losses,
        probe_losses=probe_losses,
        epsilon_trajectory=eps_path,
        eps_scheme=eps_scheme(arrays, eps_path[-1]),
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
