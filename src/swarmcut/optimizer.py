"""Swarm search over QAOA angles: Adam-corrected fully informed particle swarm.

Three update modes share one loop skeleton. The social velocity always pulls
a candidate from every particle's personal best; the modes differ in the
gradient handed to the per-particle Adam correction:

  adam_fd     central finite differences of the loss at the candidate (default)
  adam_swarm  the random personal-best influence average at the candidate
  fipso_plain no Adam correction at all

The loss for a graph combines squared error against a classical target cut
with a penalty on the approximation-ratio shortfall.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .graphs import Graph, check_int, check_real
from .simulator import ExpectationEvaluator

MODES = ("adam_fd", "adam_swarm", "fipso_plain")

DEFAULT_BOUND = (-math.pi, math.pi)


def _bound_pairs(bounds, fd_step: float) -> tuple[tuple[float, float], ...]:
    """A bare (lo, hi) pair or a sequence of them, as a tuple of finite float
    pairs whose width hi - lo is finite too and more than 2 * fd_step."""
    try:
        pairs = [tuple(bounds)] if all(isinstance(x, numbers.Real) for x in bounds) else [tuple(b) for b in bounds]
    except TypeError:
        pairs = []
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"bounds must be a (lo, hi) pair or a list of pairs, got {bounds!r}")
    checked = tuple((check_real("bounds", lo), check_real("bounds", hi)) for lo, hi in pairs)
    for lo, hi in checked:
        if not lo < hi:
            raise ValueError(f"bounds ({lo}, {hi}) must satisfy lo < hi")
        # The swarm draws uniformly from [lo, hi), which needs a finite width.
        if not math.isfinite(hi - lo):
            raise ValueError(f"bounds ({lo}, {hi}) must have a finite width hi - lo")
    # Probes 2 * fd_step apart span a whole box edge, so the difference
    # no longer reads the local slope and Adam steps on noise.
    width = min(hi - lo for lo, hi in checked)
    if fd_step >= width / 2:
        raise ValueError(f"fd_step must be less than half the narrowest bound width {width}, got {fd_step}")
    return checked


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm settings, checked at construction; change one through with_seed or dataclasses.replace."""

    swarm_size: int = 20
    max_iters: int = 50
    w_max: float = 0.9
    w_min: float = 0.4
    c: float = 2.0
    eta: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epsilon: float = 1e-8
    lambda_: float = 1.0
    fd_step: float = 1e-3
    bounds: tuple[tuple[float, float], ...] | None = None
    mode: str = "adam_fd"
    seed: int = 0

    # JSON documents use the bare key "lambda"; the trailing underscore is
    # only a python keyword workaround.
    _JSON_KEYS = {"lambda_": "lambda"}

    def __post_init__(self):
        for name, low in (("swarm_size", 2), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        for name in ("w_max", "w_min", "c", "eta", "adam_beta1", "adam_beta2", "epsilon", "lambda_", "fd_step"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0 <= self.w_min <= self.w_max:
            raise ValueError(f"need 0 <= w_min <= w_max, got ({self.w_min}, {self.w_max})")
        if not 0 < self.adam_beta1 < 1 or not 0 < self.adam_beta2 < 1:
            raise ValueError("adam decay rates must lie strictly in (0, 1)")
        for name in ("epsilon", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.bounds is None:
            _bound_pairs(DEFAULT_BOUND, self.fd_step)
        else:
            object.__setattr__(self, "bounds", _bound_pairs(self.bounds, self.fd_step))
        # Zero means no social pull, no Adam step or no ratio penalty; a
        # negative c, eta or lambda would push the swarm up the loss.
        for name in ("c", "eta", "lambda_"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{self._JSON_KEYS.get(name, name)} must be non-negative, got {value}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def box(self, p: int) -> np.ndarray:
        """The (2p, 2) box over (gamma_1..p, beta_1..p): (-pi, pi) when bounds is
        unset, a single pair for every angle, else exactly 2p pairs (or ValueError)."""
        p = check_int("p", p, 1)
        pairs = self.bounds or (DEFAULT_BOUND,)
        if len(pairs) == 1:
            pairs = pairs * (2 * p)
        elif len(pairs) != 2 * p:
            raise ValueError(f"bounds must hold 1 or {2 * p} pairs at depth {p}, got {len(pairs)}")
        return np.array(pairs)

    @classmethod
    def from_dict(cls, doc: dict) -> "SwarmConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"swarm config must be a JSON object, got {type(doc).__name__}")
        names = {cls._JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
        kwargs = {}
        for key, value in doc.items():
            if key not in names:
                raise ValueError(f"unknown swarm config key {key!r}")
            kwargs[names[key]] = value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The JSON document from_dict reads back; bounds only when set."""
        return {self._JSON_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self) if getattr(self, f.name) is not None}

    def with_seed(self, seed: int) -> "SwarmConfig":
        return replace(self, seed=seed)


@dataclass
class OptimizeResult:
    best_position: np.ndarray
    best_loss: float
    best_expectation: float | None
    trace: list[float] = field(default_factory=list)
    evaluations: int = 0

    @property
    def iterations(self) -> int:
        return len(self.trace)


def approx_ratio(c_hat: float, c_target: float) -> float:
    """c_hat / c_target, defined as 0 when the target cut is 0."""
    if c_target == 0:
        return 0.0
    return c_hat / c_target


def make_objective(ev: ExpectationEvaluator, c_target: float,
                   lambda_: float) -> Callable[[np.ndarray], float]:
    """Loss over 2p-vectors theta = (gamma_1..p, beta_1..p) on ev's graph:
    (C_hat - c_target)^2 + lambda * (1 - AR)^2. The depth p is len(theta) // 2."""
    c_target = check_real("c_target", c_target)
    if c_target < 0:
        raise ValueError(f"c_target must be non-negative, got {c_target}")

    def loss(theta: np.ndarray) -> float:
        p = len(theta) // 2
        c_hat = ev.expectation(theta[:p], theta[p:])
        ar = approx_ratio(c_hat, c_target)
        return (c_hat - c_target) ** 2 + lambda_ * (1.0 - ar) ** 2

    return loss


def finite_diff_grad(f: Callable[[np.ndarray], float], theta, h: float) -> np.ndarray:
    """Central differences per dimension, 2*dim evaluations of f.

    A theta of even length 2p is probed one layer's (gamma_k, beta_k) pair at
    a time from k = p down to 1: an ExpectationEvaluator then resumes every
    probe of layer k from the layers before it, and of the probes of layer p
    only the first simulates more than one layer. Each probe's value does not
    depend on the order, so neither does the gradient. Other lengths are
    probed in index order.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    probe = theta.copy()
    p, odd = divmod(theta.size, 2)
    order = range(theta.size) if odd else [d for k in reversed(range(p)) for d in (k, p + k)]
    for d in order:
        probe[d] = theta[d] + h
        f_plus = f(probe)
        probe[d] = theta[d] - h
        f_minus = f(probe)
        probe[d] = theta[d]
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ArithmeticError(f"non-finite objective near dimension {d}: f+={f_plus}, f-={f_minus}")
        grad[d] = (f_plus - f_minus) / (2.0 * h)
    return grad


def swarm_influence_grad(theta, pbest_positions: np.ndarray, c: float, rng) -> np.ndarray:
    """Fully informed influence average: (1/S) * sum_j c * r_j * (pbest_j - theta),
    with one uniform r_j per neighbour per call."""
    theta = np.asarray(theta, dtype=np.float64)
    r = rng.random(pbest_positions.shape[0])
    return (c / pbest_positions.shape[0]) * (r @ (pbest_positions - theta))


def adam_update(m, v2, t: int, grad, beta1: float, beta2: float,
                eta: float, epsilon: float):
    """One adaptive-moment step at step count t. Returns (step, new_m, new_v2)
    as arrays; subtracting step descends grad.

    The step runs on Python floats, one dimension at a time: on 2p angles
    that takes half the time of a dozen NumPy calls, with the same IEEE
    operations in the same order, so the same bits.
    """
    bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    step, m_new, v2_new = [], [], []
    for m_d, v2_d, g in zip(m.tolist(), v2.tolist(), np.asarray(grad, dtype=np.float64).tolist()):
        m_d = beta1 * m_d + (1.0 - beta1) * g
        v2_d = beta2 * v2_d + (1.0 - beta2) * g * g
        step.append(eta * (m_d / bias1) / (math.sqrt(v2_d / bias2) + epsilon))
        m_new.append(m_d)
        v2_new.append(v2_d)
    return np.array(step), np.array(m_new), np.array(v2_new)


def random_params(p: int, rng) -> np.ndarray:
    """One uniform draw from DEFAULT_BOUND^(2p)."""
    return rng.uniform(*DEFAULT_BOUND, size=2 * check_int("p", p, 1))


def minimize(f: Callable[[np.ndarray], float], bounds, cfg: SwarmConfig) -> OptimizeResult:
    """Run the swarm on an arbitrary loss over a box. Deterministic per cfg.seed.
    A NaN or infinite loss raises ArithmeticError.

    bounds holds one finite (lo, hi) pair with lo < hi per dimension, or is a
    bare pair for one dimension; SwarmConfig.box(p) builds it for 2p angles.
    As in SwarmConfig, a cfg.fd_step of at least half the narrowest width
    raises ValueError before any evaluation.

    One RNG stream drives everything, drawn in a fixed order: initial
    positions, then per iteration and per particle the social scalars,
    then (adam_swarm only) the influence scalars.
    """
    lo, hi = np.array(_bound_pairs(bounds, cfg.fd_step)).T
    dim = lo.size
    s_count, t_max = cfg.swarm_size, cfg.max_iters
    rng = np.random.default_rng(cfg.seed)

    n_evals = 0

    def evaluate(theta: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        loss = float(f(theta))
        if not math.isfinite(loss):
            raise ArithmeticError(f"non-finite loss {loss} at {theta.tolist()}")
        return loss

    positions = rng.uniform(lo, hi, size=(s_count, dim))
    velocities = np.zeros((s_count, dim))
    moments = np.zeros((s_count, dim))
    moments2 = np.zeros((s_count, dim))

    pbest_pos = positions.copy()
    pbest_loss = np.array([evaluate(positions[i]) for i in range(s_count)])
    g_idx = int(np.argmin(pbest_loss))
    gbest_pos = pbest_pos[g_idx].copy()
    gbest_loss = float(pbest_loss[g_idx])

    trace = []
    for t in range(1, t_max + 1):
        w = cfg.w_max - (t / t_max) * (cfg.w_max - cfg.w_min)
        for i in range(s_count):
            r = rng.random(s_count)
            delta = r @ pbest_pos - r.sum() * positions[i]
            velocities[i] = w * velocities[i] + (cfg.c / s_count) * delta
            cand = positions[i] + velocities[i]
            if cfg.mode != "fipso_plain":
                # Adam descends its gradient; adam_swarm climbs the influence.
                if cfg.mode == "adam_fd":
                    grad = finite_diff_grad(evaluate, cand, cfg.fd_step)
                else:
                    grad = -swarm_influence_grad(cand, pbest_pos, cfg.c, rng)
                step, moments[i], moments2[i] = adam_update(
                    moments[i], moments2[i], t, grad,
                    cfg.adam_beta1, cfg.adam_beta2, cfg.eta, cfg.epsilon)
                cand = cand - step
            # np.clip's bits at under half its per-call cost on 2p angles.
            np.maximum(cand, lo, out=cand)
            np.minimum(cand, hi, out=cand)
            velocities[i] = cand - positions[i]
            positions[i] = cand
            loss = evaluate(cand)
            if loss < pbest_loss[i]:
                pbest_loss[i] = loss
                pbest_pos[i] = cand
            if loss < gbest_loss:
                gbest_loss = loss
                gbest_pos = cand.copy()
        trace.append(gbest_loss)

    return OptimizeResult(best_position=gbest_pos, best_loss=gbest_loss,
                          best_expectation=None, trace=trace, evaluations=n_evals)


def adam_fipso_optimize(g: Graph, p: int, c_target: float, cfg: SwarmConfig) -> OptimizeResult:
    """Optimize the 2p QAOA angles of g against a classical target cut. The
    loss and best_expectation share one ExpectationEvaluator of g, built here."""
    box = cfg.box(p)
    if g.edge_count == 0:
        raise ValueError("the swarm is undefined for an edgeless graph: its loss is constant")
    ev = ExpectationEvaluator(g)
    result = minimize(make_objective(ev, c_target, cfg.lambda_), box, cfg)
    result.best_expectation = ev.expectation(result.best_position[:p], result.best_position[p:])
    return result
