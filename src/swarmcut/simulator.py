"""Exact statevector simulation of depth-p QAOA circuits for MaxCut.

The cost Hamiltonian is diagonal in the computational basis: the eigenvalue
of basis state z is the cut size of z read as a partition mask, so one layer
of cost evolution is a per-amplitude phase and one mixer layer is a 2x2 map
on every qubit. Basis indexing is little-endian, matching graphs.cut_size.
qaoa_expectation goes through ExpectationEvaluator, which simulates the
bit-flip-symmetric half state with the kernels of _statevec. landscape_grid
needs no statevector: at depth 1 the expectation has an exact per-edge closed
form in the vertex degrees and the common neighbours of each edge, so its
cost does not grow with 2^n and it has no node cap.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import _statevec
from .graphs import Graph, check_int, check_real

LANDSCAPE_DEFAULT_RANGE = (-math.pi, math.pi)
LANDSCAPE_DEFAULT_RESOLUTION = 64


@dataclass(frozen=True)
class QaoaParams:
    """Angles of a depth-p circuit, gamma for cost layers, beta for mixers."""

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        if gamma.ndim != 1 or beta.ndim != 1 or gamma.size != beta.size or gamma.size < 1:
            raise ValueError("gamma and beta must be equal-length non-empty vectors")
        if not (np.isfinite(gamma).all() and np.isfinite(beta).all()):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)

    @property
    def p(self) -> int:
        return self.gamma.size

    @classmethod
    def from_vector(cls, theta) -> "QaoaParams":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size % 2 != 0 or theta.size == 0:
            raise ValueError(f"parameter vector must have even positive length, got shape {theta.shape}")
        p = theta.size // 2
        return cls(gamma=theta[:p], beta=theta[p:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.gamma, self.beta])


class ExpectationEvaluator:
    """Repeated expectation evaluation for one graph.

    The QAOA state is symmetric under flipping every bit: cut(z) = cut(~z),
    |+>^n is symmetric, and X^n commutes with the cost phase and the mixer,
    so a(z) = a(~z) for every z. The evaluator therefore keeps only the
    2^(n-1) amplitudes with qubit n-1 = 0. It reads that half of the graph's
    cached cut spectrum as phase indices and keeps twice it as float64 for
    the reduction.

    It also keeps the half state after each layer of its last call, with
    that call's angles, and starts the next call from the first layer whose
    (gamma_k, beta_k) differ: a finite-difference probe of layer k reuses
    layers 1..k-1 of the probe before it. Each layer keeps its phase row,
    exp(-i*gamma_k*c) for every cut size c, with the gamma_k it was built
    for, and a row is rebuilt only when its layer's gamma changes: a probe of
    gamma_k, or the restore after it, rebuilds row k alone, and a probe of a
    beta rebuilds none. A depth-p call thus holds p layer buffers and
    one scratch buffer, allocated once, so an optimizer can evaluate
    thousands of parameter vectors without reallocating state-sized arrays.
    Each layer buffer comes with its _statevec.MixerPlan, checked and built
    when the buffer is allocated, and a layer's phase product goes where
    that plan reads, so no layer copies its result back. The buffers hold
    the half state in the plan's frame (for n > FOLD_QUBITS + 1 the real
    frame of _statevec, whose amplitudes differ from the plain half state's
    by factors i^popcount(z)), and the first layer's phase product reads the
    plan's |+>^n: up to n = BLOCK_QUBITS + 1 a read-only half state that
    _statevec keeps once per size, above it written into the first layer
    buffer. Every result is bit-identical to simulating all p layers afresh.

    Every function that evaluates a graph builds the evaluator it uses, and
    none is passed between functions; adam_fipso_optimize's loss and its
    best expectation share one.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.spectrum = g.cut_spectrum
        half = 1 << (g.n - 1)
        self._indices = self.spectrum[:half]
        self._values = 2.0 * self._indices
        self._phase_exponents = -1j * np.arange(int(self.spectrum.max(initial=0)) + 1, dtype=np.float64)
        self._scratch = np.empty(half, dtype=np.complex128)
        # The first _depth of _layers hold the half state after layers 1..k+1
        # at angles (_rows[k][0], _betas[k]); _rows[k] is (gamma, its phase
        # row) of the last gamma layer k took; _plans[k] mixes _layers[k]
        # through _scratch.
        self._layers: list[np.ndarray] = []
        self._plans: list[_statevec.MixerPlan] = []
        self._rows: list[tuple[float, np.ndarray | None]] = []
        self._betas: list[float] = []
        self._depth = 0

    def expectation(self, gamma, beta) -> float:
        # Python float copies: the caller may change its arrays after the call.
        gammas = np.asarray(gamma, dtype=np.float64).tolist()
        betas = np.asarray(beta, dtype=np.float64).tolist()
        p = len(gammas)
        if len(betas) != p or p == 0:
            raise ValueError(f"gamma and beta must be equal-length non-empty vectors, "
                             f"got {p} and {len(betas)} angles")
        layers, plans, rows, scratch = self._layers, self._plans, self._rows, self._scratch
        kept_b = self._betas
        start, depth = 0, min(p, self._depth)
        while start < depth and gammas[start] == rows[start][0] and betas[start] == kept_b[start]:
            start += 1
        if start < p:
            # Forget the layers about to be overwritten first, so that a call
            # interrupted mid-way leaves no stale layer matching its angles.
            self._depth = start
            while len(layers) < p:
                layers.append(np.empty_like(scratch))
                plans.append(_statevec.MixerPlan(layers[-1], scratch))
                rows.append((math.nan, None))
            self._betas = betas
            for k in range(start, p):
                if rows[k][0] != gammas[k]:
                    # One store of (gamma, row), so a row never pairs with
                    # another gamma, even after an interrupt.
                    rows[k] = gammas[k], np.exp(gammas[k] * self._phase_exponents)
                # The phase product goes where the layer's mixer reads its
                # input, so that the mixer's last product lands in layers[k].
                amps = layers[k - 1] if k else plans[0].start(layers[0])
                _statevec.apply_phase_table(amps, self._indices, rows[k][1], plans[k].source)
                _statevec.apply_mixer(layers[k], self.n, betas[k], plans[k])
            self._depth = p
        return _statevec.expectation_value(layers[p - 1], self._values)


def qaoa_expectation(g: Graph, params: QaoaParams) -> float:
    """<psi_p(gamma, beta)| H_C |psi_p(gamma, beta)> for the MaxCut Hamiltonian of g."""
    return ExpectationEvaluator(g).expectation(params.gamma, params.beta)


def _lattice_axes(gamma_range, beta_range, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The inclusive gamma and beta axes of a resolution x resolution lattice."""
    resolution = check_int("resolution", resolution, 2)
    axes = []
    for name, (lo, hi) in (("gamma_range", gamma_range), ("beta_range", beta_range)):
        lo, hi = check_real(name, lo), check_real(name, hi)
        if not lo < hi:
            raise ValueError(f"{name} ({lo}, {hi}) must satisfy lo < hi")
        axes.append(np.linspace(lo, hi, resolution))
    return tuple(axes)


def landscape_grid(g: Graph, gamma_range=LANDSCAPE_DEFAULT_RANGE,
                   beta_range=LANDSCAPE_DEFAULT_RANGE,
                   resolution: int = LANDSCAPE_DEFAULT_RESOLUTION) -> np.ndarray:
    """Depth-1 expectation on an inclusive resolution x resolution lattice.

    Entry (a, b) is the expectation at (gamma_a, beta_b), from the per-edge
    closed form of Wang, Hadfield, Jiang & Rieffel (arXiv:1706.02339).
    Summed over the edges it reads

        |E|/2 + 1/4 sin(gamma) S(gamma) sin(4 beta) - 1/4 T(gamma) sin^2(2 beta),

    S(gamma) = sum over vertices v of deg(v) cos^(deg(v)-1)(gamma),
    T(gamma) = sum over edges uv with f >= 1 common neighbours of
               cos^(deg(u)+deg(v)-2-2f)(gamma) (1 - cos^f(2 gamma)).

    Each sum is grouped by its distinct exponents, so a lattice row costs a
    few powers per distinct degree and per distinct (exponent, f) pair, and
    nothing grows with 2^n.
    """
    gammas, betas = _lattice_axes(gamma_range, beta_range, resolution)
    # Keyed by edge endpoint: isolated vertices add nothing, so the cost
    # follows |E|, not n.
    neighbours = defaultdict(set)
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    # Ascending vertex order fixes the order of the distinct degrees, and with
    # it the order in which S(gamma) adds them.
    degrees = Counter(len(neighbours[v]) for v in sorted(neighbours))
    # Edges with common neighbours, counted per (cos exponent, f).
    t_terms = Counter()
    for u, v in g.edges:
        f = len(neighbours[u] & neighbours[v])
        if f:
            t_terms[len(neighbours[u]) + len(neighbours[v]) - 2 - 2 * f, f] += 1
    s_exponents = np.array([d - 1 for d in degrees], dtype=np.float64)
    s_weights = np.array([d * count for d, count in degrees.items()], dtype=np.float64)
    t_exponents, t_common = np.array(list(t_terms), dtype=np.float64).reshape(-1, 2).T
    t_weights = np.array(list(t_terms.values()), dtype=np.float64)
    cos_g = np.cos(gammas)[:, None]
    s = (cos_g ** s_exponents) @ s_weights
    t = (cos_g ** t_exponents * (1 - np.cos(2 * gammas)[:, None] ** t_common)) @ t_weights
    return (g.edge_count / 2 + 0.25 * (np.sin(gammas) * s)[:, None] * np.sin(4 * betas)
            - 0.25 * t[:, None] * np.sin(2 * betas) ** 2)


def write_landscape_csv(path, g: Graph, gamma_range=LANDSCAPE_DEFAULT_RANGE,
                        beta_range=LANDSCAPE_DEFAULT_RANGE,
                        resolution: int = LANDSCAPE_DEFAULT_RESOLUTION) -> None:
    """Export the depth-1 landscape, one row per lattice point, gamma-major."""
    grid = landscape_grid(g, gamma_range, beta_range, resolution)
    gammas, betas = _lattice_axes(gamma_range, beta_range, resolution)
    beta_texts = [f",{b!r}," for b in betas.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("gamma,beta,expectation\n")
        for g_val, row in zip(gammas.tolist(), grid.tolist()):
            g_text = repr(g_val)
            f.write("".join(f"{g_text}{b_text}{e!r}\n" for b_text, e in zip(beta_texts, row)))
