"""Exact statevector simulation of depth-p QAOA circuits for MaxCut.

The cost Hamiltonian is diagonal in the computational basis: the eigenvalue
of basis state z is the cut size of z read as a partition mask, so one layer
of cost evolution is a per-amplitude phase and one mixer layer is a 2x2 map
on every qubit. Basis indexing is little-endian, matching graphs.cut_size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _statevec
from .graphs import MAX_NODES, CapacityError, Graph

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


def build_cut_spectrum(g: Graph) -> np.ndarray:
    """Diagonal of the cost Hamiltonian: entry z is the cut size of mask z.
    The graph's read-only cached spectrum, shared by every caller."""
    return g.cut_spectrum


def init_plus_state(n: int) -> np.ndarray:
    """Uniform superposition over all 2^n basis states."""
    if n > MAX_NODES:
        raise CapacityError(f"n={n} exceeds the {MAX_NODES}-qubit statevector cap")
    size = 1 << n
    return np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128)


def apply_cost_layer(state: np.ndarray, spectrum: np.ndarray, gamma: float) -> np.ndarray:
    """Multiply amplitude z by exp(-i*gamma*spectrum[z]), in place."""
    if state.shape != spectrum.shape:
        raise ValueError(f"state size {state.shape} does not match spectrum {spectrum.shape}")
    table = np.exp(-1j * gamma * np.arange(int(spectrum.max(initial=0)) + 1, dtype=np.float64))
    _statevec.apply_phase_table(state, spectrum, table)
    return state


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply exp(-i*beta*X) to every qubit, in place."""
    n = state.size.bit_length() - 1
    if 1 << n != state.size:
        raise ValueError(f"state size {state.size} is not a power of two")
    _statevec.apply_mixer(state, n, beta)
    return state


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
    layers 1..k-1 of the probe before it. The phase tables are rebuilt only
    when the gammas change. A depth-p call thus holds p layer buffers and
    one scratch buffer, allocated once, so an optimizer can evaluate
    thousands of parameter vectors without reallocating state-sized arrays.
    Each layer buffer comes with its _statevec.MixerPlan, checked and built
    when the buffer is allocated, and a layer's phase product goes where
    that plan reads, so no layer copies its result back. Every result is
    bit-identical to simulating all p layers afresh.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.n = g.n
        self.spectrum = g.cut_spectrum
        half = 1 << (g.n - 1)
        self._indices = self.spectrum[:half]
        self._values = 2.0 * self._indices
        self._phase_exponents = -1j * np.arange(int(self.spectrum.max(initial=0)) + 1, dtype=np.float64)
        self._scratch = np.empty(half, dtype=np.complex128)
        self._init_amp = 1.0 / math.sqrt(1 << g.n)
        # The first _depth of _layers hold the half state after layers 1..k+1
        # at angles (_gammas[k], _betas[k]); row k of _tables is the phase
        # table of _gammas[k]; _plans[k] mixes _layers[k] through _scratch.
        self._layers: list[np.ndarray] = []
        self._plans: list[_statevec.MixerPlan] = []
        self._gammas: list[float] = []
        self._betas: list[float] = []
        self._depth = 0
        self._tables = None

    def expectation(self, gamma, beta) -> float:
        gamma = np.asarray(gamma, dtype=np.float64)
        # Python float copies: the caller may change its arrays after the call.
        gammas, betas = gamma.tolist(), np.asarray(beta, dtype=np.float64).tolist()
        p = len(gammas)
        if len(betas) != p:
            raise ValueError(f"gamma and beta must have equal lengths, got {p} and {len(betas)}")
        layers, plans, scratch = self._layers, self._plans, self._scratch
        kept_g, kept_b = self._gammas, self._betas
        start, depth = 0, min(p, self._depth)
        while start < depth and gammas[start] == kept_g[start] and betas[start] == kept_b[start]:
            start += 1
        if start < p:
            # Forget the layers about to be overwritten first, so that a call
            # interrupted mid-way leaves no stale layer matching its angles.
            self._depth = start
            while len(layers) < p:
                layers.append(np.empty_like(scratch))
                plans.append(_statevec.MixerPlan(layers[-1], self.n, scratch, half=True))
            if gammas != kept_g:
                # exp(-i*gamma_k*c) for every layer k and cut size c; probes of
                # a beta keep the gammas of the call before them.
                self._tables = np.exp(np.multiply.outer(gamma, self._phase_exponents))
                self._gammas = gammas
            self._betas = betas
            if start == 0:
                layers[0].fill(self._init_amp)
            for k in range(start, p):
                # The phase product goes where the layer's mixer reads its
                # input, so that the mixer's last product lands in layers[k].
                _statevec.apply_phase_table(layers[max(k - 1, 0)], self._indices, self._tables[k],
                                            scratch, plans[k].source)
                _statevec.apply_mixer(layers[k], self.n, betas[k], plans[k])
            self._depth = p
        elif p == 0:
            scratch.fill(self._init_amp)
        return _statevec.expectation_value(layers[p - 1] if p else scratch, self._values)


def evaluator_for(g: Graph, evaluator: ExpectationEvaluator | None) -> ExpectationEvaluator:
    """evaluator, checked to be one of g, or a new one of g when it is None."""
    if evaluator is None:
        return ExpectationEvaluator(g)
    if evaluator.graph is not g:
        raise ValueError("the evaluator was built for another graph")
    return evaluator


def qaoa_expectation(g: Graph, params: QaoaParams) -> float:
    """<psi_p(gamma, beta)| H_C |psi_p(gamma, beta)> for the MaxCut Hamiltonian of g."""
    return ExpectationEvaluator(g).expectation(params.gamma, params.beta)


def _lattice_axes(gamma_range, beta_range, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The inclusive gamma and beta axes of a resolution x resolution lattice."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    for lo, hi in (gamma_range, beta_range):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range ({lo}, {hi}) must be finite with lo < hi")
    return (np.linspace(gamma_range[0], gamma_range[1], resolution),
            np.linspace(beta_range[0], beta_range[1], resolution))


def landscape_grid(g: Graph, gamma_range=LANDSCAPE_DEFAULT_RANGE,
                   beta_range=LANDSCAPE_DEFAULT_RANGE,
                   resolution: int = LANDSCAPE_DEFAULT_RESOLUTION) -> np.ndarray:
    """Depth-1 expectation on an inclusive resolution x resolution lattice.

    Entry (a, b) is the expectation at (gamma_a, beta_b). At depth 1 the
    mixer turns each edge's Z_i Z_j into c^2 ZZ + cs (ZY + YZ) + s^2 YY with
    c = cos 2beta, s = sin 2beta, so for fixed gamma the expectation is
    exactly A + B cos 4beta + C sin 4beta. Two evaluations per gamma, at
    beta = +-pi/8, give A +- C; beta = 0 gives A + B = edge_count / 2.
    """
    gammas, betas = _lattice_axes(gamma_range, beta_range, resolution)
    ev = ExpectationEvaluator(g)
    plus = np.array([ev.expectation([g_val], [math.pi / 8]) for g_val in gammas])
    minus = np.array([ev.expectation([g_val], [-math.pi / 8]) for g_val in gammas])
    a = (plus + minus) / 2
    b = g.edge_count / 2 - a
    c = (plus - minus) / 2
    return a[:, None] + b[:, None] * np.cos(4 * betas) + c[:, None] * np.sin(4 * betas)


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
