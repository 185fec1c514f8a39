"""Independent reference implementations for cross-checking the fast paths.

Everything here is deliberately built from explicit dense matrices and plain
loops so it shares no code with the package internals it checks.
"""

import itertools
from functools import reduce

import numpy as np
from scipy.linalg import expm

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def cut_size_loop(n, edges, mask):
    """Plain-loop cut size, independent of the package implementation."""
    total = 0
    for i, j in edges:
        if ((mask >> i) & 1) != ((mask >> j) & 1):
            total += 1
    return total


def cut_values_loop(n, edges):
    return np.array([cut_size_loop(n, edges, z) for z in range(2 ** n)], dtype=float)


def _x_sum(n):
    """Sum of single-qubit X operators, little-endian bit ordering."""
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        factors = [X if q == i else I2 for q in range(n)]
        total += reduce(np.kron, factors[::-1])
    return total


def dense_mixer(n, beta):
    """exp(-i*beta*X) on every qubit, as one dense 2^n x 2^n matrix."""
    return reduce(np.kron, [expm(-1j * beta * X)] * n)


def qubitwise_mixer(state, n, beta):
    """exp(-i*beta*X) on every qubit as n separate 2x2 butterflies, for sizes
    where the dense 2^n x 2^n matrix does not fit. Returns a new array."""
    c, s = np.cos(beta), -1j * np.sin(beta)
    out = np.array(state, dtype=complex)
    for q in range(n):
        pairs = out.reshape(-1, 2, 1 << q)
        zero, one = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :] = c * zero + s * one
        pairs[:, 1, :] = s * zero + c * one
    return out


def dense_state(n, edges, gammas, betas):
    """State after p alternating layers, built from explicit dense unitaries."""
    size = 2 ** n
    values = cut_values_loop(n, edges)
    psi = np.full(size, 1 / np.sqrt(size), dtype=complex)
    for g, b in zip(gammas, betas):
        cost_u = np.diag(np.exp(-1j * g * values))
        psi = dense_mixer(n, b) @ (cost_u @ psi)
    return psi


def dense_expectation(n, edges, gammas, betas):
    values = cut_values_loop(n, edges)
    psi = dense_state(n, edges, gammas, betas)
    return float(np.real(np.conj(psi) @ (values * psi)))


def closed_form_p1_expectation(n, edges, gamma, beta):
    """Depth-1 expectation from the per-edge closed form of Wang, Hadfield,
    Jiang & Rieffel (arXiv:1706.02339), with no statevector: edge (u, v)
    contributes 1/2 + 1/4 sin 4b sin g (cos^d g + cos^e g)
    - 1/4 sin^2 2b cos^(d+e-2l) g (1 - cos^l 2g), with d = deg u - 1,
    e = deg v - 1 and l the common neighbours of u and v. gamma and beta may
    be arrays of one shape."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    gamma, beta = np.asarray(gamma, dtype=float), np.asarray(beta, dtype=float)
    cos_g = np.cos(gamma)
    total = np.zeros(np.broadcast(gamma, beta).shape)
    for u, v in edges:
        d, e = len(nbrs[u]) - 1, len(nbrs[v]) - 1
        common = len(nbrs[u] & nbrs[v])
        total = total + (0.5
                         + 0.25 * np.sin(4 * beta) * np.sin(gamma) * (cos_g ** d + cos_g ** e)
                         - 0.25 * np.sin(2 * beta) ** 2 * cos_g ** (d + e - 2 * common)
                         * (1 - np.cos(2 * gamma) ** common))
    return total


LIGHTCONE_MAX_QUBITS = 18


def lightcone_expectation(n, edges, gammas, betas):
    """Depth-p expectation as the sum over edges uv of (1 - <Z_u Z_v>)/2, each
    term simulated on the ball of the vertices within distance p of {u, v}
    (Farhi, Goldstone & Gutmann, arXiv:1411.4028). In the Heisenberg picture
    the k-th phase layer from the end touches only edges with an endpoint
    within distance k - 1, so the subgraph the ball induces is exact: an edge
    between two vertices at distance p commutes with Z_u Z_v through every
    layer. Each ball is a full statevector of its own, a diagonal phase and
    qubitwise_mixer per layer; a ball of more than LIGHTCONE_MAX_QUBITS
    qubits raises ValueError before any simulation."""
    p = len(gammas)
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    balls = []
    for u, v in edges:
        ball, frontier = {u, v}, {u, v}
        for _ in range(p):
            frontier = set().union(*(nbrs[w] for w in frontier)) - ball
            ball |= frontier
        if len(ball) > LIGHTCONE_MAX_QUBITS:
            raise ValueError(f"the depth-{p} ball of edge ({u}, {v}) has {len(ball)} qubits, "
                             f"over {LIGHTCONE_MAX_QUBITS}")
        balls.append(sorted(ball))
    total = 0.0
    for (u, v), ball in zip(edges, balls):
        k = len(ball)
        local = {w: i for i, w in enumerate(ball)}
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        values = np.zeros(1 << k)
        for a, b in edges:
            if a in local and b in local:
                values += bits[:, local[a]] != bits[:, local[b]]
        psi = np.full(1 << k, 1 / np.sqrt(1 << k), dtype=complex)
        for gamma, beta in zip(gammas, betas):
            psi = qubitwise_mixer(np.exp(-1j * gamma * values) * psi, k, beta)
        differ = bits[:, local[u]] != bits[:, local[v]]
        total += float(np.sum(np.abs(psi[differ]) ** 2))
    return total


def dense_expectation_gradient(n, edges, theta):
    """Analytic gradient of the expectation over theta = (gammas, betas),
    via the product rule on the dense layer unitaries."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size // 2
    size = 2 ** n
    values = cut_values_loop(n, edges)
    x_sum = _x_sum(n)
    cost_us = [np.diag(np.exp(-1j * theta[k] * values)) for k in range(p)]
    mixer_us = [expm(-1j * theta[p + k] * x_sum) for k in range(p)]
    start = np.full(size, 1 / np.sqrt(size), dtype=complex)

    def propagate(deriv=None):
        psi = start
        for k in range(p):
            cost_u = cost_us[k]
            mixer_u = mixer_us[k]
            if deriv == ("gamma", k):
                cost_u = (-1j * np.diag(values)) @ cost_u
            if deriv == ("beta", k):
                mixer_u = (-1j * x_sum) @ mixer_u
            psi = mixer_u @ (cost_u @ psi)
        return psi

    psi = propagate()
    grad = np.empty(2 * p)
    for k in range(p):
        grad[k] = 2 * np.real(np.conj(propagate(("gamma", k))) @ (values * psi))
        grad[p + k] = 2 * np.real(np.conj(propagate(("beta", k))) @ (values * psi))
    return grad


def is_connected(n, edges):
    if n == 1:
        return True
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for nbr in adj[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == n


def connected_graphs_up_to(n_max):
    """All labeled connected graphs with 2 <= n <= n_max, as (n, edges) pairs."""
    out = []
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(pairs[k] for k in range(len(pairs)) if (bits >> k) & 1)
            if is_connected(n, edges):
                out.append((n, edges))
    return out
