"""Statevector kernels: the diagonal cost phase, the transverse-field mixer and
the expectation reduction. Bit q of a state index is qubit q.

The mixer exp(-i*beta*X) factorises over qubits, so it is applied to
GROUP_QUBITS qubits at a time as one dense 2^k x 2^k matrix: one matmul per
group replaces k passes over the state.
"""

import math

import numpy as np

# Public name of the engine, kept in swarmcut.__all__; there is only this one.
BACKEND = "python"

GROUP_QUBITS = 4

# Entry (a, b) is popcount(a XOR b): how many qubits of a group flip.
_FLIPS = np.array([[bin(a ^ b).count("1") for b in range(1 << GROUP_QUBITS)]
                   for a in range(1 << GROUP_QUBITS)])


def apply_phase_table(amps: np.ndarray, values: np.ndarray, table: np.ndarray) -> None:
    """In place: amps[z] *= table[values[z]]."""
    amps *= table[values]


def _group_mixer(k: int, cos_b: float, sin_b: float) -> np.ndarray:
    """exp(-i*beta*X) on each of k qubits: entry (a, b) is
    cos(beta)^(k-h) * (-i*sin(beta))^h with h = popcount(a XOR b)."""
    weights = [cos_b ** (k - h) * (-1j * sin_b) ** h for h in range(k + 1)]
    return np.array(weights)[_FLIPS[:1 << k, :1 << k]]


def apply_mixer(amps: np.ndarray, n: int, beta: float) -> None:
    """In place: apply exp(-i*beta*X) to every qubit."""
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    for q in range(0, n, GROUP_QUBITS):
        k = min(GROUP_QUBITS, n - q)
        view = amps.reshape(-1, 1 << k, 1 << q)
        # matmul buffers an operand that overlaps `out`, so this is safe in place.
        np.matmul(_group_mixer(k, cos_b, sin_b), view, out=view)


def expectation_value(amps: np.ndarray, values: np.ndarray) -> float:
    """Sum over basis states of |amplitude|^2 times the diagonal value."""
    probs = amps.real ** 2 + amps.imag ** 2
    return float(probs @ values)
