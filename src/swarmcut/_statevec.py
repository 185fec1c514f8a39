"""Statevector kernels: the diagonal cost phase, the transverse-field mixer and
the expectation reduction. Bit q of a state index is qubit q.

The mixer exp(-i*beta*X) factorises over qubits, so it is applied to
GROUP_QUBITS qubits at a time as one dense 2^k x 2^k matrix M, and each group
is one flat matrix product on a rotating layout. Read as a (2^k, 2^(n-k))
matrix, the state's rows are indexed by its top k index bits; the product
src.T @ M.T applies M to those bits and, written out as a C-ordered
(2^(n-k), 2^k) matrix, moves them to the bottom: the index bits rotate by k
and the next group's qubits are on top. The rotations of all groups add up
to n, so the original layout is back at the end. The state ping-pongs
between the caller's array and a scratch buffer of the same size; with an
odd number of groups one copy leaves the result in the caller's array.

A MaxCut QAOA state is symmetric under flipping every bit, a(z) = a(~z), so
a caller may keep only the half with the top qubit 0: apply_mixer on the
low n-1 qubits, then apply_top_mixer for the top one, where
a(z ^ top) = a(~z ^ top) = half[-1 - z].
"""

import math

import numpy as np

# Public name of the engine, kept in swarmcut.__all__; there is only this one.
BACKEND = "python"

GROUP_QUBITS = 4

# _FLIPS[k][a, b] is popcount(a XOR b): how many qubits of a k-qubit group flip.
_FLIPS = [np.array([[bin(a ^ b).count("1") for b in range(1 << k)] for a in range(1 << k)])
          for k in range(GROUP_QUBITS + 1)]


def apply_phase_table(amps: np.ndarray, values: np.ndarray, table: np.ndarray) -> None:
    """In place: amps[z] *= table[values[z]]."""
    amps *= table[values]


def _group_mixer(k: int, cos_b: float, sin_b: float) -> np.ndarray:
    """exp(-i*beta*X) on each of k qubits: entry (a, b) is
    cos(beta)^(k-h) * (-i*sin(beta))^h with h = popcount(a XOR b)."""
    weights = [cos_b ** (k - h) * (-1j * sin_b) ** h for h in range(k + 1)]
    return np.array(weights)[_FLIPS[k]]


def _reshapes_in_place(a: np.ndarray) -> bool:
    return a.ndim == 1 or a.flags.c_contiguous


def apply_mixer(amps: np.ndarray, n: int, beta: float, scratch: np.ndarray | None = None) -> None:
    """In place: apply exp(-i*beta*X) to every qubit of the 2^n-amplitude
    state amps, a 1-D or C-contiguous array (so that its reshapes are views).

    scratch, when given, is overwritten: an array of the same shape, dtype
    and layout rule that shares no memory with amps. Without it, one is
    allocated for the call.
    """
    if not _reshapes_in_place(amps):
        raise ValueError("state must be 1-D or C-contiguous")
    if scratch is None:
        scratch = np.empty_like(amps)
    elif (scratch.shape != amps.shape or scratch.dtype != amps.dtype
          or not _reshapes_in_place(scratch) or np.may_share_memory(amps, scratch)):
        raise ValueError("scratch must be a separate 1-D or C-contiguous array of the state's shape and dtype")
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    full, rest = divmod(n, GROUP_QUBITS)
    matrices = [_group_mixer(GROUP_QUBITS, cos_b, sin_b)] * full if full else []
    if rest:
        matrices.append(_group_mixer(rest, cos_b, sin_b))
    src, dst = amps, scratch
    for m in matrices:
        size = m.shape[0]
        # m is symmetric, so it stands for the m.T of the rotated product.
        np.matmul(src.reshape(size, -1).T, m, out=dst.reshape(-1, size))
        src, dst = dst, src
    if src is not amps:
        np.copyto(amps, src)


def apply_top_mixer(half: np.ndarray, beta: float, scratch: np.ndarray) -> None:
    """In place: exp(-i*beta*X) on the top qubit of a bit-flip-symmetric state
    whose top-qubit-0 half is the 1-D array half, i.e.
    half <- cos(beta)*half - i*sin(beta)*half[::-1]. scratch is a separate
    array of the same shape and dtype; it is overwritten."""
    np.multiply(half[::-1], -1j * math.sin(beta), out=scratch)
    half *= math.cos(beta)
    half += scratch


def expectation_value(amps: np.ndarray, values: np.ndarray) -> float:
    """Sum over basis states of |amplitude|^2 times the diagonal value; pass
    float64 values, or the product converts them on every call."""
    probs = amps.real ** 2 + amps.imag ** 2
    return float(probs @ values)
