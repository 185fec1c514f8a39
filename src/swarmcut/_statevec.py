"""Statevector kernels: the diagonal cost phase, the transverse-field mixer and
the expectation reduction. Bit q of a state index is qubit q.

A MaxCut QAOA state is symmetric under flipping every bit, a(z) = a(~z), so
the engine keeps only the half with the top qubit n-1 at 0: 2^m amplitudes
with m = n - 1, in one contiguous 1-D array. That is its only layout.

The mixer exp(-i*beta*X) factorises over qubits, so the low m qubits are
applied GROUP_QUBITS at a time as one dense 2^k x 2^k matrix M, and each
group is one flat matrix product on a rotating layout. Read as a
(2^k, 2^(m-k)) matrix, the half state's rows are indexed by its top k index
bits; the product src.T @ M.T applies M to those bits and, written out as a
C-ordered (2^(m-k), 2^k) matrix, moves them to the bottom: the index bits
rotate by k and the next group's qubits are on top. The rotations of all
groups add up to m, so the original layout is back at the end. The state
ping-pongs between the caller's array and a scratch buffer of the same
size. A MixerPlan reads a layer's input from whichever of the two makes the
last product land in the caller's array, so a caller that writes the input
there (the evaluator's phase product does) needs no copy. The top qubit is
then a reversal, the layer's last step, since
a(z ^ top) = a(~z ^ top) = half[-1 - z].

Each kernel has one call form, and the caller owns every buffer it passes:
apply_mixer takes a MixerPlan, apply_phase_table an output array. The
evaluator builds its buffers and plans once.

For halves of at most FOLD_QUBITS qubits the whole layer, top qubit
included, is one product with the 2^m x 2^m matrix U below.
Write c = cos(beta), s = -i*sin(beta) and h(a, b) = popcount(a XOR b); the
n-qubit mixer has entries w[h(a, b)], w[h] = c^(n-h) s^h. For a < 2^m,

    half'[a] = sum_b c^(n-h(a,b)) s^h(a,b) half[b]
             + sum_b c^(n-h(a,b')) s^h(a,b') a(b'),  b' = b | 2^m,

over b < 2^m. Since a(b') = a(~b') = half[b ^ (2^m - 1)], substituting
b -> b ^ (2^m - 1) turns the second sum's flip count into
h(a, b ^ (2^m - 1)) + 1 = (m - h(a, b)) + 1 = n - h(a, b). So

    U[a, b] = u[h(a, b)],  u[h] = w[h] + w[n-h],

symmetric like every group matrix. A 2^m x 2^m matrix costs 4^m complex
products per layer and a fresh build per new beta, so folding pays only
while m is small. FOLD_QUBITS comes from the particle-step column of
benchmarks/kernel_table.py, which charges those builds: at m = 5 folding
halves a particle step, at m = 6 it is level with the group chain while its
64 x 64 matrices would take four times the memo's memory.
"""

import functools
import math

import numpy as np

# Public name of the engine, kept in swarmcut.__all__; there is only this one.
BACKEND = "python"

GROUP_QUBITS = 4
FOLD_QUBITS = 5
REDUCE_CHUNK = 1 << 13


def apply_phase_table(amps: np.ndarray, values: np.ndarray, table: np.ndarray, out: np.ndarray) -> None:
    """out[z] = amps[z] * table[values[z]]; out may be amps (in place).

    A state longer than REDUCE_CHUNK is done chunk by chunk, so the gathered
    phases never take more than one chunk of memory.
    """
    if amps.size <= REDUCE_CHUNK:
        np.multiply(amps, table[values], out)
        return
    for i in range(0, amps.size, REDUCE_CHUNK):
        chunk = slice(i, i + REDUCE_CHUNK)
        np.multiply(amps[chunk], table[values[chunk]], out[chunk])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _flips(k: int) -> np.ndarray:
    """Entry (a, b) is popcount(a XOR b) for a, b < 2^k: how many of k qubits
    the matrix entry flips. One table per qubit count, built once."""
    index = np.arange(1 << k)
    xor = index[:, None] ^ index
    flips = np.zeros_like(xor)
    for q in range(k):
        flips += (xor >> q) & 1
    return _read_only(flips)


def _mixer_weights(k: int, beta: float) -> list[complex]:
    """w[h] = cos(beta)^(k-h) * (-i*sin(beta))^h for h = 0..k: the entry of
    exp(-i*beta*X) on k qubits between two indices h of whose bits differ."""
    cos_b, s = math.cos(beta), -1j * math.sin(beta)
    return [cos_b ** (k - h) * s ** h for h in range(k + 1)]


def _groups(qubits: int) -> list[int]:
    """Qubit counts of the groups a layer on qubits qubits applies, in order."""
    full, rest = divmod(qubits, GROUP_QUBITS)
    return [GROUP_QUBITS] * full + ([rest] if rest else [])


# One entry holds a layer's matrices. A p = 3 finite-difference gradient uses
# 9 distinct betas, and an evaluator uses one qubit count.
@functools.lru_cache(maxsize=32)
def _layer_matrices(qubits: int, beta: float) -> tuple[np.ndarray, ...]:
    """The matrices of one mixer layer on a half state of qubits qubits, in
    product order, each gathered from _mixer_weights: up to FOLD_QUBITS the
    folded U, above the k-qubit matrix of each group k of _groups(qubits).
    Memoised, so every matrix is read-only."""
    if qubits <= FOLD_QUBITS:
        w = _mixer_weights(qubits + 1, beta)
        return _read_only(np.array([w[h] + w[-1 - h] for h in range(qubits + 1)])[_flips(qubits)]),
    built = {k: _read_only(np.array(_mixer_weights(k, beta))[_flips(k)]) for k in set(_groups(qubits))}
    return tuple(built[k] for k in _groups(qubits))


class MixerPlan:
    """The operands of one mixer layer on a fixed half state, checked and
    built once, so that a caller mixing the same array many times pays for
    neither the buffer checks nor the reshapes again.

    amps is the contiguous 1-D array of the 2^(n-1) amplitudes with qubit
    n-1 at 0 of a bit-flip-symmetric n-qubit state, which fixes n. scratch is
    a contiguous 1-D array of the same shape and dtype that shares no memory
    with amps; apply_mixer overwrites it. source is the array a layer reads
    its input from: amps itself, or scratch when the layer takes an odd
    number of products, so that the last product lands in amps.
    """

    __slots__ = ("amps", "n", "scratch", "source", "steps", "qubits", "fold")

    def __init__(self, amps: np.ndarray, scratch: np.ndarray):
        if not (amps.ndim == 1 and amps.flags.c_contiguous):
            raise ValueError("a half state must be a contiguous 1-D array")
        if (scratch.shape != amps.shape or scratch.dtype != amps.dtype
                or not scratch.flags.c_contiguous or np.may_share_memory(amps, scratch)):
            raise ValueError("scratch must be a separate contiguous array of the state's shape and dtype")
        qubits = amps.size.bit_length() - 1
        if qubits < 0 or amps.size != 1 << qubits:
            raise ValueError(f"a half state has 2^m amplitudes, not {amps.size}")
        self.amps, self.n, self.scratch, self.qubits = amps, qubits + 1, scratch, qubits
        self.fold = qubits <= FOLD_QUBITS
        if self.fold:
            # One matrix-vector product, from scratch into amps.
            self.source, self.steps = scratch, ()
            return
        sizes = [1 << k for k in _groups(qubits)]
        buffers = (amps, scratch) if len(sizes) % 2 == 0 else (scratch, amps)
        self.source = buffers[0]
        self.steps = tuple((buffers[i % 2].reshape(size, -1).T, buffers[1 - i % 2].reshape(-1, size))
                           for i, size in enumerate(sizes))


def apply_mixer(amps: np.ndarray, n: int, beta: float, plan: MixerPlan) -> None:
    """Apply exp(-i*beta*X) to every qubit of the n-qubit symmetric state
    whose half is amps; the result lands in amps.

    plan must be built for this amps, which fixes n. The layer reads its input
    from plan.source, which the caller has filled, and overwrites plan.scratch.
    """
    if plan.amps is not amps or plan.n != n:
        raise ValueError("the mixer plan was built for another state")
    matrices = _layer_matrices(plan.qubits, beta)
    if plan.fold:
        # np.dot's matrix-vector path costs half of matmul's at these sizes.
        np.dot(matrices[0], plan.scratch, out=amps)
        return
    # Every matrix is symmetric, so it stands for the m.T of the rotated product.
    for (src, dst), m in zip(plan.steps, matrices):
        np.matmul(src, m, out=dst)
    # Qubit n-1: amps <- cos(beta)*amps - i*sin(beta)*amps[::-1].
    np.multiply(amps[::-1], -1j * math.sin(beta), out=plan.scratch)
    amps *= math.cos(beta)
    amps += plan.scratch


def expectation_value(amps: np.ndarray, values: np.ndarray) -> float:
    """Sum over basis states of |amplitude|^2 times the diagonal value; pass
    float64 values, or the product converts them on every call.

    OpenBLAS splits a dot product of more than about 10,000 elements across
    its threads, so the bits of a longer one depend on the thread count. The
    sum therefore adds dots of REDUCE_CHUNK elements in index order; a state
    of one chunk is one dot.
    """
    probs = amps.real ** 2 + amps.imag ** 2
    if probs.size <= REDUCE_CHUNK:
        return float(probs @ values)
    total = 0.0
    for i in range(0, probs.size, REDUCE_CHUNK):
        total += float(probs[i:i + REDUCE_CHUNK] @ values[i:i + REDUCE_CHUNK])
    return total
