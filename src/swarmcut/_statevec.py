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
between the caller's array and a scratch buffer of the same size. A
MixerPlan reads a layer's input from whichever of the two makes the last
product land in the caller's array, so a caller that writes the input there
(the evaluator's phase product does) needs no copy.

A MaxCut QAOA state is symmetric under flipping every bit, a(z) = a(~z), so
a caller may keep only the half with the top qubit n-1 at 0, 2^m amplitudes
with m = n - 1. For larger halves the low m qubits go through the groups and
the top qubit is the reversal apply_top_mixer, since
a(z ^ top) = a(~z ^ top) = half[-1 - z]. For halves of at most FOLD_QUBITS
qubits the whole layer is one product with the 2^m x 2^m matrix U below.
Write c = cos(beta), s = -i*sin(beta) and h(a, b) = popcount(a XOR b); the
n-qubit mixer has entries c^(n-h) s^h. For a < 2^m,

    half'[a] = sum_b c^(n-h(a,b)) s^h(a,b) half[b]
             + sum_b c^(n-h(a,b')) s^h(a,b') a(b'),  b' = b | 2^m,

over b < 2^m. Since a(b') = a(~b') = half[b ^ (2^m - 1)], substituting
b -> b ^ (2^m - 1) turns the second sum's flip count into
h(a, b ^ (2^m - 1)) + 1 = (m - h(a, b)) + 1 = n - h(a, b). So

    U[a, b] = u[h(a, b)],  u[h] = c^(n-h) s^h + c^h s^(n-h),

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


def apply_phase_table(amps: np.ndarray, values: np.ndarray, table: np.ndarray,
                      scratch: np.ndarray | None = None, out: np.ndarray | None = None) -> None:
    """out[z] = amps[z] * table[values[z]]; out defaults to amps (in place).

    Every values[z] must index table: the gather runs in "clip" mode, which
    writes straight into scratch (the default "raise" mode buffers and is
    slower). scratch, when given, is overwritten and must share no memory
    with amps; it may be out itself, and then the product is formed in place
    there. Without it, one is allocated for the call.
    """
    phases = table.take(values, None, scratch, "clip")
    np.multiply(amps, phases, amps if out is None else out)


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


def _group_mixer(k: int, cos_b: float, sin_b: float) -> np.ndarray:
    """exp(-i*beta*X) on each of k qubits: entry (a, b) is
    cos(beta)^(k-h) * (-i*sin(beta))^h with h = popcount(a XOR b)."""
    weights = [cos_b ** (k - h) * (-1j * sin_b) ** h for h in range(k + 1)]
    return np.array(weights)[_flips(k)]


def _folded_mixer(n: int, cos_b: float, sin_b: float) -> np.ndarray:
    """exp(-i*beta*X) on all n qubits of a bit-flip-symmetric state, acting on
    its top-qubit-0 half: entry (a, b) is u[popcount(a XOR b)] with
    u[h] = c^(n-h) s^h + c^h s^(n-h), c = cos(beta), s = -i*sin(beta)."""
    s = -1j * sin_b
    weights = [cos_b ** (n - h) * s ** h + cos_b ** h * s ** (n - h) for h in range(n)]
    return np.array(weights)[_flips(n - 1)]


def _groups(qubits: int) -> list[int]:
    """Qubit counts of the groups a layer on qubits qubits applies, in order."""
    full, rest = divmod(qubits, GROUP_QUBITS)
    return [GROUP_QUBITS] * full + ([rest] if rest else [])


# One entry holds a layer's matrices. A p = 3 finite-difference gradient uses
# 9 distinct betas, and an evaluator uses one (qubits, fold) pair.
@functools.lru_cache(maxsize=32)
def _layer_matrices(qubits: int, fold: bool, beta: float) -> tuple[np.ndarray, ...]:
    """The matrices of one mixer layer, in product order: with fold, the one
    folded matrix of the half of a symmetric (qubits + 1)-qubit state;
    without, one matrix per group of _groups(qubits). Memoised, so every
    matrix is read-only."""
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    if fold:
        return _read_only(_folded_mixer(qubits + 1, cos_b, sin_b)),
    groups = _groups(qubits)
    built = {k: _read_only(_group_mixer(k, cos_b, sin_b)) for k in set(groups)}
    return tuple(built[k] for k in groups)


def _reshapes_in_place(a: np.ndarray) -> bool:
    return a.ndim == 1 or a.flags.c_contiguous


class MixerPlan:
    """The operands of one mixer layer on a fixed state array, checked and
    built once, so that a caller mixing the same array many times pays for
    neither the buffer checks nor the reshapes again.

    amps is a 1-D or C-contiguous array (so that its reshapes are views) of
    2^n amplitudes, or, with half, the contiguous 1-D array of the 2^(n-1)
    amplitudes with qubit n-1 at 0 of a bit-flip-symmetric n-qubit state.
    scratch is an array of the same shape, dtype and layout rule that shares
    no memory with amps; apply_mixer overwrites it. source is the array a
    layer reads its input from: amps itself, or scratch when the layer takes
    an odd number of products, so that the last product lands in amps.
    """

    __slots__ = ("amps", "n", "scratch", "source", "steps", "qubits", "fold", "top")

    def __init__(self, amps: np.ndarray, n: int, scratch: np.ndarray, half: bool = False):
        if not _reshapes_in_place(amps):
            raise ValueError("state must be 1-D or C-contiguous")
        if (scratch.shape != amps.shape or scratch.dtype != amps.dtype
                or not _reshapes_in_place(scratch) or np.may_share_memory(amps, scratch)):
            raise ValueError("scratch must be a separate 1-D or C-contiguous array of the state's shape and dtype")
        if half and not (amps.ndim == 1 and amps.flags.c_contiguous and scratch.flags.c_contiguous):
            raise ValueError("a half state and its scratch must be contiguous 1-D arrays")
        qubits = n - 1 if half else n
        if qubits < 0 or amps.size != 1 << qubits:
            raise ValueError(f"a {'half ' if half else ''}state of {n} qubits cannot have {amps.size} amplitudes")
        self.amps, self.n, self.scratch, self.qubits = amps, n, scratch, qubits
        self.fold = half and qubits <= FOLD_QUBITS
        self.top = half and not self.fold
        if self.fold:
            # One matrix-vector product, from scratch into amps.
            self.source, self.steps = scratch, ()
            return
        sizes = [1 << k for k in _groups(qubits)]
        buffers = (amps, scratch) if len(sizes) % 2 == 0 else (scratch, amps)
        self.source = buffers[0]
        self.steps = tuple((buffers[i % 2].reshape(size, -1).T, buffers[1 - i % 2].reshape(-1, size))
                           for i, size in enumerate(sizes))


def apply_mixer(amps: np.ndarray, n: int, beta: float, scratch=None) -> None:
    """Apply exp(-i*beta*X) to every qubit of the n-qubit state amps; the
    result lands in amps.

    scratch is None, an array or a MixerPlan. Without a plan, amps holds all
    2^n amplitudes and the call builds one from scratch (allocated for the
    call when None; see MixerPlan for what it must be), so the mixer is in
    place. A plan must be built for this amps and n; the layer then reads
    its input from plan.source, which the caller has filled.
    """
    if isinstance(scratch, MixerPlan):
        plan = scratch
        if plan.amps is not amps or plan.n != n:
            raise ValueError("the mixer plan was built for another state")
    else:
        plan = MixerPlan(amps, n, np.empty_like(amps) if scratch is None else scratch)
        if plan.source is not amps:
            np.copyto(plan.source, amps)
    matrices = _layer_matrices(plan.qubits, plan.fold, beta)
    if plan.fold:
        # np.dot's matrix-vector path costs half of matmul's at these sizes.
        np.dot(matrices[0], plan.scratch, out=amps)
        return
    # Every matrix is symmetric, so it stands for the m.T of the rotated product.
    for (src, dst), m in zip(plan.steps, matrices):
        np.matmul(src, m, out=dst)
    if plan.top:
        apply_top_mixer(amps, beta, plan.scratch)


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
