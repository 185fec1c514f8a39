"""Statevector kernels: the diagonal cost phase, the transverse-field mixer and
the expectation reduction. Bit q of a state index is qubit q.

A MaxCut QAOA state is symmetric under flipping every bit, a(z) = a(~z), so
the engine keeps only the half with the top qubit n-1 at 0: 2^m amplitudes
with m = n - 1, in one contiguous 1-D array. That is its only layout. The
top qubit pairs z with z ^ 2^m, whose amplitude is a(~(z ^ 2^m)) =
half[2^m - 1 - z]: a reversal of the half state.

Each kernel has one call form, and the caller owns every buffer it passes:
apply_mixer takes a MixerPlan, apply_phase_table an output array. The
evaluator builds its buffers and plans once.

Folded layers. For halves of at most FOLD_QUBITS qubits the whole layer, top
qubit included, is one product with the 2^m x 2^m matrix U below.
Write c = cos(beta), s = -i*sin(beta) and h(a, b) = popcount(a XOR b); the
n-qubit mixer has entries w[h(a, b)], w[h] = c^(n-h) s^h. For a < 2^m,

    half'[a] = sum_b c^(n-h(a,b)) s^h(a,b) half[b]
             + sum_b c^(n-h(a,b')) s^h(a,b') a(b'),  b' = b | 2^m,

over b < 2^m. Since a(b') = a(~b') = half[b ^ (2^m - 1)], substituting
b -> b ^ (2^m - 1) turns the second sum's flip count into
h(a, b ^ (2^m - 1)) + 1 = (m - h(a, b)) + 1 = n - h(a, b). So

    U[a, b] = u[h(a, b)],  u[h] = w[h] + w[n-h],

a symmetric matrix. A 2^m x 2^m matrix costs 4^m complex products per
layer and a fresh build per new beta, so folding pays only while m is
small. FOLD_QUBITS comes from the particle-step column of
benchmarks/kernel_table.py, which charges those builds.

The real frame. A larger half state is kept in the frame phi = S^(x m) psi,
S = diag(1, i) on each of its m qubits, so phi[z] = i^popcount(z) psi[z].
On one qubit, now with c = cos(beta) and s = sin(beta),

    exp(-i*beta*X) = S^dagger R S,  R = [[c, -s], [s, c]],

so in the frame the mixer of qubits 0..m-1 is the real R^(x m). S
commutes with the diagonal cost phase and |phi[z]| = |psi[z]|, so the phase
product and the reduction read either frame alike. Two steps see the frame:

- The start. |+>^n is 2^(-n/2) everywhere, so in the frame it is
  2^(-n/2) i^popcount(z) (MixerPlan.start).
- The top qubit. It maps psi[z] to c psi[z] - i s psi[~z], with ~z =
  2^m - 1 - z. Let u be the state after the products on qubits 0..m-1. Since
  popcount(~z) = m - popcount(z),

      phi'[z] = c u[z] + s tau[z] u[~z],
      tau[z] = -i * i^popcount(z) * i^-(m - popcount(z))
             = (-i)^(m+1) (-1)^popcount(z).

  The products and this step commute, so it runs right after a block's
  products (below), before the qubits above the blocks. The block's last
  product matrix carries the factor c, so the products leave y = c u, and
  the step is y + tan(beta) tau y[~z]. A double is never an odd multiple of
  pi/2, so c is never 0, and tan(beta) c u costs one rounding more than s u.

Real products. The float64 view of the half state has index 2z + r, with
r = 0 for the real part and 1 for the imaginary one: float index bit 0 is
r, and bit q + 1 is qubit q. A real matrix acts on both parts alike, so
R^(x m) is R^(x m) (x) I_2 on the m + 1 float index bits. It is applied a
group of k bits at a time, as one 2^k x 2^k real product: R^(x k), or
R^(x (k-1)) (x) I_2 for the group that holds bit 0. Entry (a, b) of R^(x k)
is c^(k-h) s^h (-1)^d, with h = popcount(a XOR b) and d = popcount(~a & b),
since R's entry from 1 to 0 is -s. A k-qubit group then costs 2^(k+1) real
multiply-adds per amplitude, where a complex product costs 4 * 2^k: half
the work.

Blocks. The half state splits into blocks of 2^BLOCK_QUBITS amplitudes
(128 KiB), l = BLOCK_QUBITS of its qubits (fewer in a smaller state). Block
by block, a block's l + 1 float index bits go through all their groups, so
the block and its scratch, 256 KiB, stay in a 1 MiB L2 cache. Each product
rotates: read as a (2^k, 2^(l+1-k)) matrix, the block's rows are indexed by
its top k bits, and src.T @ M.T, written out as a C-ordered
(2^(l+1-k), 2^k) matrix, applies M to those bits and moves them to the
bottom. The next group's bits are then on top; the rotations add up to
l + 1, so the layout is back after the block's last group, the one that
holds bit 0. The top qubit pairs block b with its mirror block B - 1 - b,
so blocks go in mirror pairs, and the top-qubit step of a pair runs while
both are in cache: two NumPy calls per block, with tau[z] for z < 2^l
(the factor (-1)^popcount(b) of block b is the sign of the step). The
qubits above the blocks follow as products on the (2^k, rest) view of
their bits, in column chunks. Every product takes at most 2^18
multiply-adds (2^(l+1-k) * 2^k * 2^k in a block), and OpenBLAS runs a GEMM
of at most 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) = 2^18 on one
thread, so neither the bits nor the time of a layer depend on the BLAS
thread count or on what the other cores do.

The frame takes a few block-sized vectors per qubit count, built once: tau,
and the start as the product of a column over the qubits above the blocks
and a row over the block's. A half state of one block keeps that product
whole (_start), as a folded one keeps its uniform start, so the first layer
reads it from there and no call writes the start into a buffer.

The state ping-pongs between the caller's array and a scratch buffer of the
same size, one step at a time (a product, or a block's top-qubit step). A
MixerPlan reads a layer's input from whichever of the two makes the last
step land in the caller's array, so a caller that writes the input there
(the evaluator's phase product does) needs no copy.
"""

import functools
import math

import numpy as np

# Public name of the engine, kept in swarmcut.__all__; there is only this one.
BACKEND = "python"

GROUP_BITS = 4
BLOCK_QUBITS = 13
FOLD_QUBITS = 5
REDUCE_CHUNK = 1 << 13
# OpenBLAS runs a GEMM of at most this many multiply-adds on one thread.
_ONE_THREAD_GEMM = 1 << (BLOCK_QUBITS + 1 + GROUP_BITS)


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


def _popcount(x: np.ndarray) -> np.ndarray:
    count = np.zeros_like(x)
    while x.any():
        count += x & 1
        x = x >> 1
    return count


@functools.cache
def _flips(k: int) -> np.ndarray:
    """Entry (a, b) is popcount(a XOR b) for a, b < 2^k: how many of k qubits
    the folded matrix's entry flips. One table per qubit count, built once."""
    index = np.arange(1 << k)
    return _read_only(_popcount(index[:, None] ^ index))


@functools.cache
def _rotation_index(k: int, holds_bit0: bool) -> np.ndarray:
    """Entry (a, b) indexes the group's segment of _rotation_weights for
    entry (b, a) of its real matrix, the transpose that multiplies from the
    right: 2h + (d & 1) with h and d of the module docstring counted over the
    group's qubit bits, and the segment's trailing zero weight where a group
    holding bit 0 would mix the real and imaginary parts."""
    index = np.arange(1 << k)
    a, b = index[:, None], index
    shift = int(holds_bit0)
    table = 2 * _popcount((a ^ b) >> shift) + (_popcount((a & ~b) >> shift) & 1)
    if holds_bit0:
        table[(a ^ b) & 1 == 1] = 2 * (k - shift + 1)
    return _read_only(table)


def _rotation_weights(segments: tuple[tuple[int, bool], ...], beta: float) -> np.ndarray:
    """The weight vector of one layer's real matrices, with c = cos(beta) and
    s = sin(beta): for each (qubits, holds_bit0) of segments in turn,
    [c^(q-h) s^h, -c^(q-h) s^h for h = 0..q] over its q = qubits, with one
    factor c more for the group that holds bit 0 (a block's last product),
    and a trailing 0."""
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    weights = []
    for qubits, holds_bit0 in segments:
        for h in range(qubits + 1):
            w = cos_b ** (qubits - h + holds_bit0) * sin_b ** h
            weights += [w, -w]
        weights.append(0.0)
    return np.array(weights)


def _mixer_weights(k: int, beta: float) -> list[complex]:
    """w[h] = cos(beta)^(k-h) * (-i*sin(beta))^h for h = 0..k: the entry of
    exp(-i*beta*X) on k qubits between two indices h of whose bits differ."""
    cos_b, s = math.cos(beta), -1j * math.sin(beta)
    return [cos_b ** (k - h) * s ** h for h in range(k + 1)]


def _split(bits: int, most: int = GROUP_BITS) -> list[int]:
    """bits index bits as few groups of at most most bits as possible, of
    sizes that differ by at most one: a 1- or 2-bit product costs about what
    a 4-bit one does."""
    count = -(-bits // most)
    if not count:
        return []
    size, rest = divmod(bits, count)
    return [size + 1] * rest + [size] * (count - rest)


@functools.cache
def _groups(qubits: int) -> tuple[tuple[int, bool], ...]:
    """(bits, holds bit 0) of each product of a layer on a half state of
    qubits > FOLD_QUBITS qubits, in order: a block's groups from its top
    bits down, then the groups of the qubits above the blocks. Those take at
    most 3 bits: a product there reads rows 2^(l+1) floats apart, and on a
    2-vCPU AMD EPYC VM a 4-bit one, in chunks of 2^10 columns, took 141 us
    at n = 18 where two 2-bit ones took 87 us."""
    block = _split(min(qubits, BLOCK_QUBITS) + 1)
    above = _split(max(qubits - BLOCK_QUBITS, 0), GROUP_BITS - 1)
    return tuple((k, i == len(block) - 1) for i, k in enumerate(block)) + tuple((k, False) for k in above)


@functools.cache
def _rotation_layout(qubits: int) -> tuple[tuple[tuple[int, bool], ...], tuple[np.ndarray, ...], tuple[int, ...]]:
    """How a layer on a half state of qubits > FOLD_QUBITS qubits gathers its
    matrices from one _rotation_weights vector: the segments of that vector,
    one per distinct group of _groups(qubits); each distinct group's
    _rotation_index, offset to its segment; and, per group in product order,
    which distinct matrix it takes."""
    segments, tables, distinct = [], [], {}
    at = 0
    for k, holds_bit0 in _groups(qubits):
        if (k, holds_bit0) not in distinct:
            distinct[k, holds_bit0] = len(tables)
            segments.append((k - holds_bit0, holds_bit0))
            tables.append(_read_only(_rotation_index(k, holds_bit0) + at))
            at += 2 * (k - holds_bit0 + 1) + 1
    return tuple(segments), tuple(tables), tuple(distinct[group] for group in _groups(qubits))


@functools.cache
def _frame(qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, upper, lower) of the real frame on a half state of qubits qubits,
    split at bit l = min(qubits, BLOCK_QUBITS): tau[z] = (-i)^(m+1)
    (-1)^popcount(z) for z < 2^l, and |+>^n in the frame,
    2^(-n/2) i^popcount(z), as the product of upper[z >> l] (a column) and
    lower[z & (2^l - 1)]. Every entry is exact: 1, -1, i or -i, times
    2^(-n/2) in lower."""
    low = min(qubits, BLOCK_QUBITS)

    def powers(bits, unit):
        v = np.ones(1, dtype=complex)
        for _ in range(bits):
            v = np.concatenate([v, unit * v])
        return v

    tau = (1, -1j, -1, 1j)[(qubits + 1) % 4] * powers(low, -1)
    upper = powers(qubits - low, 1j)[:, None]
    lower = powers(low, 1j) * (1.0 / math.sqrt(1 << (qubits + 1)))
    return _read_only(tau), _read_only(upper), _read_only(lower)


@functools.cache
def _start(qubits: int) -> np.ndarray:
    """|+>^n on a half state of at most BLOCK_QUBITS qubits, in the frame of
    its MixerPlan, read-only: 2^(-n/2) everywhere for a folded layer, and
    above, the product of _frame's upper (then a single 1) and lower."""
    if qubits <= FOLD_QUBITS:
        return _read_only(np.full(1 << qubits, 1.0 / math.sqrt(1 << (qubits + 1)), dtype=complex))
    _, upper, lower = _frame(qubits)
    return _read_only(np.multiply(upper, lower).reshape(-1))


# One entry holds a layer's matrices. A p = 3 finite-difference gradient uses
# 9 distinct betas, and an evaluator uses one qubit count.
@functools.lru_cache(maxsize=32)
def _layer_matrices(qubits: int, beta: float) -> tuple[np.ndarray, ...]:
    """The matrices of one mixer layer on a half state of qubits qubits, in
    product order: up to FOLD_QUBITS the folded U, gathered from
    _mixer_weights; above, the transposed real matrix of each group of
    _groups(qubits), gathered from one _rotation_weights vector through
    _rotation_layout. Memoised, so every matrix is read-only."""
    if qubits <= FOLD_QUBITS:
        w = _mixer_weights(qubits + 1, beta)
        return _read_only(np.array([w[h] + w[-1 - h] for h in range(qubits + 1)])[_flips(qubits)]),
    segments, tables, order = _rotation_layout(qubits)
    weights = _rotation_weights(segments, beta)
    built = [_read_only(weights[table]) for table in tables]
    return tuple(built[i] for i in order)


class MixerPlan:
    """The operands of one mixer layer on a fixed half state, checked and
    built once, so that a caller mixing the same array many times pays for
    neither the buffer checks nor the reshapes again.

    amps is the contiguous 1-D array of the 2^(n-1) amplitudes with qubit
    n-1 at 0 of a bit-flip-symmetric n-qubit state, which fixes n; above
    FOLD_QUBITS half-state qubits it holds them in the real frame. scratch is
    a contiguous 1-D array of the same shape and dtype that shares no memory
    with amps; apply_mixer overwrites it. source is the array a layer reads
    its input from: amps itself, or scratch when the layer takes an odd
    number of steps, so that the last one lands in amps. blocks holds, per
    mirror pair of blocks, the pair's products as (input, output, index into
    the layer's matrices) and its top-qubit steps as (mirror block reversed,
    output, block, np.add or np.subtract); top holds the products above the
    blocks.
    """

    __slots__ = ("amps", "n", "scratch", "source", "blocks", "top", "qubits", "fold", "tau", "tan_tau")

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
            self.source, self.blocks, self.top, self.tau, self.tan_tau = scratch, (), (), None, None
            return
        if amps.dtype != np.complex128:
            raise ValueError("a half state above the folded sizes must be complex128")
        self.tau = _frame(qubits)[0]
        self.tan_tau = np.empty_like(self.tau)
        groups = _groups(qubits)
        in_block = [holds_bit0 for _, holds_bit0 in groups].index(True) + 1
        # Step o of a layer reads pair[o % 2] and writes the other: a block's
        # products, its top-qubit step, then the products above the blocks.
        pair = (amps, scratch) if len(groups) % 2 == 1 else (scratch, amps)
        self.source = pair[0]
        size = min(amps.size, 1 << BLOCK_QUBITS)
        count = amps.size // size

        def block(o, b, floats=False):
            view = pair[o % 2][b * size:(b + 1) * size]
            return view.view(np.float64) if floats else view

        blocks = []
        for b in range(max(count // 2, 1)):
            # The reversal pairs block b with its mirror image.
            members = sorted({b, count - 1 - b})
            steps = tuple((block(j, c, True).reshape(1 << k, -1).T,
                           block(j + 1, c, True).reshape(-1, 1 << k), j)
                          for c in members for j, (k, _) in enumerate(groups[:in_block]))
            # y + (-1)^popcount(c) tan(beta) tau y[~z]: tau holds the lower bits' factor.
            reversals = tuple((block(in_block, count - 1 - c)[::-1], block(in_block + 1, c), block(in_block, c),
                               np.subtract if c.bit_count() % 2 else np.add) for c in members)
            blocks.append((steps, reversals))
        self.blocks = tuple(blocks)
        top, low = [], 2 * size
        for j in range(in_block, len(groups)):
            k = groups[j][0]
            chunk = min(low, _ONE_THREAD_GEMM >> 2 * k)
            shape = (-1, 1 << k, low // chunk, chunk)
            # (outer, chunks, chunk, 2^k): the group's bits last, so that the
            # transposed matrix multiplies from the right as in a block.
            top.append(tuple(pair[o % 2].view(np.float64).reshape(shape).transpose(0, 2, 3, 1)
                             for o in (j + 1, j + 2)) + (j,))
            low <<= k
        self.top = tuple(top)

    def start(self, out: np.ndarray) -> np.ndarray:
        """The circuit's initial state |+>^n as a half state in this plan's
        frame: up to BLOCK_QUBITS qubits, a read-only array shared by every
        plan of that size; above, out, after writing it there."""
        if self.qubits <= BLOCK_QUBITS:
            return _start(self.qubits)
        _, upper, lower = _frame(self.qubits)
        np.multiply(upper, lower, out=out.reshape(upper.size, lower.size))
        return out


def apply_mixer(amps: np.ndarray, n: int, beta: float, plan: MixerPlan) -> None:
    """Apply exp(-i*beta*X) to every qubit of the n-qubit symmetric state
    whose half is amps; the result lands in amps.

    plan must be built for this amps, which fixes n and the frame. The layer
    reads its input from plan.source, which the caller has filled, and
    overwrites plan.scratch.
    """
    if plan.amps is not amps or plan.n != n:
        raise ValueError("the mixer plan was built for another state")
    matrices = _layer_matrices(plan.qubits, beta)
    if plan.fold:
        # np.dot's matrix-vector path costs half of matmul's at these sizes.
        np.dot(matrices[0], plan.scratch, out=amps)
        return
    np.multiply(plan.tau, math.tan(beta), out=plan.tan_tau)
    for steps, reversals in plan.blocks:
        for src, dst, j in steps:
            np.matmul(src, matrices[j], out=dst)
        # Qubit n-1 while the pair is in cache: y holds cos(beta) * u.
        for mirror, out, y, combine in reversals:
            np.multiply(mirror, plan.tan_tau, out=out)
            combine(y, out, out=out)
    for src, dst, j in plan.top:
        np.matmul(src, matrices[j], out=dst)


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
