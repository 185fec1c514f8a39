"""Undirected simple graphs: random generation, exact and local-search MaxCut, JSON I/O.

Partition masks are little-endian integers: bit i of a mask is the side of
vertex i. The same convention indexes computational basis states in the
simulator, so a basis-state index doubles as a partition mask.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sized
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_NODES = 24


class CapacityError(Exception):
    """Problem size exceeds what exhaustive enumeration / simulation supports."""


class GraphParseError(ValueError):
    """Graph is malformed (bad JSON, self-loop, or duplicate edge)."""


class GraphValidationError(ValueError):
    """Graph is well-formed but internally inconsistent (node count, vertex range)."""


def _is_int(value) -> bool:
    # bool subclasses int, but true/false is not a vertex or a count.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise GraphValidationError(f"node count must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.edges, Iterable):
            raise GraphParseError(f"edges must be a sequence of vertex pairs, got {self.edges!r}")
        seen = set()
        normalized = []
        for edge in self.edges:
            if not (isinstance(edge, Sized) and len(edge) == 2 and all(map(_is_int, edge))):
                raise GraphParseError(f"edge {edge!r} is not a pair of integer vertices")
            i, j = edge
            if i == j:
                raise GraphParseError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphValidationError(
                    f"edge ({i}, {j}) references a vertex outside 0..{self.n - 1}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphParseError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.int8)
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = 1
        return adj

    @cached_property
    def cut_spectrum(self) -> np.ndarray:
        """Cut size of every partition mask 0..2^n-1, built once per graph
        and read-only, so every consumer can share it."""
        values = cut_values_all_masks(self)
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class CutResult:
    value: int
    mask: int


def generate_er(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): every unordered pair drawn independently."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((i, j))
    return Graph(n, tuple(edges))


def generate_ws(n: int, k: int, rewire_prob: float, seed: int) -> Graph:
    """Watts-Strogatz: ring lattice with k nearest neighbours, each lattice
    edge rewired with probability rewire_prob avoiding self-loops and
    duplicates (rewiring is skipped for saturated vertices)."""
    if k % 2 != 0 or k < 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if k >= n:
        raise ValueError(f"k must be < n, got k={k}, n={n}")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValueError(f"rewire probability must be in [0, 1], got {rewire_prob}")
    rng = np.random.default_rng(seed)
    adj = {u: set() for u in range(n)}
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            adj[u].add(v)
            adj[v].add(u)
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            if rng.random() < rewire_prob:
                w = int(rng.integers(0, n))
                saturated = False
                while w == u or w in adj[u]:
                    w = int(rng.integers(0, n))
                    if len(adj[u]) >= n - 1:
                        saturated = True
                        break
                if not saturated:
                    adj[u].remove(v)
                    adj[v].remove(u)
                    adj[u].add(w)
                    adj[w].add(u)
    edges = tuple((u, v) for u in range(n) for v in adj[u] if u < v)
    return Graph(n, edges)


def ws_k_for(n: int) -> int:
    """Neighbour count for the WS sweep: min(4, n//2), floored to even,
    clamped up to 2. Always valid for generate_ws at this n."""
    if n < 3:
        raise ValueError(f"need n >= 3 for a ring lattice, got {n}")
    k = min(4, n // 2)
    k -= k % 2
    return max(k, 2)


def cut_size(g: Graph, mask: int) -> int:
    """Number of edges crossing the partition encoded by mask."""
    if not 0 <= mask < (1 << g.n):
        raise ValueError(f"mask {mask} out of range for n={g.n}")
    return sum(1 for i, j in g.edges if ((mask >> i) ^ (mask >> j)) & 1)


def cut_values_all_masks(g: Graph) -> np.ndarray:
    """Cut size of every mask 0..2^n-1, as one vectorized sweep per edge."""
    if g.n > MAX_NODES:
        raise CapacityError(f"n={g.n} exceeds the {MAX_NODES}-node enumeration cap")
    idx = np.arange(1 << g.n, dtype=np.uint32)
    values = np.zeros(idx.shape, dtype=np.uint32)
    for i, j in g.edges:
        values += ((idx >> np.uint32(i)) ^ (idx >> np.uint32(j))) & np.uint32(1)
    return values.astype(np.int64)


def max_cut_bruteforce(g: Graph) -> CutResult:
    """Exact MaxCut by enumerating all 2^n partition masks."""
    values = g.cut_spectrum
    mask = int(np.argmax(values))
    return CutResult(value=int(values[mask]), mask=mask)


def one_exchange_cut(g: Graph, seed: int) -> CutResult:
    """Local search: from a random partition, flip the single vertex with the
    largest cut gain (ties to the lowest index) until no flip improves."""
    rng = np.random.default_rng(seed)
    sides = ((int(rng.integers(0, 1 << g.n)) >> np.arange(g.n)) & 1).astype(np.int64)
    adj = g.adjacency.astype(np.int64)
    deg = adj.sum(axis=1)
    while True:
        on_one = adj @ sides
        cross = np.where(sides == 1, deg - on_one, on_one)
        gain = deg - 2 * cross
        v = int(np.argmax(gain))
        if gain[v] <= 0:
            break
        sides[v] ^= 1
    mask = int(np.sum(sides << np.arange(g.n)))
    return CutResult(value=cut_size(g, mask), mask=mask)


def write_graph(path, g: Graph) -> None:
    doc = {"n": g.n, "edges": [[i, j] for i, j in g.edges]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def read_graph(path) -> Graph:
    """Read a graph JSON file ({"n": int, "edges": [[i, j], ...]})."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise GraphParseError(f"{path}: line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphParseError(f"{path}: expected an object with 'n' and 'edges'")
    if not isinstance(doc["edges"], list):
        raise GraphParseError(f"{path}: 'edges' must be a list, got {doc['edges']!r}")
    try:
        return Graph(doc["n"], tuple(doc["edges"]))
    except (GraphParseError, GraphValidationError) as e:
        raise type(e)(f"{path}: {e}") from e
