"""Benchmark inputs: each graph is built twice, by a kdfree generator and by
the benchmark's own construction, so the checks never trust kdfree's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Callable

import kdfree.graphs as graphs

from oracles import Adjacency


@dataclass
class Instance:
    name: str
    graph: graphs.Graph  # built by kdfree
    reference: Callable[[], tuple[int, list]]  # (n, edges) built here, on demand


def _cycle_power_edges(n, k):
    return [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)]


def _cycle_strong_complete_edges(n, m):
    """C_n boxtimes K_m with vertex (i, a) numbered i*m + a."""
    edges = []
    for i in range(n):
        for a, b in combinations(range(m), 2):
            edges.append((i * m + a, i * m + b))
        j = (i + 1) % n
        for a in range(m):
            for b in range(m):
                edges.append((i * m + a, j * m + b))
    return edges


def _petersen_edges(n, k):
    return [e for i in range(n) for e in ((i, (i + 1) % n), (n + i, n + (i + k) % n), (i, n + i))]


def _block_edges(blocks, omega, cross=(), outside=(), outside_edges=()):
    base = blocks * omega
    edges = [e for b in range(blocks) for e in combinations(range(b * omega, (b + 1) * omega), 2)]
    edges += list(cross)
    edges += [(base + j, u) for j, nbrs in enumerate(outside) for u in nbrs]
    edges += [(base + a, base + b) for a, b in outside_edges]
    return base + len(outside), edges


def cycle_power(n, k):
    g = graphs.cycle_power(n, k)
    return Instance(f"C{n}^{k}", g, lambda: (n, _cycle_power_edges(n, k)))


def cycle_strong_complete(n, m):
    g = graphs.strong_product(graphs.cycle_graph(n), graphs.complete_graph(m))
    return Instance(f"C{n}xK{m}", g, lambda: (n * m, _cycle_strong_complete_edges(n, m)))


def petersen(n, k):
    g = graphs.generalized_petersen(n, k)
    return Instance(f"P({n},{k})", g, lambda: (2 * n, _petersen_edges(n, k)))


def block(name, blocks, omega, cross=(), outside=(), outside_edges=()):
    g = graphs.block_graph(blocks, omega, cross, outside, outside_edges)
    return Instance(name, g, lambda: _block_edges(blocks, omega, cross, outside, outside_edges))


def path_strong_complete(length, m):
    """P_length boxtimes K_m: a row of K_m blocks, consecutive blocks joined."""
    path = graphs.Graph(length, [(i, i + 1) for i in range(length - 1)])
    g = graphs.strong_product(path, graphs.complete_graph(m))

    def reference():
        edges = [e for i in range(length) for e in combinations(range(i * m, (i + 1) * m), 2)]
        edges += [(i * m + a, (i + 1) * m + b)
                  for i in range(length - 1) for a in range(m) for b in range(m)]
        return length * m, edges

    return Instance(f"P{length}xK{m}", g, reference)


# kdfree's eight named graphs and the definition each one is checked against.
NAMED_REFERENCE = {
    "c8sq": lambda: (8, _cycle_power_edges(8, 2)),
    "c11sq": lambda: (11, _cycle_power_edges(11, 2)),
    "p72": lambda: (14, _petersen_edges(7, 2)),
    "c5xk2": lambda: (10, _cycle_strong_complete_edges(5, 2)),
    "c7xk2": lambda: (14, _cycle_strong_complete_edges(7, 2)),
    "c5xk3": lambda: (15, _cycle_strong_complete_edges(5, 3)),
    "c5xk3-2v": lambda: c5xk3_reference(2),
    "c5xk3-4v": lambda: c5xk3_reference(4),
}


def named(name):
    return Instance(name, graphs.NAMED_GRAPHS[name](), NAMED_REFERENCE[name])


def c5xk3_reference(count):
    """Least `count`-subset of C5 boxtimes K3 whose deletion reaches max
    degree 7 / clique number 6 (two deleted) or 6 / 5 (four deleted)."""
    target = {2: (7, 6), 4: (6, 5)}[count]
    base = _cycle_strong_complete_edges(5, 3)
    for drop in combinations(range(15), count):
        keep = [v for v in range(15) if v not in drop]
        index = {v: i for i, v in enumerate(keep)}
        edges = [(index[u], index[v]) for u, v in base if u in index and v in index]
        adj = Adjacency(len(keep), edges)
        if adj.max_degree() != target[0]:
            continue
        if len(adj.maximum_cliques()[0]) <= target[1]:
            return len(keep), edges
    raise ValueError("no qualifying deletion")


# ── eligible block instances (blocks of size Delta - 1) ──────────────────

OUTSIDE_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def tiny_a():
    """Two K5 blocks bridged at 0-5, one apex vertex seeing both."""
    return block("tiny-a", 2, 5, [(0, 5)], [[0, 5]])


def tiny_b():
    """Two bridges plus an outside edge hanging off distinct blocks."""
    return block("tiny-b", 2, 5, [(0, 5), (1, 6)], [[1, 6], [2, 7]], [(0, 1)])


def tiny_c():
    """One bridge, two adjacent outside vertices on different block pairs."""
    return block("tiny-c", 2, 5, [(0, 5)], [[0, 5], [1, 6]], [(0, 1)])


def medium():
    """Three K5 blocks chained through vertex 5, plus an outside K4 (n = 19)."""
    return block("medium", 3, 5, [(0, 5), (5, 10)], [[1], [6], [11], [2, 7]], OUTSIDE_K4)


def seven_outside():
    """Two bridged K5 blocks with seven outside vertices (n = 17)."""
    return block(
        "k5x2-7out", 2, 5, [(0, 5)],
        [[0], [5], [1, 6], [2, 7], [3], [8], [4, 9]],
        [(0, 1), (2, 3), (4, 5)],
    )


def delta8():
    """Three K7 blocks chained through vertex 7, plus an outside K4 (Delta 8)."""
    return block("3xK7", 3, 7, [(0, 7), (7, 14)], [[1], [8], [15], [2, 9]], OUTSIDE_K4)


def delta10():
    """Four K9 blocks chained, plus an outside K4 with a pendant (Delta 10)."""
    return block(
        "4xK9", 4, 9, [(0, 9), (9, 18), (18, 27)],
        [[1], [10], [19], [28], [2, 11]],
        OUTSIDE_K4 + [(3, 4)],
    )


def weighted_batch(seed: int, count: int):
    """`count` G(n, 1/2) graphs, n cycling through 14..18, with weights p/q,
    q in 1..6 and 0 <= p/q <= 2, all drawn from the seed."""
    rng = Random(f"chif-weighted:{seed}")
    out = []
    for i in range(count):
        n = 14 + i % 5
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        weights = []
        for _ in range(n):
            den = rng.randint(1, 6)
            weights.append(Fraction(rng.randint(0, 2 * den), den))
        out.append((Instance(f"G{n}#{i}", graphs.Graph(n, edges), lambda n=n, e=edges: (n, e)), weights))
    return out
