"""Shared instance builders and independent brute-force oracles."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from typing import Mapping

from hypothesis import strategies as st

from kdfree.errors import GraphFormatError, LpError
from kdfree.graphs import (
    Graph,
    _check_vertex_count,
    bits,
    block_graph,
    complete_graph,
    cycle_graph,
    cycle_power,
    rainbow_colouring,
    strong_product,
)
from kdfree.rationals import parse_integer
from kdfree.sampling import StableSetSampler
from kdfree.structure import Bump


# ── eligible block instances (max degree 6, omega 5) ──────────────────────


def instance_a() -> Graph:
    """Two K5 blocks bridged at 0-5, one apex vertex seeing both blocks."""
    return block_graph(2, 5, cross_edges=[(0, 5)], outside=[[0, 5]])


def instance_b() -> Graph:
    """Two bridges plus an outside edge 10-11 hanging off distinct blocks."""
    return block_graph(
        2, 5,
        cross_edges=[(0, 5), (1, 6)],
        outside=[[1, 6], [2, 7]],
        outside_edges=[(0, 1)],
    )


def instance_c() -> Graph:
    """One bridge, two adjacent outside vertices on different block pairs."""
    return block_graph(
        2, 5,
        cross_edges=[(0, 5)],
        outside=[[0, 5], [1, 6]],
        outside_edges=[(0, 1)],
    )


def medium_instance() -> Graph:
    """Three K5 blocks chained through vertex 5, plus an outside K4.

    Vertex 5 is the only full-degree block vertex; the outside clique sits at
    level 4 so the refined level bound is exercised.
    """
    return block_graph(
        3, 5,
        cross_edges=[(0, 5), (5, 10)],
        outside=[[1], [6], [11], [2, 7]],
        outside_edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )


OUTSIDE_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def three_k7() -> Graph:
    """Three K7 blocks chained through vertex 7, plus an outside K4 (Delta 8)."""
    return block_graph(3, 7, [(0, 7), (7, 14)], [[1], [8], [15], [2, 9]], OUTSIDE_K4)


def four_k9() -> Graph:
    """Four K9 blocks chained, plus an outside K4 with a pendant (Delta 10)."""
    return block_graph(
        4, 9, [(0, 9), (9, 18), (18, 27)],
        [[1], [10], [19], [28], [2, 11]],
        OUTSIDE_K4 + [(3, 4)],
    )


def two_k75() -> Graph:
    """Two K75 blocks bridged 0-75, and two adjacent outside vertices seeing
    0, 76 and 1, 77 (n = 152, Delta 76, eligible): 1,215,450 4-subsets per
    block."""
    return block_graph(2, 75, [(0, 75)], [[0, 76], [1, 77]], [(0, 1)])


def k5_chain(blocks: int) -> Graph:
    """`blocks` K5 blocks chained 5i - 5(i+1), and an outside K4 on each
    block triple 3t, 3t+1, 3t+2 seeing them as medium_instance's does
    (Delta 6, omega 5, eligible; 18 blocks give n = 114)."""
    cross = [(5 * i, 5 * i + 5) for i in range(blocks - 1)]
    outside, edges = [], []
    for t in range(blocks // 3):
        a, b, c = (15 * t + 5 * i for i in range(3))
        edges += [(len(outside) + x, len(outside) + y) for x, y in OUTSIDE_K4]
        outside += [[a + 1], [b + 1], [c + 1], [a + 2, b + 2]]
    return block_graph(blocks, 5, cross, outside, edges)


@st.composite
def eligible_block_graphs(draw, max_blocks: int = 4) -> Graph:
    """An eligible block graph: 1 to `max_blocks` K_omega blocks, omega 5 or
    6, and Delta = omega + 1.

    Cross edges and up to 4 outside vertices give each block vertex at most
    Delta - omega + 1 = 2 neighbours off its block, at most one in any other
    block, and each outside vertex at most one neighbour per block; random
    outside edges keep every outside degree at most Delta.  So a clique off
    the blocks is a block vertex with at most 2 of its neighbours, or at most
    4 outside vertices: the blocks are the maximum cliques.  Pendant outside
    vertices fill vertex 0's 2 off-block neighbours, so Delta is omega + 1.
    """
    blocks, omega = draw(st.integers(1, max_blocks)), draw(st.sampled_from([5, 6]))
    base = blocks * omega
    spare = [2] * base  # off-block neighbours a block vertex may still get
    sees: list[set[int]] = [set() for _ in range(base)]  # other blocks it meets
    cross = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, base - 1), st.integers(0, base - 1)), max_size=8)):
        bu, bv = u // omega, v // omega
        if bu != bv and spare[u] and spare[v] and bv not in sees[u] and bu not in sees[v]:
            cross.append((u, v))
            spare[u], spare[v] = spare[u] - 1, spare[v] - 1
            sees[u].add(bv)
            sees[v].add(bu)
    outside = []
    for _ in range(draw(st.integers(0, 4))):
        nbrs = []
        for b in range(blocks):
            i = draw(st.none() | st.integers(0, omega - 1))
            if i is not None and spare[b * omega + i]:
                nbrs.append(b * omega + i)
                spare[b * omega + i] -= 1
        outside.append(nbrs)
    degree = [len(nbrs) for nbrs in outside]
    edges = set()
    for a, b in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)):
        a, b = min(a, b), max(a, b)
        if a < b < len(outside) and (a, b) not in edges and max(degree[a], degree[b]) <= omega:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    outside += [[0]] * spare[0]
    return block_graph(blocks, omega, cross, outside, sorted(edges))


# ── random generators ─────────────────────────────────────────────────────


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_weights(n: int, rng: random.Random, hi: int = 2) -> list[Fraction]:
    out = []
    for _ in range(n):
        den = rng.randint(1, 6)
        out.append(Fraction(rng.randint(0, hi * den), den))
    return out


def assert_clique_partition(g: Graph, parts, k: int) -> int:
    """The clique-partition hypothesis under which chi_f = omega: the parts
    partition V into cliques of one size omega >= 2k, and Delta <= omega + k - 1.
    Returns omega."""
    assert sorted(v for p in parts for v in p) == list(range(g.n))
    omega = len(parts[0])
    assert all(len(p) == omega and g.is_clique(p) for p in parts)
    assert omega >= 2 * k and g.max_degree() <= omega + k - 1
    return omega


def random_partitioned_instance(
    rng: random.Random, omega: int, k: int, blocks: int, p: float
) -> Graph:
    """`blocks` disjoint K_omega parts plus random edges between parts, each
    kept with probability p while both ends have degree below omega + k - 1."""
    g = block_graph(blocks, omega)
    cap = omega + k - 1
    degree = {v: omega - 1 for v in range(g.n)}
    edges = set(g.edges())
    candidates = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if u // omega != v // omega
    ]
    rng.shuffle(candidates)
    for u, v in candidates:
        if degree[u] < cap and degree[v] < cap and rng.random() < p:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    g2 = Graph(g.n, edges)
    parts = [range(i * omega, (i + 1) * omega) for i in range(blocks)]
    assert_clique_partition(g2, parts, k)
    return g2


# ── brute-force oracles ───────────────────────────────────────────────────


def quarter_tail_sum(d: int, omega: int) -> Fraction:
    """sum_{i=0..3} 1/4 * Pr(Bin(d, 4/omega) <= i), from the binomial pmf;
    p(Delta, d) is this over Delta - d + 1 at omega = Delta - 1."""
    if omega < 4:
        raise ValueError(f"needs omega >= 4, got {omega}")
    p = Fraction(4, omega)
    pmf = [comb(d, j) * p**j * (1 - p) ** (d - j) for j in range(min(d, 3) + 1)]
    return sum((sum(pmf[: i + 1], Fraction(0)) for i in range(4)), Fraction(0)) / 4


# graphs at the vertex cap: the worst case for clique listing, a long run of
# overlapping windows, a sparse random graph and 100-fold blown-up cycle
CAP_GRAPHS = {
    "K1000": lambda: complete_graph(1000),
    "C1000^3": lambda: cycle_power(1000, 3),
    "C1000^20": lambda: cycle_power(1000, 20),
    "G(1000,0.01)": lambda: random_graph(1000, 0.01, random.Random("cap:G(1000,0.01)")),
    "C5xK100": lambda: strong_product(cycle_graph(5), complete_graph(100)),
}


@cache
def cap_graph(name: str) -> Graph:
    return CAP_GRAPHS[name]()


def neighbours(g: Graph, v: int) -> frozenset[int]:
    """v's neighbours as a set, read off its bitmask."""
    return frozenset(bits(g.masks[v]))


# ── set-based oracles: the package's algorithms before adjacency was masks ─


def set_degeneracy_order(g: Graph) -> list[int]:
    """Vertices in degeneracy order (repeatedly remove a minimum-degree vertex)."""
    adj = [neighbours(g, v) for v in range(g.n)]
    remaining = set(range(g.n))
    deg = {v: len(adj[v]) for v in remaining}
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (deg[u], u))
        order.append(v)
        remaining.remove(v)
        for u in adj[v]:
            if u in remaining:
                deg[u] -= 1
    return order


def set_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Tomita-pivot Bron-Kerbosch on Python sets, from the root on an
    explicit (R, P, X) stack; sorted by sorted vertex tuple."""
    adj = [neighbours(g, v) for v in range(g.n)]
    found: list[frozenset[int]] = []
    stack = [(frozenset(), set(range(g.n)), set())] if g.n else []
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            found.append(r)
            continue
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)
    return sorted(found, key=lambda c: tuple(sorted(c)))


def set_find_bump(g: Graph, max_cliques) -> Bump | None:
    """The least bump by (sorted C, y1, y2, y3, v1, v2), scanning every
    outside pair of every maximum clique on Python sets."""
    adj = [neighbours(g, v) for v in range(g.n)]
    for c in max_cliques:
        keys = []
        for v1 in range(g.n):
            if v1 in c:
                continue
            n1 = adj[v1] & c
            for v2 in adj[v1] - c:
                n2 = adj[v2] & c
                if n1 - n2 and n1 & n2 and n2 - n1:
                    keys.append((min(n1 - n2), min(n1 & n2), min(n2 - n1), v1, v2))
        if keys:
            return Bump(frozenset(sorted(c)), *min(keys))
    return None


def split_read_edge_list(text: str) -> Graph:
    """The edge-list reader that splits every line and reads each token with
    parse_integer, with the same checks and messages."""
    if not text.isascii() or "_" in text:
        raise GraphFormatError("edge lists hold ASCII digits and whitespace only, no '_'")
    rows = [line for line in (ln.strip() for ln in text.splitlines()) if line]
    if not rows:
        raise GraphFormatError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = parse_integer(head[0]), parse_integer(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {rows[0]!r}") from exc
    _check_vertex_count(n)
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    seen = set()
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {row!r}")
        try:
            u, v = parse_integer(parts[0]), parse_integer(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {row!r}") from exc
        if u == v:
            raise GraphFormatError(f"self-loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
        if u > v:
            raise GraphFormatError(f"edge line {row!r} must be written u < v")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


@dataclass(frozen=True)
class ExactMarginals:
    """Full enumeration of the two-stage distribution on a tiny instance."""

    pr_s: tuple[Fraction, ...]
    pr_s_omega: tuple[Fraction, ...]
    block_nb_empty: Mapping[int, Fraction]
    expected_closed: tuple[Fraction, ...]
    distribution: tuple[tuple[frozenset[int], Fraction], ...]


def exact_marginals(g: Graph) -> ExactMarginals:
    """Exact per-vertex Pr(v in S) (and companions) by full enumeration:
    StableSetSampler.enumerate_exact's weights, reduced by its marginals."""
    sampler = StableSetSampler(g)
    weights, total = sampler.enumerate_exact()
    return ExactMarginals(
        *sampler.marginals(weights.items(), total, sampler.outside),
        distribution=tuple(
            (frozenset(bits(s)), Fraction(w, total)) for s, w in sorted(weights.items())
        ),
    )


# ── brute force ───────────────────────────────────────────────────────────


def brute_stable_sets(g: Graph) -> list[frozenset[int]]:
    out = []
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        if g.is_stable(vs):
            out.append(frozenset(vs))
    return out


def brute_independence_number(g: Graph) -> int:
    return max(len(s) for s in brute_stable_sets(g))


def brute_max_weight_stable(g: Graph, w) -> Fraction:
    return max(sum((w[v] for v in s), Fraction(0)) for s in brute_stable_sets(g))


def brute_cliques(g: Graph) -> list[frozenset[int]]:
    out = []
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        if vs and g.is_clique(vs):
            out.append(frozenset(vs))
    return out


def brute_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    cliques = brute_cliques(g)
    return sorted(
        (c for c in cliques if not any(c < d for d in cliques)),
        key=lambda c: tuple(sorted(c)),
    )


def brute_omega(g: Graph) -> int:
    return max((len(c) for c in brute_cliques(g)), default=0)


def brute_bumps(g: Graph) -> list[tuple]:
    """All (C, y1, y2, y3, v1, v2) bump tuples by full enumeration."""
    cliques = brute_maximal_cliques(g)
    omega = max((len(c) for c in cliques), default=0)
    hits = []
    for c in cliques:
        if len(c) != omega:
            continue
        outside = [v for v in range(g.n) if v not in c]
        for v1 in outside:
            for v2 in outside:
                if v1 == v2 or not g.has_edge(v1, v2):
                    continue
                for y1, y2, y3 in combinations(sorted(c), 3):
                    for a, b, cc in ((y1, y2, y3), (y2, y1, y3), (y1, y3, y2)):
                        ys = {a, b, cc}
                        if neighbours(g, v1) & ys == {a, b} and neighbours(g, v2) & ys == {b, cc}:
                            hits.append((tuple(sorted(c)), a, b, cc, v1, v2))
    return hits


def _component_shapes(vertices: list[int], edges: list[tuple[int, int]]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(size, edge count, sorted degree sequence) per connected component."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    comps: dict[int, list[int]] = {}
    for v in vertices:
        comps.setdefault(find(v), []).append(v)
    deg = {v: 0 for v in vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    shapes = []
    for members in comps.values():
        size = len(members)
        ecount = sum(1 for u, v in edges if find(u) == find(members[0]))
        shapes.append((size, ecount, tuple(sorted(deg[v] for v in members))))
    return shapes


PATTERN_SHAPES = {
    # multiset of (component size, edges, degree sequence), singletons dropped
    "matching2": [(2, 1, (1, 1)), (2, 1, (1, 1))],
    "P2+P3": [(2, 1, (1, 1)), (3, 2, (1, 1, 2))],
    "2xP3": [(3, 2, (1, 1, 2)), (3, 2, (1, 1, 2))],
    "P4": [(4, 3, (1, 1, 2, 2))],
}


def brute_near_cliques(g: Graph, delta: int, pattern: str) -> list[tuple[int, ...]]:
    """All delta-subsets whose induced complement matches, via full sweep."""
    want = sorted(PATTERN_SHAPES[pattern])
    hits = []
    for sub in combinations(range(g.n), delta):
        comp_edges = [(u, v) for u, v in combinations(sub, 2) if not g.has_edge(u, v)]
        touched = sorted({v for e in comp_edges for v in e})
        shapes = sorted(_component_shapes(touched, comp_edges))
        if shapes == want:
            hits.append(sub)
    return hits


class ReferenceTableau:
    """The LP's dual tableau with every row stored: one row per basic
    variable, slack or y, each rewritten by every pivot.  The same Bareiss
    pivots and Bland rules as `kdfree.lp._DualTableau`, which stores only the
    rows whose basic variable is a y, so the two must agree pivot for pivot.
    """

    def __init__(self, weights, rows):
        self.n = len(weights)
        self.scale = lcm(*(x.denominator for x in weights))
        self.d = 1
        self.cols = list(range(self.n))
        self.z = [-(x.numerator * (self.scale // x.denominator)) for x in weights]
        self.z_rhs = 0
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        for s in rows:
            self._append(s)
        rows, rhs, basis, z = self.rows, self.rhs, self.basis, self.z
        while True:
            entering = [(v, j) for j, v in enumerate(self.cols) if z[j] < 0]
            if not entering:
                return
            enter = min(entering)[1]
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    # minimise rhs[i]/a; ties leave the smallest basic variable
                    diff = -1 if leave < 0 else rhs[i] * rows[leave][enter] - rhs[leave] * a
                    if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise LpError("unbounded linear program")
            self._pivot(leave, enter)

    def _append(self, s):
        """The row y(s) <= 1, basic in a new slack and reduced against the
        current basis: D*a_s minus the rows whose basic y lies in s."""
        row = [self.d if v in s else 0 for v in self.cols]
        rhs = self.d
        for i, b in enumerate(self.basis):
            if b in s:
                row = [x - y for x, y in zip(row, self.rows[i])]
                rhs -= self.rhs[i]
        self.basis.append(self.n + len(self.rows))
        self.rows.append(row)
        self.rhs.append(rhs)

    def add_row(self, s):
        self._append(s)
        rows, rhs, basis, cols, z = self.rows, self.rhs, self.basis, self.cols, self.z
        while True:
            leave = -1
            for i, b in enumerate(rhs):
                if b < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return
            row = rows[leave]
            enter = -1
            for j, a in enumerate(row):
                if a < 0:
                    # minimise z[j]/-a; ties enter the smallest variable
                    diff = -1 if enter < 0 else z[enter] * a - z[j] * row[enter]
                    if diff < 0 or (diff == 0 and cols[j] < cols[enter]):
                        enter = j
            if enter < 0:
                raise LpError("infeasible row in the dual simplex")
            self._pivot(leave, enter)

    def _pivot(self, r, e):
        rows, rhs, z, d = self.rows, self.rhs, self.z, self.d
        prow, prhs = rows[r], rhs[r]
        p = prow[e]
        sign = 1
        if p < 0:
            sign, p, prhs = -1, -p, -prhs
            prow = [-b for b in prow]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[e]
            if f:
                row = rows[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
                row[e] = -sign * f
                rhs[i] = (rhs[i] * p - f * prhs) // d
            elif p != d:
                rows[i] = [a * p // d for a in row]
                rhs[i] = rhs[i] * p // d
        f = z[e]
        z[:] = [(a * p - f * b) // d for a, b in zip(z, prow)]
        z[e] = -sign * f
        self.z_rhs = (self.z_rhs * p - f * prhs) // d
        # the leaving variable takes the entering one's column
        prow[e] = sign * d
        rows[r], rhs[r] = prow, prhs
        self.basis[r], self.cols[e] = self.cols[e], self.basis[r]
        self.d = p

    def scaled_dual(self):
        """D*y for the current basis."""
        y = [0] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                y[b] = self.rhs[i]
        return y

    def value(self):
        return Fraction(self.z_rhs, self.d * self.scale)

    def primal(self):
        """Row weights of the covering LP: the reduced costs of the slacks."""
        x = [Fraction(0)] * len(self.rows)
        for j, v in enumerate(self.cols):
            if v >= self.n:
                x[v - self.n] = Fraction(self.z[j], self.d * self.scale)
        return x


def shuffle(rng, items: list) -> None:
    """Fisher-Yates from the end through rng.randrange, as random.Random's
    shuffle does."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


class TrialLoopSampler:
    """The two-stage draw as one loop per trial: one `randrange` over every
    pool column (its remainder mod 4) of every joint 4-subset choice (the
    quotient, its digits indexing each block's own `combinations(b, 4)`
    list, block 0 first), the 4-subset graph of that choice coloured afresh
    (no memo, no shapes), and one `randrange` over the insertable outside
    vertices, in vertex order, per insertion."""

    def __init__(self, g: Graph):
        self.g = g
        self.sampler = StableSetSampler(g)  # blocks and outside only
        self.choices = [list(combinations(b, 4)) for b in self.sampler.blocks]

    def pool(self, j: int) -> list[int]:
        choice = []
        for opts in self.choices:
            j, r = divmod(j, len(opts))
            choice.append(opts[r])
        tilde_vertices = sorted(v for sub in choice for v in sub)
        local = {v: i for i, v in enumerate(tilde_vertices)}
        classes = rainbow_colouring(
            self.g.induced(tilde_vertices), [[local[v] for v in sub] for sub in choice]
        )
        return [sum(1 << tilde_vertices[i] for i in cls) for cls in classes]

    def sample(self, rng, active=None) -> tuple[int, int]:
        joint, column = divmod(rng.randrange(4 * prod(len(opts) for opts in self.choices)), 4)
        s_omega = self.pool(joint)[column]
        chosen = {v for v in range(self.g.n) if (s_omega >> v) & 1}
        outside = self.sampler.outside if active is None else active
        insertable = sorted(u for u in set(outside) if not neighbours(self.g, u) & chosen)
        s = s_omega
        while insertable:
            u = insertable[rng.randrange(len(insertable))]
            s |= 1 << u
            insertable = [v for v in insertable if v != u and not self.g.has_edge(u, v)]
        return s_omega, s


def joint_index(blocks, choice) -> int:
    """The joint choice index of `choice`, one 4-subset of each block: its
    mixed-radix digits, block 0 the least significant, are the 4-subsets'
    positions in each block's own `combinations(b, 4)` list."""
    j = 0
    for b, sub in reversed(list(zip(blocks, choice))):
        opts = list(combinations(b, 4))
        j = j * len(opts) + opts.index(tuple(sub))
    return j


class TrialStream:
    """The counter-based stream that StableSetSampler.tally reads, built
    from its description with hashlib, one draw at a time.

    Block b is the 512-bit blake2b digest of the key with b as its 16-byte
    little-endian salt (block 0 is the plain digest), read as a little-endian
    int and fetched only when the bits drawn so far run out.  randrange(n)
    draws (n - 1).bit_length() bits from the low end until they are below n.
    """

    def __init__(self, key: bytes):
        self.key = key
        self.bits = self.left = self.blocks = 0

    def randrange(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"empty range for randrange({n})")
        k = (n - 1).bit_length()
        while True:
            while self.left < k:
                salt = self.blocks.to_bytes(16, "little")
                digest = hashlib.blake2b(self.key, salt=salt).digest()
                self.bits |= int.from_bytes(digest, "little") << self.left
                self.left += 512
                self.blocks += 1
            r = self.bits & ((1 << k) - 1)
            self.bits >>= k
            self.left -= k
            if r < n:
                return r


def trial_rng(seed: int, *key: int) -> TrialStream:
    """The stream of the key string "seed:key:...", e.g. "7:3" for trial 3
    of seed 7."""
    return TrialStream(":".join(map(str, (seed, *key))).encode())
