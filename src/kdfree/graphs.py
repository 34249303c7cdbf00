"""Graph representation, named-graph generators and clique structure queries."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .errors import GraphFormatError, SizeLimit
from .rationals import parse_integer

VERTEX_CAP = 1000


def _check_vertex_count(n: int) -> None:
    """Reject a graph of more than VERTEX_CAP vertices before anything of
    size n is allocated: Graph, the edge-list header and the generators
    check it first."""
    if n > VERTEX_CAP:
        raise SizeLimit(f"graphs are capped at n <= {VERTEX_CAP}, got n={n}")


class Graph:
    """Simple undirected graph on vertex set 0..n-1.

    masks[v] is v's neighbourhood as a bitmask, read with bits(); the graph
    is immutable after construction and safe to share across threads.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        _check_vertex_count(n)
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks = tuple(masks)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, m in enumerate(self.masks) for v in bits(m >> u << u)]  # v > u

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def is_stable(self, vertices: Iterable[int]) -> bool:
        vs = set(vertices)
        seen = sum(1 << v for v in vs)
        return all(self.masks[v] & seen == 0 for v in vs)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        return all(self.has_edge(u, v) for u, v in combinations(vertices, 2))

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Induced subgraph on `keep`, relabelled 0..len(keep)-1 in given order."""
        index = {v: i for i, v in enumerate(keep)}
        kept = sum(1 << v for v in index)
        edges = [
            (index[u], index[v])
            for u in keep
            for v in bits(self.masks[u] & kept)
            if index[u] < index[v]
        ]
        return Graph(len(keep), edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


def bits(mask: int) -> Iterator[int]:
    """The set bits of `mask` (the vertices of a vertex bitmask), least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ── generators ────────────────────────────────────────────────────────────


def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)  # combinations() copies range(n) before Graph checks
    return Graph(n, combinations(range(n), 2))


def cycle_power(n: int, k: int) -> Graph:
    """C_n^k: vertices i,j adjacent iff their circular distance is at most k."""
    if n < 3 or k < 1:
        raise GraphFormatError("cycle_power needs n >= 3 and k >= 1")
    if 2 * k >= n:
        raise GraphFormatError(f"cycle_power needs k < n/2, got n={n}, k={k}")
    _check_vertex_count(n)
    edges = []
    for i in range(n):
        for d in range(1, k + 1):
            edges.append((i, (i + d) % n))
    return Graph(n, ((min(u, v), max(u, v)) for u, v in edges))


def cycle_graph(n: int) -> Graph:
    return cycle_power(n, 1)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: (u1,v1)~(u2,v2) iff both coordinates are equal-or-adjacent."""
    _check_vertex_count(g.n * h.n)
    edges = []
    for u1, m in enumerate(g.masks):
        for v1 in range(h.n):
            a = u1 * h.n + v1
            for u2 in bits(m | 1 << u1):
                for v2 in bits(h.masks[v1] | 1 << v1):
                    b = u2 * h.n + v2
                    if a < b:
                        edges.append((a, b))
    return Graph(g.n * h.n, edges)


def generalized_petersen(n: int, k: int) -> Graph:
    """P(n,k): outer n-cycle, inner {n,k}-star polygon, spokes between them."""
    if n < 3 or k < 1 or 2 * k >= n:
        raise GraphFormatError(f"generalized_petersen needs n >= 3, 1 <= k < n/2, got ({n},{k})")
    _check_vertex_count(2 * n)
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))          # outer cycle
        edges.append((n + i, n + (i + k) % n))  # inner star polygon
        edges.append((i, n + i))                # spoke
    return Graph(2 * n, ((min(u, v), max(u, v)) for u, v in edges))


def delete_vertices(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V minus vs, relabelled compactly preserving order.

    Returns the new graph and the old->new vertex map.
    """
    drop = set(vs)
    for v in drop:
        if not 0 <= v < g.n:
            raise GraphFormatError(f"vertex {v} out of range")
    keep = [v for v in range(g.n) if v not in drop]
    mapping = {v: i for i, v in enumerate(keep)}
    return g.induced(keep), mapping


def block_graph(
    num_blocks: int,
    omega: int,
    cross_edges: Iterable[tuple[int, int]] = (),
    outside: Sequence[Iterable[int]] = (),
    outside_edges: Iterable[tuple[int, int]] = (),
) -> Graph:
    """Disjoint K_omega blocks plus explicit cross edges and outside vertices.

    Block i occupies vertices [i*omega, (i+1)*omega); outside vertex j is
    num_blocks*omega + j with the given block-vertex neighbours;
    outside_edges are pairs of outside indices.
    """
    base = num_blocks * omega
    n = base + len(outside)
    _check_vertex_count(n)
    edges = []
    for b in range(num_blocks):
        edges.extend(combinations(range(b * omega, (b + 1) * omega), 2))
    edges.extend(cross_edges)
    for j, nbrs in enumerate(outside):
        edges.extend((base + j, u) for u in nbrs)
    edges.extend((base + a, base + b) for a, b in outside_edges)
    return Graph(n, ((min(u, v), max(u, v)) for u, v in edges))


# c5xk3_minus's deletion set for each vertex count
C5XK3_DELETIONS = {2: (0, 6), 4: (0, 1, 6, 9)}


def c5xk3_minus(count: int) -> Graph:
    """C_5 boxtimes K_3 minus 2 or 4 vertices (max degree 7/omega 6, resp. 6/5).

    The deletion set is the lexicographically least subset meeting those
    degree and clique-number targets; every qualifying subset yields the same
    fractional chromatic number, so the choice is only a tie-break.
    """
    if count not in C5XK3_DELETIONS:
        raise GraphFormatError("only the -2v and -4v deletions are defined")
    base = strong_product(cycle_graph(5), complete_graph(3))
    g, _ = delete_vertices(base, C5XK3_DELETIONS[count])
    return g


NAMED_GRAPHS = {
    "c8sq": lambda: cycle_power(8, 2),
    "c11sq": lambda: cycle_power(11, 2),
    "p72": lambda: generalized_petersen(7, 2),
    "c5xk2": lambda: strong_product(cycle_graph(5), complete_graph(2)),
    "c7xk2": lambda: strong_product(cycle_graph(7), complete_graph(2)),
    "c5xk3": lambda: strong_product(cycle_graph(5), complete_graph(3)),
    "c5xk3-2v": lambda: c5xk3_minus(2),
    "c5xk3-4v": lambda: c5xk3_minus(4),
}


# ── clique structure ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class CliqueStructure:
    """Maximum-clique structure of a graph.

    max_cliques are the maximum cliques B_1..B_l in lexicographic order;
    maximal_cliques is the full maximal-clique list backing clique-weight
    queries; level[v] is the size of the largest clique containing v, so
    the level classes partition the vertex set.
    """

    omega: int
    max_cliques: tuple[frozenset[int], ...]
    maximal_cliques: tuple[frozenset[int], ...]
    level: tuple[int, ...]
    v_omega: frozenset[int]
    v_omega_prime: frozenset[int]
    d_omega: tuple[int, ...]


def degeneracy_order(g: Graph) -> list[int]:
    """Vertices in degeneracy order (repeatedly remove a minimum-degree vertex)."""
    remaining = (1 << g.n) - 1
    deg = [m.bit_count() for m in g.masks]
    order = []
    while remaining:
        v = min(bits(remaining), key=deg.__getitem__)  # the first, so the least, of its degree
        order.append(v)
        remaining ^= 1 << v
        for u in bits(g.masks[v] & remaining):
            deg[u] -= 1
    return order


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques via Tomita-pivot Bron-Kerbosch run once from the
    root on an explicit stack of (R, P, X) bitmasks: no order, no recursion.

    Output is sorted lexicographically (by sorted vertex tuple), each clique
    built from its ascending vertices, so it is the same run to run.
    """
    masks = g.masks
    found: list[tuple[int, ...]] = []
    stack = [(0, (1 << g.n) - 1, 0)] if g.n else []
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            found.append(tuple(bits(r)))
            continue
        pivot = max(bits(p | x), key=lambda u: (masks[u] & p).bit_count())  # the least of the most
        for v in bits(p & ~masks[pivot]):
            stack.append((r | 1 << v, p & masks[v], x & masks[v]))
            p ^= 1 << v
            x |= 1 << v
    return [frozenset(c) for c in sorted(found)]


def clique_structure(g: Graph) -> CliqueStructure:
    """Exhaustive maximum-clique structure (omega, blocks, V_omega, levels)."""
    cliques = maximal_cliques(g)
    omega = max((len(c) for c in cliques), default=0)
    maxc = tuple(c for c in cliques if len(c) == omega)
    level = [0] * g.n
    for c in cliques:
        for v in c:
            if len(c) > level[v]:
                level[v] = len(c)
    inside = sum(1 << v for v in set().union(*maxc))
    delta = g.max_degree()
    v_omega = frozenset(bits(inside))
    v_prime = frozenset(v for v in bits(inside) if g.degree(v) == delta)
    d_omega = tuple((m & inside).bit_count() for m in g.masks)
    return CliqueStructure(
        omega=omega,
        max_cliques=maxc,
        maximal_cliques=tuple(cliques),
        level=tuple(level),
        v_omega=v_omega,
        v_omega_prime=v_prime,
        d_omega=d_omega,
    )


COLOURING_NODE_LIMIT = 10**5  # colour assignments one rainbow_colouring search may try


def rainbow_colouring(
    g: Graph, parts: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...] | None:
    """The four colour classes (sorted) of a proper 4-colouring of g, or None
    if g has none.  `parts` split g's vertices into cliques, so each class
    meets every 4-vertex part once.

    A deterministic complete search: it colours the least vertex with the
    fewest colours left, trying its colours in order.  Each part that the
    assignment touches then keeps for its uncoloured vertices only the
    colours they take in some matching onto the part's missing colours; if
    there is none, Hall's condition fails and the search backtracks.  Raises
    SizeLimit, naming the parts and edges, after COLOURING_NODE_LIMIT tries.
    """
    part_of = {v: tuple(part) for part in parts for v in part}
    left = [15] * g.n  # the colours each vertex may still take, as 4-bit masks
    colour = [-1] * g.n
    stack: list[tuple[int, int, list[tuple[int, int]]]] = []  # (v, its colour, undo log)
    v, c, nodes = None, 0, 0

    def match(part: tuple[int, ...], log: list[tuple[int, int]]) -> bool:
        free = [u for u in part if colour[u] < 0]
        missing = [k for k in range(4) if all(colour[u] != k for u in part)]
        kept = [0] * len(free)
        for perm in permutations(missing, len(free)):
            if all(left[u] >> k & 1 for u, k in zip(free, perm)):
                kept = [m | 1 << k for m, k in zip(kept, perm)]
        log += [(u, left[u]) for u in free]
        for u, m in zip(free, kept):
            left[u] = m
        return all(kept)

    while True:
        if v is None:
            best = min(((left[u].bit_count(), u) for u in range(g.n) if colour[u] < 0), default=())
            if not best:
                return tuple(tuple(u for u in range(g.n) if colour[u] == k) for k in range(4))
            v = best[1]
        while c < 4 and not left[v] >> c & 1:
            c += 1
        if c < 4:
            nodes += 1
            if nodes > COLOURING_NODE_LIMIT:
                raise SizeLimit(f"colouring search gave up: parts {list(parts)}, edges {g.edges()}")
            colour[v] = c
            log = [(u, left[u]) for u in bits(g.masks[v]) if colour[u] < 0]
            for u, m in log:
                left[u] = m & ~(1 << c)
            stack.append((v, c, log))
            if all(match(part, log) for part in {part_of[v], *(part_of[u] for u, _ in log)}):
                v, c = None, 0
                continue
        elif not stack:  # no colour left for v, and no assignment to undo
            return None
        v, c, log = stack.pop()  # undo the last assignment and try its next colour
        for u, m in reversed(log):
            left[u] = m
        colour[v] = -1
        c += 1


def reed_weight(
    g: Graph, cs: CliqueStructure, w: Sequence[Fraction]
) -> tuple[list[Fraction], Fraction]:
    """Per-vertex Reed weights and their maximum under vertex weights w.

    The Reed weight of v is half the sum of its closed-neighbourhood weight
    and the heaviest weight of a clique containing v; restricting the clique
    maximum to maximal cliques is exact for nonnegative weights.
    """
    if len(w) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(w)}")
    w = [Fraction(x) for x in w]
    if any(x < 0 for x in w):
        raise ValueError("reed_weight requires nonnegative weights")
    clique_w: list[Fraction] = [Fraction(0)] * g.n
    for c in cs.maximal_cliques:
        total = sum((w[v] for v in c), Fraction(0))
        for v in c:
            if total > clique_w[v]:
                clique_w[v] = total
    rho = []
    for v in range(g.n):
        degree_w = w[v] + sum((w[u] for u in bits(g.masks[v])), Fraction(0))
        rho.append(Fraction(1, 2) * (degree_w + clique_w[v]))
    return rho, max(rho, default=Fraction(0))


# ── edge-list serialization ───────────────────────────────────────────────


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: "n m" then one sorted "u v" line per edge."""
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# two decimal integers of at most 600 digits, which int() reads under any limit
_EDGE_LINE = re.compile(r"([+-]?[0-9]{1,600}) ([+-]?[0-9]{1,600})")


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format, rejecting loops, duplicates and bad ranges."""
    if not text.isascii() or "_" in text:  # the rule named once; split() takes non-ASCII spaces
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
    for row in rows[1:]:
        pair = _EDGE_LINE.fullmatch(row)
        if pair:
            u, v = int(pair[1]), int(pair[2])
        else:  # some other spacing, or a token parse_integer reads or names
            parts = row.split()
            if len(parts) != 2:
                raise GraphFormatError(f"bad edge line {row!r}")
            try:
                u, v = parse_integer(parts[0]), parse_integer(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"non-integer edge line {row!r}") from exc
        if not 0 <= u < v < n:
            if u == v:
                raise GraphFormatError(f"self-loop {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            raise GraphFormatError(f"edge line {row!r} must be written u < v")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    return Graph(n, seen)
