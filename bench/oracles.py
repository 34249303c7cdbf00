"""Checks made apart from kdfree.

Nothing here imports kdfree.  Every check works from the benchmark's own edge
lists (see `instances.py`) and returns a list of problems, empty when the
output is correct.  Exact arithmetic uses `fractions.Fraction`; maximal
stable sets and cliques come from networkx, imported on first use so that it
counts neither in set-up time nor in the workload's peak memory.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

_ZERO = Fraction(0)


class Adjacency:
    """The benchmark's own view of a graph: vertex count and neighbour sets."""

    def __init__(self, n: int, edges):
        self.n = n
        self.nbrs = [set() for _ in range(n)]
        for u, v in edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)
        self.edges = frozenset((min(u, v), max(u, v)) for u, v in edges)

    def stable(self, vs) -> bool:
        vs = list(vs)
        return all(v not in self.nbrs[u] for u, v in combinations(vs, 2))

    def nx(self):
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(self.n))
        h.add_edges_from(self.edges)
        return h

    def max_degree(self) -> int:
        return max((len(s) for s in self.nbrs), default=0)

    def maximal_stable_sets(self) -> list[frozenset[int]]:
        import networkx as nx

        return [frozenset(c) for c in nx.find_cliques(nx.complement(self.nx()))]

    def maximum_cliques(self) -> list[tuple[int, ...]]:
        import networkx as nx

        cliques = [tuple(sorted(c)) for c in nx.find_cliques(self.nx())]
        omega = max((len(c) for c in cliques), default=0)
        return sorted(c for c in cliques if len(c) == omega)


def same_graph(adj: Adjacency, kd_edges) -> list[str]:
    """kdfree's edge list against the benchmark's own construction."""
    got = frozenset((min(u, v), max(u, v)) for u, v in kd_edges)
    if got != adj.edges:
        return [f"graph differs from the reference construction on {len(got ^ adj.edges)} edges"]
    return []


# ── chi_f: primal and dual certificates ──────────────────────────────────


class LpOracle:
    """Exact optimality proof for a covering LP min 1.x, sum_{S ni v} x_S >= w(v).

    A primal (stable columns covering w) and a dual y >= 0 with y.w equal to
    the primal value and y(S) <= 1 on every maximal stable set prove the value
    optimal; the maximal stable sets are listed once per graph by networkx.
    """

    def __init__(self, adj: Adjacency):
        self.adj = adj
        self.stables = adj.maximal_stable_sets()

    def check(self, w, value, columns, dual) -> list[str]:
        adj, n = self.adj, self.adj.n
        problems = []
        cov = [_ZERO] * n
        total = _ZERO
        for s, x in columns:
            if x <= 0:
                problems.append(f"column {sorted(s)} has weight {x}")
            if not adj.stable(s) or any(not 0 <= v < n for v in s):
                problems.append(f"column {sorted(s)} is not a stable set")
            total += x
            for v in s:
                cov[v] += x
        if total != value:
            problems.append(f"primal columns sum to {total}, value is {value}")
        under = [v for v in range(n) if cov[v] < w[v]]
        if under:
            problems.append(f"primal leaves vertices {under[:5]} under-covered")
        if len(dual) != n or any(y < 0 for y in dual):
            problems.append("dual is not a nonnegative vector of length n")
            return problems
        dual_value = sum((y * x for y, x in zip(dual, w)), _ZERO)
        if dual_value != value:
            problems.append(f"dual value {dual_value} != primal value {value}")
        for s in self.stables:
            load = sum((dual[v] for v in s), _ZERO)
            if load > 1:
                problems.append(f"dual puts {load} > 1 on stable set {sorted(s)}")
                break
        return problems


def cycle_power_chi_f(n: int, k: int) -> Fraction:
    """chi_f(C_n^k) = n / floor(n / (k+1)) (vertex-transitive, alpha = floor(n/(k+1)))."""
    return Fraction(n, n // (k + 1))


def cycle_strong_complete_chi_f(n: int, m: int) -> Fraction:
    """chi_f(C_n boxtimes K_m) = m n / floor(n/2) (vertex-transitive)."""
    return Fraction(m * n, n // 2)


# ── constants of the bound ───────────────────────────────────────────────

# The paper's printed table: Delta -> (mu, mu*(Delta+1), d_argmin, ytilde, ytilde*mu).
PUBLISHED_TABLE = {
    6: ("0.029376", "0.205", 6, "1.518", "0.04459"),
    7: ("0.054869", "0.439", 6, "1.640", "0.08999"),
    8: ("0.062947", "0.567", 7, "1.804", "0.11353"),
    9: ("0.066406", "0.664", 7, "1.969", "0.13077"),
    10: ("0.066328", "0.730", 8, "2.146", "0.14234"),
    100: ("0.009843", "0.994", 29, "20.003", "0.19691"),
    1000: ("0.000998", None, 135, "199.979", "0.19973"),
}


def _truncate(x: Fraction, places: int) -> Fraction:
    scale = 10**places
    return Fraction(math.floor(x * scale), scale)


def _round_half_even(x: Fraction, places: int) -> Fraction:
    scale = 10**places
    y = x * scale
    low = math.floor(y)
    rest = y - low
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and low % 2):
        low += 1
    return Fraction(low, scale)


def printed_match(value: Fraction, printed: str) -> bool:
    """The printed digits are the value truncated or rounded half-even."""
    places = len(printed.split(".")[1]) if "." in printed else 0
    want = Fraction(printed)
    return _truncate(value, places) == want or _round_half_even(value, places) == want


def p_floor(delta: int, d: int) -> Fraction:
    """p(Delta, d) = [sum_{i<=3} 1/4 Pr(Bin(d, 4/omega) <= i)] / (Delta - d + 1), omega = Delta - 1."""
    q = Fraction(4, delta - 1)
    pmf = [math.comb(d, j) * q**j * (1 - q) ** (d - j) for j in range(min(d, 3) + 1)]
    cdf = [sum(pmf[: i + 1], _ZERO) for i in range(4)]
    return sum(cdf, _ZERO) / 4 / (delta - d + 1)


def own_mu(delta: int) -> tuple[Fraction, int]:
    """min over d of p(Delta, d) and its first argmin."""
    best, arg = None, 0
    for d in range(delta + 1):
        p = p_floor(delta, d)
        if best is None or p < best:
            best, arg = p, d
    return best, arg


def check_constants(delta, mu, argmin, ytilde, epsilon, bound, own=None) -> list[str]:
    mu_s, mudp1_s, d_s, yt_s, ytmu_s = PUBLISHED_TABLE[delta]
    problems = []
    if argmin != d_s:
        problems.append(f"Delta={delta}: argmin {argmin} != published {d_s}")
    pairs = [(mu, mu_s), (ytilde, yt_s), (ytilde * mu, ytmu_s)]
    if mudp1_s is not None:
        pairs.append((mu * (delta + 1), mudp1_s))
    for value, printed in pairs:
        if not printed_match(value, printed):
            problems.append(f"Delta={delta}: {float(value):.6f} does not print as {printed}")
    if epsilon != min(Fraction(1, 2), ytilde * mu) or bound != delta - epsilon:
        problems.append(f"Delta={delta}: epsilon/bound inconsistent with ytilde*mu")
    if own is not None and own != (mu, argmin):
        problems.append(f"Delta={delta}: mu {mu} (argmin {argmin}) != formula {own}")
    return problems


# ── composed two-phase certificates ──────────────────────────────────────


def check_cover(adj: Adjacency, columns, total, demand) -> list[str]:
    """Stable positive columns within `total` covering every vertex >= demand."""
    problems = []
    cov = [_ZERO] * adj.n
    used = _ZERO
    for s, x in columns:
        if x <= 0 or not adj.stable(s) or any(not 0 <= v < adj.n for v in s):
            problems.append(f"bad column {sorted(s)} weight {x}")
            break
        used += x
        for v in s:
            cov[v] += x
    if used > total:
        problems.append(f"columns sum to {used} > total {total}")
    under = [v for v in range(adj.n) if cov[v] < demand]
    if under:
        problems.append(f"vertices {under[:5]} covered less than {demand}")
    return problems


# ── sampler ──────────────────────────────────────────────────────────────

BAND_FAILURE = 1e-12  # per-check failure probability of the Hoeffding band


def hoeffding_band(trials: int) -> float:
    """Two-sided band for a mean of `trials` independent 0/1 draws."""
    return math.sqrt(math.log(2.0 / BAND_FAILURE) / (2.0 * trials))


def check_frequencies(adj: Adjacency, blocks, trials, freq) -> list[str]:
    """Block vertices at 1/omega, outside vertices at least p(Delta, d), within the band."""
    band = hoeffding_band(trials)
    delta = adj.max_degree()
    omega = len(blocks[0])
    in_block = {v for b in blocks for v in b}
    problems = []
    for v in range(adj.n):
        f = float(freq[v])
        if v in in_block:
            if abs(f - 1.0 / omega) > band:
                problems.append(f"block vertex {v}: frequency {f:.4f} vs 1/{omega} +- {band:.4f}")
        else:
            d = len(adj.nbrs[v] & in_block)
            floor = float(p_floor(delta, d))
            if f < floor - band:
                problems.append(f"outside vertex {v}: frequency {f:.4f} < p({delta},{d}) - band")
    return problems


def check_draw(adj: Adjacency, blocks, s) -> list[str]:
    """A draw is stable, maximal and meets every block exactly once."""
    s = set(s)
    if not adj.stable(s):
        return [f"draw {sorted(s)} is not stable"]
    addable = [v for v in range(adj.n) if v not in s and not (adj.nbrs[v] & s)]
    if addable:
        return [f"draw {sorted(s)} is not maximal: {addable[:3]} can join"]
    hits = [len(s & set(b)) for b in blocks]
    if any(h != 1 for h in hits):
        return [f"draw {sorted(s)} meets the blocks {hits} times"]
    return []


# ── structure detectors, by brute force ──────────────────────────────────


def eligibility_oracle(adj: Adjacency) -> dict:
    """Delta >= 6, omega = Delta - 1, disjoint maximum cliques, no outside
    vertex with two neighbours in one; least witnesses where they fail."""
    cliques = adj.maximum_cliques()
    delta = adj.max_degree()
    omega = len(cliques[0]) if cliques else 0
    disjoint = next(
        ((a, b) for a, b in combinations(cliques, 2) if set(a) & set(b)), None
    )
    external = None
    for v in range(adj.n):
        for c in cliques:
            if v not in c and len(adj.nbrs[v] & set(c)) > 1:
                external = (v, c)
                break
        if external:
            break
    return {
        "delta": delta,
        "omega": omega,
        "disjoint": disjoint,
        "external": external,
        "passed": delta >= 6 and omega == delta - 1 and disjoint is None and external is None,
    }


def bump_oracle(adj: Adjacency):
    """Least (C, y1, y2, y3, v1, v2): C a maximum clique, v1 ~ v2 outside C,
    N(v1) and N(v2) inside a 3-subset of C are {y1,y2} and {y2,y3}."""
    best = None
    for c in adj.maximum_cliques():
        cs = set(c)
        for v1 in range(adj.n):
            if v1 in cs:
                continue
            for v2 in adj.nbrs[v1] - cs:
                for ys in combinations(c, 3):
                    n1 = adj.nbrs[v1] & set(ys)
                    n2 = adj.nbrs[v2] & set(ys)
                    shared = n1 & n2
                    if len(n1) == 2 and len(n2) == 2 and len(shared) == 1:
                        (y2,) = shared
                        (y1,) = n1 - shared
                        (y3,) = n2 - shared
                        key = (c, y1, y2, y3, v1, v2)
                        if best is None or key < best:
                            best = key
    return best


def _shape(edges) -> tuple:
    """Sorted (size, edge count, degree sequence) of each component with an edge."""
    parent: dict[int, int] = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    comps: dict[int, list[int]] = {}
    for v in deg:
        comps.setdefault(find(v), []).append(v)
    shapes = []
    for root, members in comps.items():
        count = sum(1 for u, _ in edges if find(u) == root)
        shapes.append((len(members), count, tuple(sorted(deg[v] for v in members))))
    return tuple(sorted(shapes))


NEAR_CLIQUE_SHAPES = {
    "matching2": ((2, 1, (1, 1)), (2, 1, (1, 1))),
    "P2+P3": ((2, 1, (1, 1)), (3, 2, (1, 1, 2))),
    "2xP3": ((3, 2, (1, 1, 2)), (3, 2, (1, 1, 2))),
    "P4": ((4, 3, (1, 1, 2, 2)),),
}


def near_clique_oracle(adj: Adjacency, size: int) -> dict[str, tuple[int, ...] | None]:
    """Least `size`-subset whose complement edges form each pattern, by full sweep."""
    found: dict[str, tuple[int, ...] | None] = {p: None for p in NEAR_CLIQUE_SHAPES}
    by_shape = {shape: p for p, shape in NEAR_CLIQUE_SHAPES.items()}
    for sub in combinations(range(adj.n), size):
        missing = [(u, v) for u, v in combinations(sub, 2) if v not in adj.nbrs[u]]
        if not 2 <= len(missing) <= 4:
            continue
        pattern = by_shape.get(_shape(missing))
        if pattern is not None and found[pattern] is None:
            found[pattern] = sub
    return found


# ── interval colourings ──────────────────────────────────────────────────


def _union(intervals) -> list[tuple[Fraction, Fraction]]:
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def colour_of(assignment, v) -> list[tuple[Fraction, Fraction]]:
    return _union(iv for s, ivs in assignment if v in s for iv in ivs)


def check_extension(adj: Adjacency, k, before, after, after_k, target, demand) -> list[str]:
    """`after` is a valid interval colouring in [0,k), every target vertex gets
    at least its demand, and every other vertex keeps its colour exactly.

    `before`/`after` are lists of (stable set, [(lo, hi), ...]).
    """
    problems = []
    if after_k != k:
        problems.append(f"colouring span changed from {k} to {after_k}")
    pieces = []
    for s, ivs in after:
        if not adj.stable(s):
            problems.append(f"colour class {sorted(s)} is not stable")
        for lo, hi in ivs:
            if not 0 <= lo < hi <= k:
                problems.append(f"interval [{lo},{hi}) escapes [0,{k})")
            pieces.append((lo, hi, sorted(s)))
    pieces.sort()
    for (lo1, hi1, s1), (lo2, hi2, s2) in zip(pieces, pieces[1:]):
        if lo2 < hi1:
            problems.append(f"intervals [{lo1},{hi1}) of {s1} and [{lo2},{hi2}) of {s2} overlap")
            break
    target = set(target)
    for v in range(adj.n):
        mine = colour_of(after, v)
        if v in target:
            got = sum((hi - lo for lo, hi in mine), _ZERO)
            if got < demand[v]:
                problems.append(f"target vertex {v} gets {got} < demand {demand[v]}")
        elif mine != colour_of(before, v):
            problems.append(f"vertex {v} off the target changed colour")
    return problems
