"""Detectors for the structural configurations behind the colouring pipeline.

Everything here is detection only: each operation either certifies that a
configuration is absent or returns a concrete witness that re-validates
against the graph.  Witnesses are canonical (lexicographically least) so runs
are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import SizeLimit
from .graphs import CliqueStructure, Graph, clique_structure

NEAR_CLIQUE_EXHAUSTIVE_LIMIT = 20

# pattern id -> signature of its complement edge shape on a Delta-vertex set:
# the sorted (deg a, deg b) pairs over its edges, degrees within the pattern
_SIGNATURES = {
    "matching2": ((1, 1), (1, 1)),
    "P2+P3": ((1, 1), (1, 2), (1, 2)),
    "2xP3": ((1, 2), (1, 2), (1, 2), (1, 2)),
    "P4": ((1, 2), (1, 2), (2, 2)),
}
NEAR_CLIQUE_PATTERNS = tuple(_SIGNATURES)


@dataclass(frozen=True)
class Bump:
    clique: frozenset[int]
    y1: int
    y2: int
    y3: int
    v1: int
    v2: int

    def validate(self, g: Graph) -> bool:
        y = {self.y1, self.y2, self.y3}
        return (
            g.is_clique(self.clique)
            and y <= self.clique
            and len(y) == 3
            and self.v1 not in self.clique
            and self.v2 not in self.clique
            and self.v1 != self.v2
            and g.has_edge(self.v1, self.v2)
            and g.adj[self.v1] & y == {self.y1, self.y2}
            and g.adj[self.v2] & y == {self.y2, self.y3}
        )


def find_bump(g: Graph, cs: CliqueStructure) -> Bump | None:
    """A maximum clique C plus adjacent outside v1,v2 whose neighbourhoods
    inside a 3-subset Y of C are {y1,y2} and {y2,y3}; the least by
    (sorted C, y1, y2, y3, v1, v2).

    With n1, n2 the neighbours of v1, v2 in C, the valid (y1, y2, y3) are
    exactly the members of n1 - n2, n1 & n2 and n2 - n1, so each pair's least
    bump takes their three minima, and the first clique with a bump holds the
    least one."""
    for c in cs.max_cliques:
        keys = []
        for v1 in range(g.n):
            if v1 in c:
                continue
            n1 = g.adj[v1] & c
            for v2 in g.adj[v1] - c:
                n2 = g.adj[v2] & c
                if n1 - n2 and n1 & n2 and n2 - n1:
                    keys.append((min(n1 - n2), min(n1 & n2), min(n2 - n1), v1, v2))
        if keys:
            # from the sorted vertices: a set's printed order follows insertion
            # order where hashes collide, and `kdfree check` prints the bump
            return Bump(frozenset(sorted(c)), *min(keys))
    return None


# ── near-cliques: K_Delta minus a small edge pattern ──────────────────────


def _signature(edges: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The sorted (deg a, deg b) pairs over `edges`, degrees within them.  On
    2-4 edges it equals a pattern's entry in `_SIGNATURES` exactly when the
    edges form that pattern."""
    deg = Counter(v for edge in edges for v in edge)
    return tuple(sorted(tuple(sorted((deg[a], deg[b]))) for a, b in edges))


def find_near_clique(
    g: Graph, delta: int, pattern: str, cs: CliqueStructure | None = None
) -> tuple[int, ...] | None:
    """The least `delta`-vertex set whose induced complement is exactly the
    pattern; `cs`, if given, is g's clique structure.

    Exhaustive for n <= 20: each pattern has a vertex cover of two vertices,
    and deleting it from a witness leaves a (delta-2)-clique, so seeding from
    the (delta-2)-subsets of maximal cliques and completing with an outside
    pair {u, v} covers all candidates.  Every missing edge of such a candidate
    meets u or v.
    """
    if pattern not in _SIGNATURES:
        raise ValueError(f"unsupported pattern {pattern!r}")
    if g.n > NEAR_CLIQUE_EXHAUSTIVE_LIMIT:
        raise SizeLimit(f"near-clique search is exhaustive only for n <= {NEAR_CLIQUE_EXHAUSTIVE_LIMIT}")
    core = delta - 2
    if core < 2 or delta > g.n:
        return None
    want = _SIGNATURES[pattern]
    best: tuple[int, ...] | None = None
    seen_seeds: set[frozenset[int]] = set()
    if cs is None:
        cs = clique_structure(g)
    for clique in cs.maximal_cliques:
        if len(clique) < core:
            continue
        for seed in combinations(sorted(clique), core):
            fs = frozenset(seed)
            if fs in seen_seeds:
                continue
            seen_seeds.add(fs)
            misses = {x: [(x, y) for y in seed if y not in g.adj[x]] for x in range(g.n) if x not in fs}
            for u, v in combinations(misses, 2):
                missing = misses[u] + misses[v]
                if v not in g.adj[u]:
                    missing.append((u, v))
                if len(missing) == len(want) and _signature(missing) == want:
                    candidate = tuple(sorted(seed + (u, v)))
                    if best is None or candidate < best:
                        best = candidate
    return best


# ── aggregated eligibility ────────────────────────────────────────────────


@dataclass(frozen=True)
class EligibilityReport:
    delta: int
    omega: int
    # the least intersecting pair of maximum cliques, and the least (v, clique,
    # v's neighbours inside it) by v, then clique, of an outside v seeing one twice
    disjoint_witness: tuple[frozenset[int], frozenset[int]] | None
    external_witness: tuple[int, frozenset[int], frozenset[int]] | None

    @property
    def degree_ok(self) -> bool:
        return self.delta >= 6

    @property
    def omega_ok(self) -> bool:
        return self.omega == self.delta - 1

    @property
    def checks(self) -> tuple[tuple[str, str | None], ...]:
        """(check, None if it passes, else "FAIL" and its witness) in the order
        `kdfree check` prints them; the last two are the sampler's hypotheses."""
        disjoint = external = None
        if self.disjoint_witness is not None:
            c1, c2 = self.disjoint_witness
            disjoint = f"FAIL ({sorted(c1)} meets {sorted(c2)})"
        if self.external_witness is not None:
            v, c, nbrs = self.external_witness
            external = f"FAIL (vertex {v} sees {sorted(nbrs)} in {sorted(c)})"
        return (
            ("degree >= 6", None if self.degree_ok else "FAIL"),
            ("omega == Delta - 1", None if self.omega_ok else "FAIL"),
            ("maximum cliques pairwise disjoint", disjoint),
            ("no outside vertex sees a block twice", external),
        )

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self, sampler_only: bool = False) -> list[str]:
        """The failing checks as `kdfree check` prints them; with sampler_only,
        of the sampler's two."""
        checks = self.checks[2:] if sampler_only else self.checks
        return [f"{name}: {verdict}" for name, verdict in checks if verdict]


def pipeline_eligibility(g: Graph, cs: CliqueStructure | None = None) -> EligibilityReport:
    """Delta >= 6, omega = Delta - 1, disjoint maximum cliques, and no outside
    vertex with two neighbours in one.  The only search for the last two
    witnesses: `cs.max_cliques` is in lexicographic order, so the first of
    each found is the least."""
    if cs is None:
        cs = clique_structure(g)
    disjoint = next(((c1, c2) for c1, c2 in combinations(cs.max_cliques, 2) if c1 & c2), None)
    external = next(
        (
            (v, c, g.adj[v] & c)
            for v in range(g.n)
            for c in cs.max_cliques
            if v not in c and len(g.adj[v] & c) > 1
        ),
        None,
    )
    return EligibilityReport(g.max_degree(), cs.omega, disjoint, external)
