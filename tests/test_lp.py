"""Exact LP: pricing oracle, column generation, duality, theorem suites."""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceTableau,
    assert_clique_partition,
    brute_independence_number,
    brute_max_weight_stable,
    brute_stable_sets,
    random_graph,
    neighbours,
    random_partitioned_instance,
    random_weights,
)
from kdfree import lp
from kdfree.errors import LpError
from kdfree.graphs import (
    NAMED_GRAPHS,
    Graph,
    bits,
    block_graph,
    clique_structure,
    complete_graph,
    cycle_graph,
    cycle_power,
    degeneracy_order,
    generalized_petersen,
    reed_weight,
    strong_product,
)
from kdfree.intervals import StableSetWeighting, verify_certificate
from kdfree.lp import (
    LpResult,
    chi_f,
    chi_f_weighted,
    max_weight_stable_set,
)

F = Fraction
ONE = F(1)


def ones(n: int) -> list[Fraction]:
    return [ONE] * n


def test_mwis_complete_graph():
    s, value = max_weight_stable_set(complete_graph(6), ones(6))
    assert value == 1 and s == frozenset({0})


def test_mwis_c5():
    s, value = max_weight_stable_set(cycle_graph(5), ones(5))
    assert value == 2 and s == frozenset({0, 2})


def test_mwis_c11_squared():
    g = cycle_power(11, 2)
    _, value = max_weight_stable_set(g, ones(11))
    assert value == brute_independence_number(g) == 3


def test_mwis_lexicographic_ties():
    # ties go to the greatest membership read along the branching order
    g = cycle_graph(4)  # maximisers {0,2} and {1,3}
    s, value = max_weight_stable_set(g, ones(4))
    assert value == 2 and s == frozenset({0, 2})
    path = Graph(3, [(0, 1), (1, 2)])  # maximisers {0,2} and {1}; 1 is branched first
    assert max_weight_stable_set(path, [ONE, F(2), ONE]) == (frozenset({1}), F(2))
    # {1} and {2} tie and the search reaches both; the first one reached is kept
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert max_weight_stable_set(diamond, [ONE, F(3), F(3), ONE]) == (frozenset({1}), F(3))


def test_mwis_ignores_zero_weight_vertices():
    g = Graph(3, [(0, 1)])
    s, value = max_weight_stable_set(g, [F(0), ONE, F(2)])
    assert value == 3 and s == frozenset({1, 2})


def test_mwis_matches_brute_force_on_randoms():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.8), rng)
        w = random_weights(g.n, rng)
        _, value = max_weight_stable_set(g, w)
        assert value == brute_max_weight_stable(g, w)


def branching_order_maximiser(g, w):
    """Brute-force tie rule: among the maximisers over positive-weight
    vertices, the one whose membership is greatest read in weight-descending
    order, ties to the smaller vertex."""
    order = sorted((v for v in range(g.n) if w[v] > 0), key=lambda v: (-w[v], v))
    sets = brute_stable_sets(g)
    best = max(sum((w[v] for v in s), F(0)) for s in sets)
    winners = {
        frozenset(v for v in s if w[v] > 0)
        for s in sets
        if sum((w[v] for v in s), F(0)) == best
    }
    return max(winners, key=lambda s: [v in s for v in order]), best


def tie_prone_weights(n, rng):
    # small integers, zeros and mixed denominators, so maximisers tie often
    return [F(rng.choice([0, 0, 1, 1, 2, 3]), rng.choice([1, 1, 2, 3])) for _ in range(n)]


def test_mwis_set_matches_brute_force_with_mixed_denominators():
    rng = random.Random(43)
    for _ in range(400):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.15, 0.7), rng)
        w = tie_prone_weights(g.n, rng)
        s, value = max_weight_stable_set(g, w)
        assert isinstance(value, Fraction)
        assert (s, value) == branching_order_maximiser(g, w)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(
                st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), ONE, F(3, 2), F(2)]),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_mwis_tie_rule_property(case):
    n, present, w = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [e for e, keep in zip(pairs, present) if keep])
    assert max_weight_stable_set(g, w) == branching_order_maximiser(g, w)


def first_fit_cover_bound(mask, near, weight):
    """The pricing bound as first fit builds it: each candidate, in bit
    order, joins the first clique whose members all see it, or opens a new
    one; the bound is the total weight of the vertices that opened one."""
    total = 0
    cliques = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        i = bit.bit_length() - 1
        for idx, members in enumerate(cliques):
            if members & ~near[i] == 0:
                cliques[idx] = members | bit
                break
        else:
            cliques.append(bit)
            total += weight[i]
    return total


@given(
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(st.integers(1, 50), min_size=n, max_size=n),
            st.integers(0, 2**n - 1),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_cover_bound_matches_first_fit_property(case):
    # bits are vertices in branching order: weights descending
    n, present, weights, mask = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    near = [0] * n
    for (u, v), keep in zip(pairs, present):
        if keep:
            near[u] |= 1 << v
            near[v] |= 1 << u
    weight = sorted(weights, reverse=True)
    assert lp._cover_bound(mask, near, weight) == first_fit_cover_bound(mask, near, weight)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_chi_f_complete(n):
    assert chi_f(complete_graph(n)).value == n


def test_chi_f_named_pair():
    assert chi_f(cycle_power(8, 2)).value == 4
    assert chi_f(strong_product(cycle_graph(5), complete_graph(2))).value == 5


def test_chi_f_c7_k2():
    assert chi_f(strong_product(cycle_graph(7), complete_graph(2))).value == F(14, 3)


def test_chi_f_empty_and_edgeless():
    # the empty graph and zero weights take the general path: no seed
    # column, or none with positive weight, and nothing for pricing to find
    empty = LpResult(F(0), StableSetWeighting((), F(0)), (), 0, F(0))
    assert chi_f_weighted(Graph(0), []) == empty
    assert chi_f(Graph(0)) == empty
    assert chi_f(Graph(4)).value == 1
    g = Graph(3, [(0, 1)])
    zero = chi_f_weighted(g, [F(0)] * 3)
    assert (zero.value, zero.primal, zero.dual, zero.pricing_value) == (
        0, StableSetWeighting((), F(0)), (0, 0, 0), 0
    )
    assert zero.columns_generated == 2  # {0, 2} and {1, 2}
    for graph in (Graph(0), g, complete_graph(4)):
        assert max_weight_stable_set(graph, [F(0)] * graph.n) == (frozenset(), 0)


def test_strong_duality_and_oracle_on_randoms():
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.8), rng)
        w = random_weights(g.n, rng)
        res = chi_f_weighted(g, w)
        assert verify_certificate(g, res.primal, w).ok
        assert_optimal_by_enumeration(g, w, res)


def optimality_inputs(g, w):
    """What chi_f_weighted hands _check_optimal for g and w: the value, the
    primal, the duals times their common denominator d, d and the pricing
    value."""
    res = chi_f_weighted(g, w)
    d = lcm(*(y.denominator for y in res.dual))
    scaled = [int(y * d) for y in res.dual]
    return [g, w, res.value, res.primal, scaled, d, res.pricing_value]


@pytest.mark.parametrize("case", ["certificate", "negative-dual", "pricing", "strong-duality"])
def test_check_optimal_names_each_failure(case):
    # one corrupted input per case, on a C7 x K2 solve with mixed weights
    g = strong_product(cycle_graph(7), complete_graph(2))
    args = optimality_inputs(g, [F(1 + i % 3, 1 + i % 4) for i in range(g.n)])
    _, _, value, primal, scaled, d, _ = args
    lp._check_optimal(*args)
    (s, x), *rest = primal.columns
    s = s | {next(bits(g.masks[min(s)]))}  # a column that meets an edge; the sums stay
    negated = list(scaled)
    negated[scaled.index(max(scaled))] *= -1
    index, spoiled, message = {
        "certificate": (
            3,
            StableSetWeighting(((s, x), *rest), primal.total),
            f"primal certificate failed: non-stable column 0: {sorted(s)}",
        ),
        "negative-dual": (4, negated, "negative dual value"),
        "pricing": (6, ONE + F(1, 10**30), "dual infeasible over stable sets"),
        "strong-duality": (5, 2 * d, f"strong duality failed: {value / 2} != {value}"),
    }[case]
    args[index] = spoiled
    with pytest.raises(LpError) as info:
        lp._check_optimal(*args)
    assert str(info.value) == message


def assert_optimal_by_enumeration(g, w, res):
    """Weak duality over every stable set, with no call into the simplex."""
    y = res.dual
    assert all(yv >= 0 for yv in y)
    for s in brute_stable_sets(g):
        assert sum((y[v] for v in s), F(0)) <= 1
    assert sum(yv * wv for yv, wv in zip(y, w)) == res.value
    cover = [F(0)] * g.n
    for s, x in res.primal.columns:
        assert x > 0 and g.is_stable(s)
        for v in s:
            cover[v] += x
    assert sum(x for _, x in res.primal.columns) == res.value
    assert all(c >= wv for c, wv in zip(cover, w))


def test_optimality_by_enumeration_on_randoms():
    rng = random.Random(71)
    for _ in range(150):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
        w = random_weights(g.n, rng)
        assert_optimal_by_enumeration(g, w, chi_f_weighted(g, w))


@pytest.mark.parametrize("name", ["c8sq", "c11sq", "p72", "c5xk2", "c7xk2", "c5xk3"])
def test_optimality_by_enumeration_on_vertex_transitive(name):
    g = NAMED_GRAPHS[name]()
    assert_optimal_by_enumeration(g, ones(g.n), chi_f(g))


def test_chi_f_c30_cube():
    start = time.monotonic()
    assert chi_f(cycle_power(30, 3)).value == F(30, 30 // 4)
    assert time.monotonic() - start < 10


def primes_above(lo: int, count: int) -> list[int]:
    out = []
    c = lo + 1
    while len(out) < count:
        if all(c % q for q in range(2, int(c**0.5) + 1)):
            out.append(c)
        c += 1
    return out


def test_crafted_prime_denominators():
    g = cycle_power(19, 3)
    w = [F(p // 2 + i, p) for i, p in enumerate(primes_above(10**6, g.n))]
    start = time.monotonic()
    res = chi_f_weighted(g, w)
    assert time.monotonic() - start < 10
    assert_optimal_by_enumeration(g, w, res)


def test_solves_are_deterministic():
    g = cycle_power(11, 2)
    first = chi_f(g)
    second = chi_f(g)
    assert first == second
    rng = random.Random(67)
    w = random_weights(11, rng)
    assert chi_f_weighted(g, w) == chi_f_weighted(g, w)


def test_vertex_transitive_ratio():
    for g in (
        cycle_power(8, 2),
        cycle_power(11, 2),
        strong_product(cycle_graph(5), complete_graph(2)),
        strong_product(cycle_graph(7), complete_graph(2)),
        strong_product(cycle_graph(5), complete_graph(3)),
    ):
        assert chi_f(g).value == F(g.n, brute_independence_number(g))


def test_sandwich_bounds():
    rng = random.Random(47)
    for _ in range(20):
        g = random_graph(rng.randint(1, 9), 0.5, rng)
        value = chi_f(g).value
        cs = clique_structure(g)
        assert cs.omega <= value <= g.max_degree() + 1


def test_monotonicity_and_scaling():
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        w1 = random_weights(g.n, rng)
        bump = random_weights(g.n, rng, hi=1)
        w2 = [a + b for a, b in zip(w1, bump)]
        v1 = chi_f_weighted(g, w1).value
        v2 = chi_f_weighted(g, w2).value
        assert v1 <= v2
        c = F(rng.randint(1, 5), rng.randint(1, 4))
        assert chi_f_weighted(g, [c * x for x in w1]).value == c * v1


def unit_reed_bounds(g: Graph) -> tuple[Fraction, ...]:
    """chi_f, rho_w at unit weights, then the per-vertex and global half-sum
    bounds max_v (d(v) + 1 + omega(v))/2 <= (Delta + 1 + omega)/2 it generalizes."""
    cs = clique_structure(g)
    _, rho = reed_weight(g, cs, ones(g.n))
    local = max(F(g.degree(v) + 1 + cs.level[v], 2) for v in range(g.n))
    return chi_f(g).value, rho, local, F(g.max_degree() + 1 + cs.omega, 2)


def test_reed_bounds_c5_tight():
    value, rho, local, halfsum = unit_reed_bounds(cycle_graph(5))
    assert value == rho == F(5, 2) <= local <= halfsum


def test_reed_bounds_c5_k2_tight():
    value, rho, local, halfsum = unit_reed_bounds(strong_product(cycle_graph(5), complete_graph(2)))
    assert value == rho == 5 <= local <= halfsum


def test_aharoni_disjoint_blocks():
    g = block_graph(3, 4)
    assert assert_clique_partition(g, [range(i * 4, (i + 1) * 4) for i in range(3)], 2) == 4
    assert chi_f(g).value == 4


def test_aharoni_bridged_blocks():
    # blocks of four, at most two external neighbours each, max degree five
    g = block_graph(2, 4, cross_edges=[(0, 4), (1, 5), (0, 5)])
    assert assert_clique_partition(g, [range(4), range(4, 8)], 2) == 4
    assert chi_f(g).value == 4


def test_aharoni_random_instances():
    rng = random.Random(61)
    for _ in range(5):
        g = random_partitioned_instance(rng, omega=6, k=3, blocks=2, p=0.5)
        assert chi_f(g).value == 6


# ── the tableau against its stored-row reference ─────────────────────────


def seeded_gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def reference_seed_columns(g):
    """The seed columns as sets: one greedy stable set from each vertex,
    read in degeneracy order."""
    order = degeneracy_order(g)
    seeds = []
    for v in order:
        s = {v}
        for u in order:
            if u not in s and not (neighbours(g, u) & s):
                s.add(u)
        seeds.append(frozenset(s))
    return list(dict.fromkeys(seeds))


def weighted_batch(seed: int, count: int):
    """G(n, 1/2) graphs, n cycling through 14..18, with weights p/q, q in
    1..6 and 0 <= p/q <= 2: the benchmark's weighted chi_f batch."""
    rng = random.Random(f"chif-weighted:{seed}")
    out = []
    for i in range(count):
        n = 14 + i % 5
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        weights = []
        for _ in range(n):
            den = rng.randint(1, 6)
            weights.append(F(rng.randint(0, 2 * den), den))
        out.append((g, weights))
    return out


def assert_same_as_reference(monkeypatch, g, w):
    """chi_f_weighted gives the same result, down to its repr, under the
    stored-row tableau; the seed columns are those of the set-built greedy."""
    assert [tuple(s) for s in lp._seed_columns(g)] == [
        tuple(s) for s in reference_seed_columns(g)
    ]
    result = repr(chi_f_weighted(g, w))
    with monkeypatch.context() as m:
        m.setattr(lp, "_DualTableau", ReferenceTableau)
        assert repr(chi_f_weighted(g, w)) == result


ORACLE_GRAPHS = {
    **NAMED_GRAPHS,
    **{f"c{n}cube": (lambda n=n: cycle_power(n, 3)) for n in range(19, 24)},
    "c9xk2": lambda: strong_product(cycle_graph(9), complete_graph(2)),
    "p92": lambda: generalized_petersen(9, 2),
}


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_tableau_matches_reference_on_named_graphs(monkeypatch, name):
    g = ORACLE_GRAPHS[name]()
    assert_same_as_reference(monkeypatch, g, ones(g.n))


def test_tableau_matches_reference_on_weighted_batch(monkeypatch):
    for g, w in weighted_batch(1, 40):
        assert_same_as_reference(monkeypatch, g, w)


def test_tableau_matches_reference_on_prime_denominators(monkeypatch):
    g = cycle_power(19, 3)
    w = [F(p // 2 + i, p) for i, p in enumerate(primes_above(10**6, g.n))]
    assert_same_as_reference(monkeypatch, g, w)


@given(
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(st.integers(0, 12), min_size=n, max_size=n),
            st.one_of(
                st.lists(st.sampled_from([1, 2, 3, 5, 6, 7, 1000003]), min_size=n, max_size=n),
                # distinct 1,000-digit denominators: the certificate sums run
                # over their lcm, about n thousand digits
                st.lists(
                    st.integers(10**999, 10**1000 - 1), min_size=n, max_size=n, unique=True
                ),
            ),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_tableau_matches_reference_property(case):
    n, present, numerators, denominators = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [e for e, keep in zip(pairs, present) if keep])
    w = [F(a, b) for a, b in zip(numerators, denominators)]
    # repr of a Fraction over the long denominators' lcm passes str()'s
    # default 4,300-digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.MonkeyPatch.context() as m:
            assert_same_as_reference(m, g, w)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "build", [lambda: cycle_power(30, 3), lambda: seeded_gnp(40, 0.1, 1)], ids=["c30cube", "g40"]
)
def test_tableau_stores_only_basic_y_rows_and_prices_on_ints(monkeypatch, build):
    # every pivot leaves at most n stored rows (the seed rows in the primal
    # phase, then only rows basic in a y) while the LP holds more rows than
    # that; pricing is called once per round, on the tableau's integer duals
    g = build()
    stored = []

    class Watched(lp._DualTableau):
        def __init__(self, *args):
            super().__init__(*args)
            assert all(b < self.n for b in self.rows)

        def _pivot(self, *args, **kwargs):
            super()._pivot(*args, **kwargs)
            stored.append(len(self.rows))

        def add_row(self, s):
            super().add_row(s)
            assert all(b < self.n for b in self.rows)

    calls = []
    price = lp.max_weight_stable_set

    def watched_price(graph, weights):
        calls.append(all(type(x) is int for x in weights))
        return price(graph, weights)

    monkeypatch.setattr(lp, "_DualTableau", Watched)
    monkeypatch.setattr(lp, "max_weight_stable_set", watched_price)
    res = chi_f(g)
    assert stored and max(stored) <= g.n < res.columns_generated
    assert len(calls) == res.columns_generated - len(lp._seed_columns(g)) + 1
    assert all(calls)
