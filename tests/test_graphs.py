"""Graph construction, generators, clique structure and Reed weights."""

from __future__ import annotations

import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CAP_GRAPHS,
    brute_independence_number,
    brute_maximal_cliques,
    brute_omega,
    cap_graph,
    edge_list_induced,
    edge_list_strong_product,
    instance_a,
    random_graph,
    set_degeneracy_order,
    set_maximal_cliques,
    split_read_edge_list,
)
from kdfree import graphs
from kdfree.errors import GraphFormatError, SizeLimit
from kdfree.graphs import (
    C5XK3_DELETIONS,
    VERTEX_CAP,
    Graph,
    bits,
    block_graph,
    c5xk3_minus,
    clique_structure,
    complete_graph,
    cycle_graph,
    cycle_power,
    degeneracy_order,
    delete_vertices,
    generalized_petersen,
    maximal_cliques,
    rainbow_colouring,
    read_edge_list,
    reed_weight,
    strong_product,
    write_edge_list,
)

ONE = Fraction(1)


def degrees(g: Graph) -> list[int]:
    return [g.degree(v) for v in range(g.n)]


def test_cycle_power_c8_squared():
    g = cycle_power(8, 2)
    assert g.n == 8
    assert degrees(g) == [4] * 8
    assert clique_structure(g).omega == 3


def test_cycle_power_k1_is_cycle():
    g = cycle_power(5, 1)
    assert degrees(g) == [2] * 5
    assert g.num_edges() == 5


def test_cycle_power_c11_squared_independence():
    g = cycle_power(11, 2)
    assert degrees(g) == [4] * 11
    assert brute_independence_number(g) == 3


def test_cycle_power_rejects_large_k():
    with pytest.raises(GraphFormatError):
        cycle_power(8, 4)
    with pytest.raises(GraphFormatError):
        cycle_power(5, 3)


def test_strong_product_c5_k2():
    g = strong_product(cycle_graph(5), complete_graph(2))
    assert g.n == 10
    assert degrees(g) == [5] * 10
    assert clique_structure(g).omega == 4


def test_strong_product_identity_factor():
    g = cycle_power(7, 2)
    prod = strong_product(g, complete_graph(1))
    assert prod.n == g.n and prod.masks == g.masks


def test_strong_product_c5_k3():
    g = strong_product(cycle_graph(5), complete_graph(3))
    assert g.n == 15
    assert degrees(g) == [8] * 15
    assert clique_structure(g).omega == 6


def test_strong_product_degree_law():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng.randint(1, 5), 0.5, rng)
        h = random_graph(rng.randint(1, 5), 0.5, rng)
        prod = strong_product(g, h)
        for u in range(g.n):
            for v in range(h.n):
                assert prod.degree(u * h.n + v) == (g.degree(u) + 1) * (h.degree(v) + 1) - 1


def test_strong_product_matches_the_edge_list_oracle_and_networkx():
    # the mask product against the edge-list product it replaced, and against
    # networkx with (u1, v1) renumbered u1 * h.n + v1
    nx = pytest.importorskip("networkx")
    rng = random.Random("strong-product")
    factors = [Graph(0), Graph(1), complete_graph(3), cycle_graph(5)]
    factors += [random_graph(rng.randint(0, 7), rng.random(), rng) for _ in range(12)]

    def as_nx(g: Graph):
        out = nx.empty_graph(g.n)
        out.add_edges_from(g.edges())
        return out

    for g in factors:
        for h in factors:
            got = strong_product(g, h)
            assert got.masks == edge_list_strong_product(g, h).masks
            reference = nx.strong_product(as_nx(g), as_nx(h))
            assert reference.number_of_nodes() == got.n
            pairs = reference.edges()
            assert got == Graph(got.n, ((u1 * h.n + v1, u2 * h.n + v2) for (u1, v1), (u2, v2) in pairs))
    big = strong_product(cycle_graph(5), complete_graph(100))
    assert big == edge_list_strong_product(cycle_graph(5), complete_graph(100))


@pytest.mark.parametrize("n", [*range(13), 1000])
def test_complete_graph_is_every_pair(n):
    assert complete_graph(n) == Graph(n, combinations(range(n), 2))


def test_generalized_petersen_7_2():
    g = generalized_petersen(7, 2)
    assert g.n == 14
    assert degrees(g) == [3] * 14
    assert brute_independence_number(g) == 5


def girth(g: Graph) -> int:
    best = g.n + 1
    for src in range(g.n):
        dist = {src: 0}
        parent = {src: -1}
        queue = [src]
        while queue:
            u = queue.pop(0)
            for w in bits(g.masks[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def test_petersen_graph_girth():
    assert girth(generalized_petersen(5, 2)) == 5


def test_generalized_petersen_rejects_bad_params():
    with pytest.raises(GraphFormatError):
        generalized_petersen(4, 2)


def test_delete_vertices_k4_minus_one():
    g, mapping = delete_vertices(complete_graph(4), [2])
    assert g.n == 3 and g.num_edges() == 3
    assert mapping == {0: 0, 1: 1, 3: 2}


def test_delete_vertices_rejects_out_of_range():
    with pytest.raises(GraphFormatError):
        delete_vertices(complete_graph(3), [5])


def test_induced_matches_the_edge_list_oracle():
    # seeded graphs kept not at all, whole in reverse, and in part, the part
    # in a random order and sorted: the mask relabel gives the edge-list
    # relabel's masks
    rng = random.Random("induced")
    for _ in range(320):
        g = random_graph(rng.randint(0, 14), rng.random(), rng)
        part = rng.sample(range(g.n), rng.randint(0, g.n))
        for keep in ([], list(range(g.n))[::-1], part, sorted(part)):
            assert g.induced(keep).masks == edge_list_induced(g, keep).masks


@pytest.mark.parametrize(
    "keep, message",
    [
        ([0, 0], "vertex 0 is kept twice"),
        ([0, 99], "vertex 99 out of range for n=5"),
        ([-1], "vertex -1 out of range for n=5"),
    ],
)
def test_induced_rejects_a_repeated_or_out_of_range_vertex(keep, message):
    with pytest.raises(GraphFormatError, match=message):
        cycle_graph(5).induced(keep)


def test_c5xk3_deletions_hit_published_targets():
    m2 = c5xk3_minus(2)
    assert m2.n == 13 and m2.max_degree() == 7
    assert clique_structure(m2).omega == 6
    m4 = c5xk3_minus(4)
    assert m4.n == 11 and m4.max_degree() == 6
    assert clique_structure(m4).omega == 5


def least_deletion(base: Graph, count: int, delta_target: int, omega_cap: int) -> tuple[int, ...]:
    """Lexicographically least `count`-subset whose removal hits the targets."""
    for vs in combinations(range(base.n), count):
        g, _ = delete_vertices(base, vs)
        if g.max_degree() == delta_target and clique_structure(g).omega <= omega_cap:
            return vs
    raise AssertionError(f"no {count}-subset meets max degree {delta_target}, omega <= {omega_cap}")


@pytest.mark.parametrize("count, delta_target, omega_cap", [(2, 7, 6), (4, 6, 5)])
def test_c5xk3_deletions_are_least_meeting_targets(count, delta_target, omega_cap):
    base = strong_product(cycle_graph(5), complete_graph(3))
    assert C5XK3_DELETIONS[count] == least_deletion(base, count, delta_target, omega_cap)
    g, _ = delete_vertices(base, C5XK3_DELETIONS[count])
    assert c5xk3_minus(count).edges() == g.edges()


def test_clique_structure_c5_k2():
    g = strong_product(cycle_graph(5), complete_graph(2))
    cs = clique_structure(g)
    assert cs.omega == 4
    assert len(cs.max_cliques) == 5
    assert cs.v_omega == frozenset(range(10))


def test_clique_structure_k5():
    cs = clique_structure(complete_graph(5))
    assert cs.omega == 5
    assert cs.max_cliques == (frozenset(range(5)),)
    assert cs.v_omega == frozenset(range(5))


def test_clique_structure_c5():
    cs = clique_structure(cycle_graph(5))
    assert cs.omega == 2
    assert len(cs.max_cliques) == 5


def test_maximal_cliques_match_brute_force():
    assert maximal_cliques(Graph(0)) == []
    assert clique_structure(Graph(0)).omega == 0
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.8), rng)
        assert maximal_cliques(g) == brute_maximal_cliques(g)
        assert clique_structure(g).omega == brute_omega(g)
    for _ in range(5):
        g = random_graph(12, rng.uniform(0.3, 0.7), rng)
        assert clique_structure(g).omega == brute_omega(g)


@pytest.mark.parametrize("n", [25, 30, 35, 40])
def test_cliques_match_networkx(n):
    # past the sizes the brute-force oracles reach; networkx lists the
    # maximal cliques of each seeded G(n, p) independently
    nx = pytest.importorskip("networkx")
    rng = random.Random(f"networkx-cliques:{n}")
    for p in (0.1, 0.3, 0.5, 0.7):
        g = random_graph(n, p, rng)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(g.edges())
        want = sorted(map(frozenset, nx.find_cliques(reference)), key=sorted)
        assert maximal_cliques(g) == want
        cs = clique_structure(g)
        omega = max(map(len, want))
        assert cs.omega == omega
        assert cs.max_cliques == tuple(c for c in want if len(c) == omega)
        assert cs.level == tuple(max(len(c) for c in want if v in c) for v in range(n))


def test_bits_reads_a_mask_least_first():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(1 << 999 | 1)) == [0, 999]
    g = cycle_power(9, 2)
    assert not hasattr(g, "adj")
    assert [list(bits(m)) for m in g.masks[:2]] == [[1, 2, 7, 8], [0, 2, 3, 8]]


@pytest.mark.parametrize("name", CAP_GRAPHS)
def test_mask_listing_matches_the_set_oracle_and_networkx_at_the_cap(name):
    # the bitmask Bron-Kerbosch against the same search on Python sets and
    # against networkx, and the bitmask degeneracy order against the set one
    nx = pytest.importorskip("networkx")
    g = cap_graph(name)
    assert degeneracy_order(g) == set_degeneracy_order(g)
    got = maximal_cliques(g)
    if name == "K1000":  # each oracle takes seconds here, and the answer is known
        assert got == [frozenset(range(1000))]
        g = complete_graph(200)
        got = maximal_cliques(g)
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges())
    want = sorted(map(frozenset, nx.find_cliques(reference)), key=sorted)
    assert got == want == set_maximal_cliques(g)
    # each clique is built from its ascending vertices, so it iterates (and
    # prints) as the same set built from sorted vertices does
    assert [list(c) for c in got] == [list(frozenset(sorted(c))) for c in got]


def test_clique_listing_needs_no_recursion():
    # the listing keeps its own stack: under a recursion limit far below the
    # clique size, K300 still yields its single clique
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        cs = clique_structure(complete_graph(300))
    finally:
        sys.setrecursionlimit(limit)
    assert cs.omega == 300
    assert cs.max_cliques == cs.maximal_cliques == (frozenset(range(300)),)


def test_level_partitions_vertices():
    g = instance_a()
    cs = clique_structure(g)
    for v in range(g.n):
        level = cs.level[v]
        assert any(len(c) == level and v in c for c in cs.maximal_cliques)
        assert all(len(c) <= level for c in cs.maximal_cliques if v in c)


def test_handshake_and_degree_bound():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng.randint(0, 10), 0.4, rng)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges()
        assert all(g.degree(v) <= g.max_degree() for v in range(g.n))


def test_reed_weight_triangle():
    g = complete_graph(3)
    rho, rho_max = reed_weight(g, clique_structure(g), [ONE] * 3)
    assert rho == [Fraction(3)] * 3 and rho_max == 3


def test_reed_weight_c5():
    g = cycle_graph(5)
    rho, rho_max = reed_weight(g, clique_structure(g), [ONE] * 5)
    assert rho == [Fraction(5, 2)] * 5 and rho_max == Fraction(5, 2)


def test_reed_weight_c5_k2():
    g = strong_product(cycle_graph(5), complete_graph(2))
    rho, rho_max = reed_weight(g, clique_structure(g), [ONE] * 10)
    assert rho_max == 5
    assert all(r == 5 for r in rho)


def test_reed_weight_rejects_negative():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        reed_weight(g, clique_structure(g), [ONE, ONE, Fraction(-1)])


def test_unit_reed_weight_marks_v_omega_prime():
    # rho_1(v) > Delta - 1/2 exactly on V'_omega when omega = Delta - 1
    for g in (instance_a(), strong_product(cycle_graph(5), complete_graph(2))):
        cs = clique_structure(g)
        delta = g.max_degree()
        assert cs.omega == delta - 1
        rho, _ = reed_weight(g, cs, [ONE] * g.n)
        threshold = Fraction(2 * delta - 1, 2)
        for v in range(g.n):
            assert (rho[v] > threshold) == (v in cs.v_omega_prime)


def test_edge_list_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng.randint(0, 8), 0.5, rng)
        assert read_edge_list(write_edge_list(g)) == g


@given(
    st.integers(0, 24).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_edge_list_round_trip_property(case):
    n, present = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [e for e, keep in zip(pairs, present) if keep])
    text = write_edge_list(g)
    h = read_edge_list(text)
    assert h == g and h.masks == g.masks
    assert write_edge_list(h) == text


_ODD_TOKENS = ["+3", "-0", "007", "0" * 650 + "4", "9" * 700, "x", "1.5", "--1", "+-1", "-1", "12"]
_SEPARATORS = [" "] * 20 + ["  ", "\t", " \x0b ", "\x1c"]  # splitlines() ends a line at \x0b and \x1c


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list texts: mostly lines "u v" with u <= v < n, some with odd
    spacing, a sign, leading zeros, a long or non-integer token, a token too
    many or too few, or reversed; some headers or counts are wrong."""
    n = draw(st.integers(1, 12))
    lines = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)):
        row = [str(min(u, v)), str(max(u, v)), draw(st.sampled_from(_ODD_TOKENS))]
        keep = draw(st.sampled_from([(0, 1)] * 30 + [(0, 2), (2, 1), (0,), (0, 1, 2), (1, 0)]))
        lines.append(draw(st.sampled_from(_SEPARATORS)).join(row[i] for i in keep))
    m = len(lines) + draw(st.sampled_from([0] * 10 + [1, -1]))
    head = draw(st.sampled_from([f"{n} {m}"] * 10 + [f" {n}\t{m} ", f"{n}", "x 0", f"{n} {m}_"]))
    return "\n".join([head, *lines]) + draw(st.sampled_from(["", "\n"] * 5 + ["\n \n", "\u0663"]))


@given(edge_list_texts())
@settings(max_examples=300, deadline=None)
def test_edge_list_reader_matches_the_split_reader(text):
    # the reader that matches one pattern per line before int() accepts and
    # rejects exactly the texts the reader that splits every line does, with
    # the same graph or the same message
    def outcome(read):
        try:
            return read(text)
        except (GraphFormatError, SizeLimit) as exc:
            return type(exc), str(exc)

    assert outcome(read_edge_list) == outcome(split_read_edge_list)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 1\n1 1",
        "2 2\n0 1\n0 1",
        "2 1\n1 0",
        "2 1\n0 5",
        "banana",
        "2 3\n0 1",
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        read_edge_list(text)


@pytest.mark.parametrize(
    "text", ["{big} 0", "3 {big}", "3 1\n0 {big}", "3 1\n-{big} 1", "3 1\n{big} {big}"]
)
def test_edge_list_spells_out_integers_past_the_conversion_limit(text):
    # str() refuses the 5,000-digit integer; the reader's own error names it
    big = "9" * 5000
    with pytest.raises((GraphFormatError, SizeLimit)) as info:
        read_edge_list(text.format(big=big))
    assert big in str(info.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Graph(n),
        lambda n: read_edge_list(f"{n} 0\n"),
        lambda n: complete_graph(n),
        lambda n: cycle_power(n, 2),
        lambda n: generalized_petersen((n + 1) // 2, 2),
        lambda n: block_graph((n + 4) // 5, 5),
        lambda n, factors=(cycle_graph(40), complete_graph(30)): strong_product(*factors),
    ],
    ids=["graph", "edge-list", "complete", "cycle-power", "petersen", "blocks", "product"],
)
def test_vertex_cap_is_checked_before_allocation(build):
    # one vertex past the cap raises before the adjacency (some 200 kB at
    # this size) or an edge list is built
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="capped at n <= "):
            build(VERTEX_CAP + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_vertex_cap_admits_its_bound():
    assert Graph(VERTEX_CAP).n == VERTEX_CAP
    assert read_edge_list(f"{VERTEX_CAP} 0\n").n == VERTEX_CAP


# ── rainbow 4-colourings ──────────────────────────────────────────────────


def random_k4_partition(rng: random.Random, parts: int) -> Graph:
    """`parts` disjoint K4s (part i on 4i..4i+3) plus random edges between
    them, at most 2 per vertex, no vertex meeting another part twice."""
    part = [v // 4 for v in range(4 * parts)]
    edges = [e for i in range(parts) for e in combinations(range(4 * i, 4 * i + 4), 2)]
    degree, met = [0] * len(part), set()
    pairs = [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]]
    rng.shuffle(pairs)
    for u, v in pairs:
        if degree[u] < 2 and degree[v] < 2 and not {(u, part[v]), (v, part[u])} & met:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
            met |= {(u, part[v]), (v, part[u])}
    return Graph(len(part), edges)


def test_rainbow_colouring_of_random_k4_partitions():
    # the sampler's 4-subset graphs at 15 blocks: every instance is coloured
    # under the node cap, each class stable and meeting every part once
    rng = random.Random("rainbow:15")
    for _ in range(30):
        g = random_k4_partition(rng, 15)
        parts = [range(4 * i, 4 * i + 4) for i in range(15)]
        classes = rainbow_colouring(g, parts)
        assert sorted(v for cls in classes for v in cls) == list(range(g.n))
        for cls in classes:
            assert list(cls) == sorted(cls) and g.is_stable(cls)
            assert all(len(set(cls) & set(part)) == 1 for part in parts)


def test_rainbow_colouring_exhausts_or_gives_up(monkeypatch):
    # K5 has no proper 4-colouring: a complete search ends with None
    assert rainbow_colouring(complete_graph(5), [range(4), [4]]) is None
    assert rainbow_colouring(Graph(0), []) == ((), (), (), ())
    g = random_k4_partition(random.Random(1), 3)
    assert rainbow_colouring(g, [range(4), range(4, 8), range(8, 12)]) is not None
    monkeypatch.setattr(graphs, "COLOURING_NODE_LIMIT", 11)  # one short of 12 vertices
    with pytest.raises(SizeLimit, match=r"gave up: parts \[range\(0, 4\), .*edges \[\(0, 1\), "):
        rainbow_colouring(g, [range(4), range(4, 8), range(8, 12)])
