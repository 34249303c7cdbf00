"""Structural detectors against explicit constructions and brute force."""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CAP_GRAPHS,
    PATTERN_SHAPES,
    _component_shapes,
    _signature,
    _SIGNATURES,
    brute_bumps,
    brute_maximal_cliques,
    brute_near_cliques,
    cap_graph,
    eligible_block_graphs,
    instance_a,
    instance_b,
    instance_c,
    k5_chain,
    neighbours,
    random_graph,
    set_find_bump,
    set_maximal_cliques,
    signature_find_near_clique,
)
from kdfree.cli import main
from kdfree.errors import EligibilityError
from kdfree.graphs import (
    NAMED_GRAPHS,
    Graph,
    block_graph,
    clique_structure,
    complete_graph,
    cycle_graph,
    cycle_power,
    strong_product,
    write_edge_list,
)
from kdfree.intervals import verify_certificate
from kdfree.pipeline import end_to_end, initial_colouring
from kdfree.sampling import StableSetSampler
from kdfree.structure import (
    NEAR_CLIQUE_PATTERNS,
    _COVERS,
    find_bump,
    find_near_clique,
    pipeline_eligibility,
)


def test_disjoint_cliques_witness_on_c5_k2():
    g = strong_product(cycle_graph(5), complete_graph(2))
    witness = pipeline_eligibility(g).disjoint_witness
    assert witness is not None
    c1, c2 = witness
    assert len(c1) == len(c2) == 4 and len(c1 & c2) == 2


def test_disjoint_cliques_ok_on_blocks():
    g = block_graph(3, 4)
    assert pipeline_eligibility(g).disjoint_witness is None


def test_disjoint_cliques_near_miss_overlap():
    # K6 minus one edge: two 5-cliques sharing omega-1 vertices
    edges = [e for e in combinations(range(6), 2) if e != (0, 1)]
    g = Graph(6, edges)
    cs = clique_structure(g)
    witness = pipeline_eligibility(g, cs).disjoint_witness
    assert witness is not None
    c1, c2 = witness
    assert len(c1 & c2) == cs.omega - 1


def brute_max_cliques(g: Graph) -> list[tuple[int, ...]]:
    cliques = [tuple(sorted(c)) for c in brute_maximal_cliques(g)]
    omega = max(map(len, cliques), default=0)
    return [c for c in cliques if len(c) == omega]


def seeded_graphs(seed: int, count: int) -> list[Graph]:
    rng = random.Random(seed)
    return [random_graph(rng.randint(4, 11), rng.uniform(0.3, 0.9), rng) for _ in range(count)]


def test_disjoint_cliques_least_witness_matches_brute_force():
    found_any = False
    for g in seeded_graphs(75, 80):
        witness = pipeline_eligibility(g).disjoint_witness
        hits = [(c1, c2) for c1, c2 in combinations(brute_max_cliques(g), 2) if set(c1) & set(c2)]
        if witness is None:
            assert not hits
        else:
            found_any = True
            assert tuple(tuple(sorted(c)) for c in witness) == min(hits)
    assert found_any


def test_external_neighbours_least_witness_matches_brute_force():
    found_any = False
    for g in seeded_graphs(77, 80):
        witness = pipeline_eligibility(g).external_witness
        cliques = brute_max_cliques(g)
        hits = [
            (v, c, tuple(sorted(neighbours(g, v) & set(c))))
            for v in range(g.n)
            for c in cliques
            if v not in c and len(neighbours(g, v) & set(c)) > 1
        ]
        if witness is None:
            assert not hits
        else:
            found_any = True
            v, c, nbrs = witness
            assert (v, tuple(sorted(c)), tuple(sorted(nbrs))) == min(hits)
    assert found_any


def test_external_neighbours_witness():
    g = block_graph(2, 4, outside=[[0, 1]])
    witness = pipeline_eligibility(g).external_witness
    assert witness is not None
    v, clique, nbrs = witness
    assert v == 8 and nbrs == frozenset({0, 1}) and nbrs <= clique


def test_external_neighbours_ok_with_matching():
    g = block_graph(2, 4, cross_edges=[(0, 4), (1, 5), (2, 6), (3, 7)])
    assert pipeline_eligibility(g).external_witness is None


def test_external_neighbours_on_c5_k3():
    g = strong_product(cycle_graph(5), complete_graph(3))
    assert pipeline_eligibility(g).external_witness is not None


def explicit_bump_graph() -> Graph:
    # C = K5 on 0..4, Y = {0,1,2}; 5 ~ {0,1}, 6 ~ {1,2}, 5 ~ 6
    edges = list(combinations(range(5), 2)) + [(0, 5), (1, 5), (1, 6), (2, 6), (5, 6)]
    return Graph(7, edges)


def test_find_bump_explicit():
    g = explicit_bump_graph()
    bump = find_bump(g, clique_structure(g))
    assert bump is not None and bump.validate(g)
    assert bump.clique == frozenset(range(5))
    assert (bump.v1, bump.v2) == (5, 6)


def test_find_bump_none_on_sparse_blocks():
    g = block_graph(2, 5, cross_edges=[(0, 5), (1, 6)])
    assert find_bump(g, clique_structure(g)) is None


def test_find_bump_matches_brute_force():
    rng = random.Random(71)
    for _ in range(60):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.3, 0.8), rng)
        found = find_bump(g, clique_structure(g))
        hits = brute_bumps(g)
        assert (found is not None) == bool(hits)
        if found is not None:
            assert found.validate(g)
            key = (tuple(sorted(found.clique)), found.y1, found.y2, found.y3, found.v1, found.v2)
            assert key == min(hits)


@pytest.mark.parametrize("name", CAP_GRAPHS)
def test_mask_bump_search_matches_the_set_oracle_at_the_cap(name):
    g = cap_graph(name)
    cs = clique_structure(g)
    found = find_bump(g, cs)
    if name == "C1000^20":
        # the set oracle takes over 10 s here.  An adjacent outside pair of a
        # window C = {i, ..., i+20} lies on one side of it, where their
        # neighbourhoods in C are nested, so there is no bump; the oracle
        # checks the same family at n = 200
        assert found is None
        g = cycle_power(200, 20)
        cs = clique_structure(g)
        found = find_bump(g, cs)
    assert found == set_find_bump(g, cs.max_cliques)


def bumpy_graph(rng: random.Random, n: int) -> Graph:
    """K_k (4 <= k <= 7) on 0..k-1 plus n - k outside vertices, each seeing
    one vertex of it (about a third of them) or 2..k-1, with G(n - k, p)
    among the outside vertices."""
    k = rng.randint(4, 7)
    edges = list(combinations(range(k), 2))
    for x in range(k, n):
        seen = 1 if rng.random() < 1 / 3 else rng.randint(2, k - 1)
        edges += [(y, x) for y in rng.sample(range(k), seen)]
    p = rng.uniform(0.05, 0.3)
    edges += [e for e in combinations(range(k, n), 2) if rng.random() < p]
    return Graph(n, edges)


def test_mask_bump_search_matches_the_set_oracle_on_seeded_graphs():
    # seeded graphs of 20-60 vertices, most holding bumps; the scan skips
    # outside vertices with one neighbour in C, and some of them are
    # adjacent to a vertex the scan keeps
    rng = random.Random("bumps:20-60")
    bumps = skipped = 0
    for _ in range(40):
        g = bumpy_graph(rng, rng.randint(20, 60))
        cs = clique_structure(g)
        assert list(cs.maximal_cliques) == set_maximal_cliques(g)
        found = find_bump(g, cs)
        assert found == set_find_bump(g, cs.max_cliques)
        if found is not None:
            assert found.validate(g)
            assert list(found.clique) == list(frozenset(sorted(found.clique)))
            bumps += 1
        c = cs.max_cliques[0]
        seen = {v: len(neighbours(g, v) & c) for v in range(g.n) if v not in c}
        skipped += sum(seen[u] == 1 and seen[v] > 1 for u, v in g.edges() if u in seen and v in seen)
    assert bumps >= 30 and skipped >= 100


def near_clique_host(missing: list[tuple[int, int]], size: int) -> Graph:
    edges = [e for e in combinations(range(size), 2) if e not in missing]
    return Graph(size, edges)


def test_near_clique_matching2():
    g = near_clique_host([(0, 1), (2, 3)], 6)
    assert find_near_clique(g, 6, "matching2") == tuple(range(6))


def test_near_clique_p2_p3():
    g = near_clique_host([(0, 1), (1, 2), (3, 4)], 7)
    assert find_near_clique(g, 7, "P2+P3") == tuple(range(7))


def test_near_clique_two_paths():
    g = near_clique_host([(0, 1), (1, 2), (3, 4), (4, 5)], 7)
    assert find_near_clique(g, 7, "2xP3") == tuple(range(7))


def test_near_clique_p4():
    g = near_clique_host([(0, 1), (1, 2), (2, 3)], 7)
    assert find_near_clique(g, 7, "P4") == tuple(range(7))


def test_near_clique_none_on_disjoint_blocks():
    for delta in (5, 6, 7):
        g = block_graph(2, delta)
        for pattern in NEAR_CLIQUE_PATTERNS:
            assert find_near_clique(g, delta, pattern) is None


def test_near_clique_matches_brute_force():
    rng = random.Random(73)
    for _ in range(40):
        g = random_graph(rng.randint(5, 9), rng.uniform(0.5, 0.9), rng)
        delta = rng.randint(4, max(4, g.n - 1))
        for pattern in NEAR_CLIQUE_PATTERNS:
            found = find_near_clique(g, delta, pattern)
            hits = brute_near_cliques(g, delta, pattern)
            assert (found is not None) == bool(hits)
            if found is not None:
                assert found == min(hits)


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_near_clique_reuses_a_given_clique_structure(name):
    g = NAMED_GRAPHS[name]()
    cs = clique_structure(g)
    delta = g.max_degree()
    for pattern in NEAR_CLIQUE_PATTERNS:
        assert find_near_clique(g, delta, pattern, cs) == find_near_clique(g, delta, pattern)


def test_signature_table_by_exhaustion():
    # a graph with at most 4 edges has at most 8 non-isolated vertices, so
    # every edge set of 2-4 edges on 8 labelled vertices covers every case;
    # the component shapes are the independent reference
    assert tuple(_SIGNATURES) == NEAR_CLIQUE_PATTERNS == tuple(PATTERN_SHAPES)
    pairs = list(combinations(range(8), 2))
    sets = 0
    matched = dict.fromkeys(NEAR_CLIQUE_PATTERNS, 0)
    for size in (2, 3, 4):
        for edges in map(list, combinations(pairs, size)):
            touched = sorted({v for e in edges for v in e})
            shapes = sorted(_component_shapes(touched, edges))
            signature = _signature(edges)
            for pattern in NEAR_CLIQUE_PATTERNS:
                is_pattern = shapes == sorted(PATTERN_SHAPES[pattern])
                assert (signature == _SIGNATURES[pattern]) == is_pattern, (edges, pattern)
                matched[pattern] += is_pattern
            sets += 1
    assert sets == 24129
    assert all(matched.values())


def test_count_table_by_exhaustion():
    # both directions over 8 labels, enough for 4 edges, with the component
    # shapes as the reference: an adjacent pair u, v missing A and B in a
    # core forms a pattern exactly when (min, max, shared) of |A|, |B| is its
    # entry; and every 2-4-edge set forming a pattern has an adjacent cover
    # pair whose misses count as that entry
    def shape(edges):
        shapes = sorted(_component_shapes(sorted({x for e in edges for x in e}), edges))
        return next((p for p in NEAR_CLIQUE_PATTERNS if shapes == sorted(PATTERN_SHAPES[p])), None)

    assert tuple(_COVERS) == NEAR_CLIQUE_PATTERNS == tuple(PATTERN_SHAPES)
    entry = {counts: pattern for pattern, counts in _COVERS.items()}
    u, v = 8, 9
    subsets = [s for size in range(5) for s in combinations(range(8), size)]
    pairs = 0
    for a in subsets:
        for b in subsets:
            if 2 <= len(a) + len(b) <= 4:
                i, j = sorted((len(a), len(b)))
                edges = [(x, u) for x in a] + [(x, v) for x in b]
                assert entry.get((i, j, len(set(a) & set(b)))) == shape(edges), (a, b)
                pairs += 1
    assert pairs == 2500  # C(16, s) pairs (A, B) with |A| + |B| = s, s = 2-4
    labels = list(combinations(range(8), 2))
    matched = dict.fromkeys(NEAR_CLIQUE_PATTERNS, 0)
    for size in (2, 3, 4):
        for edges in combinations(labels, size):
            pattern = shape(list(edges))
            if pattern is None:
                continue
            covers = set()
            for x, y in labels:
                if (x, y) not in edges and all(x in e or y in e for e in edges):
                    a = {w for e in edges if x in e for w in e} - {x}
                    b = {w for e in edges if y in e for w in e} - {y}
                    covers.add((*sorted((len(a), len(b))), len(a & b)))
            assert _COVERS[pattern] in covers, (edges, pattern)
            matched[pattern] += 1
    assert all(matched.values()), matched


def test_count_search_matches_the_signature_oracle_on_near_clique_hosts():
    # K_n less 1-3n random edges, n = 4-20, at Delta = max degree, n, n - 1
    # and a random 4..n: the least witness or None, as the search over edge
    # lists and degree signatures finds it
    rng = random.Random("near-cliques:4-20")
    hits = dict.fromkeys(NEAR_CLIQUE_PATTERNS, 0)
    for _ in range(100):
        n = rng.randint(4, 20)
        pairs = list(combinations(range(n), 2))
        gone = set(rng.sample(pairs, min(len(pairs), rng.randint(1, 3 * n))))
        g = Graph(n, [e for e in pairs if e not in gone])
        cs = clique_structure(g)
        for delta in sorted({g.max_degree(), n, n - 1, rng.randint(4, n)}):
            for pattern in NEAR_CLIQUE_PATTERNS:
                want = signature_find_near_clique(g, delta, pattern)
                assert find_near_clique(g, delta, pattern, cs) == want, (g.masks, delta, pattern)
                hits[pattern] += want is not None
    assert min(hits.values()) >= 10, hits


def test_search_matches_the_signature_oracle_past_twenty_vertices():
    # C25^3, C30^3, a K5 chain and hosts of n = 21-40 (sparse random edges
    # and two cliques of 5-9 vertices less 2-4 edges each), at Delta = max
    # degree and a random smaller Delta
    rng = random.Random("near-cliques:21-40")
    hosts = [cycle_power(25, 3), cycle_power(30, 3), k5_chain(6)]
    for _ in range(50):
        n = rng.randint(21, 40)
        edges = {e for e in combinations(range(n), 2) if rng.random() < 0.15}
        for _ in range(2):
            inside = list(combinations(sorted(rng.sample(range(n), rng.randint(5, 9))), 2))
            edges |= set(inside) - set(rng.sample(inside, rng.randint(2, 4)))
        hosts.append(Graph(n, edges))
    hits = dict.fromkeys(NEAR_CLIQUE_PATTERNS, 0)
    for g in hosts:
        cs = clique_structure(g)
        for delta in (g.max_degree(), rng.randint(4, g.max_degree() - 1)):
            for pattern in NEAR_CLIQUE_PATTERNS:
                want = signature_find_near_clique(g, delta, pattern)
                assert find_near_clique(g, delta, pattern, cs) == want, (g.masks, delta, pattern)
                hits[pattern] += want is not None
    assert min(hits.values()) >= 2, hits


def test_near_clique_rejects_unknown_pattern():
    with pytest.raises(ValueError):
        find_near_clique(complete_graph(4), 4, "zigzag")


def test_eligibility_passes_on_block_instances():
    for g in (instance_a(), instance_b(), instance_c()):
        report = pipeline_eligibility(g)
        assert report.passed and report.failures() == []


def test_eligibility_fails_on_exceptional_graphs():
    g = strong_product(cycle_graph(5), complete_graph(2))
    report = pipeline_eligibility(g)
    assert not report.passed
    assert not report.degree_ok  # Delta = 5
    assert report.disjoint_witness is not None

    report = pipeline_eligibility(cycle_power(8, 2))
    assert not report.passed and not report.degree_ok


def test_eligibility_fails_on_complete_graph():
    report = pipeline_eligibility(complete_graph(7))
    assert not report.passed and not report.omega_ok
    assert report.failures()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _break(g: Graph, share: bool, pick: int) -> Graph:
    """g with one block hypothesis broken: with `share` and two blocks, block
    0's least vertex a joins block 1 less a vertex a misses, a second maximum
    clique meeting both; otherwise an outside vertex (a new one if g has
    none) gets a second neighbour in one block."""
    cs = clique_structure(g)
    blocks = [sorted(c) for c in cs.max_cliques]
    edges = set(g.edges())
    if share and len(blocks) > 1:
        a = blocks[0][0]
        dropped = min(v for v in blocks[1] if not g.has_edge(a, v))
        return Graph(g.n, edges | {(a, v) for v in blocks[1] if v != dropped})
    outside = sorted(set(range(g.n)) - set(cs.v_omega))
    if not outside:  # a new vertex seeing two vertices of one block
        block = blocks[pick % len(blocks)]
        return Graph(g.n + 1, edges | {(block[0], g.n), (block[1], g.n)})
    x = outside[pick % len(outside)]
    # a second neighbour in a block x sees, or two in one it does not
    block = next((b for b in blocks if neighbours(g, x) & set(b)), blocks[pick % len(blocks)])
    new = [v for v in block if not g.has_edge(x, v)][: 1 if neighbours(g, x) & set(block) else 2]
    return Graph(g.n, edges | {(v, x) for v in new})


@given(g=eligible_block_graphs(), share=st.booleans(), pick=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_broken_block_hypothesis_reads_as_check_words_everywhere(tmp_path_factory, g, share, pick):
    # an eligible block graph passes and builds a sampler; with one block
    # hypothesis broken, `kdfree check` exits 1, and the sampler, the
    # pipeline and `kdfree sample` name the witness in its FAIL lines' words
    cs = clique_structure(g)
    assert pipeline_eligibility(g, cs).passed
    assert StableSetSampler(g, cs).eligibility.passed
    bad = _break(g, share, pick)
    path = tmp_path_factory.mktemp("broken") / "g.el"
    path.write_text(write_edge_list(bad))
    code, out, _ = _run(["check", "--graph", str(path)])
    assert code == 1
    fails = [
        line
        for line in out.splitlines()
        if line.startswith(
            ("maximum cliques pairwise disjoint: FAIL (", "no outside vertex sees a block twice: FAIL (")
        )
    ]
    assert fails
    with pytest.raises(EligibilityError) as sampler_error:
        StableSetSampler(bad)
    assert str(sampler_error.value) == "; ".join(fails)
    with pytest.raises(EligibilityError) as pipeline_error:
        initial_colouring(bad, Fraction(1, 2))
    assert all(line in str(pipeline_error.value) for line in fails)
    code, _, err = _run(["sample", "--graph", str(path), "--trials", "10", "--seed", "0"])
    assert (code, err) == (1, f"ineligible input: {'; '.join(fails)}\n")


@given(g=eligible_block_graphs(max_blocks=3))
@settings(max_examples=50, deadline=None)
def test_eligible_block_graphs_compose_end_to_end(tmp_path_factory, g):
    # every eligible block graph composes: the combined certificate covers
    # each vertex once within the bound, and `kdfree pipeline --mode exact`
    # meets every condition on the same edge list
    report = end_to_end(g)
    assert report.composed is not None and report.ok
    assert report.composed.combined.total <= report.bound
    assert verify_certificate(g, report.composed.combined, [Fraction(1)] * g.n).ok
    path = tmp_path_factory.mktemp("eligible") / "g.el"
    path.write_text(write_edge_list(g))
    assert _run(["pipeline", "--graph", str(path), "--mode", "exact"])[0] == 0
