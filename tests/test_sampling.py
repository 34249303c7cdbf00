"""Two-stage stable-set distribution: exact enumeration and Monte Carlo."""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

from conftest import (
    ExactMarginals,
    TrialLoopSampler,
    exact_marginals,
    four_k9,
    joint_index,
    instance_a,
    instance_b,
    instance_c,
    medium_instance,
    neighbours,
    quarter_tail_sum,
    shuffle,
    three_k7,
    trial_rng,
    two_k75,
)
from kdfree import graphs, sampling
from kdfree.bounds import p_value
from kdfree.errors import EligibilityError, HypothesisViolated, SizeLimit
from kdfree.graphs import Graph, block_graph, clique_structure, complete_graph
from kdfree.intervals import StableSetWeighting, verify_certificate
from kdfree.lp import chi_f_weighted
from kdfree.pipeline import initial_colouring
from kdfree.sampling import StableSetSampler, estimate

F = Fraction


def mask_set(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(n) if (mask >> v) & 1)


def is_maximal_stable(g: Graph, s: frozenset[int]) -> bool:
    if not g.is_stable(s):
        return False
    return all(v in s or neighbours(g, v) & s for v in range(g.n))


def test_exact_block_marginals_tiny_instances():
    for g in (instance_a(), instance_b(), instance_c()):
        cs = clique_structure(g)
        ex = exact_marginals(g)
        for v in cs.v_omega:
            assert ex.pr_s_omega[v] == F(1, cs.omega)
        for v in range(g.n):
            if v not in cs.v_omega:
                assert ex.pr_s_omega[v] == 0
        assert sum(p for _, p in ex.distribution) == 1


def test_exact_outside_lower_bounds():
    for g in (instance_a(), instance_b(), instance_c()):
        cs = clique_structure(g)
        delta = g.max_degree()
        ex = exact_marginals(g)
        for v in range(g.n):
            if v in cs.v_omega:
                continue
            d = cs.d_omega[v]
            assert ex.block_nb_empty[v] >= quarter_tail_sum(d, cs.omega)
            assert ex.pr_s[v] >= ex.block_nb_empty[v] / (g.degree(v) - d + 1)
            assert ex.pr_s[v] >= p_value(delta, d)


def test_exact_distribution_support_is_maximal():
    g = instance_a()
    ex = exact_marginals(g)
    for s, p in ex.distribution:
        assert p > 0 and is_maximal_stable(g, s)


def test_single_block_k5():
    g = complete_graph(5)
    ex = exact_marginals(g)
    assert all(pr == F(1, 5) for pr in ex.pr_s_omega)
    assert all(pr == F(1, 5) for pr in ex.pr_s)
    assert all(len(s) == 1 and p == F(1, 5) for s, p in ex.distribution)


def test_two_disjoint_blocks_independent_choices():
    # the per-block 4-subset choices are independent and uniform; membership
    # of a cross-block vertex pair in the 4-subset graph factorises
    g = block_graph(2, 5)
    sampler = StableSetSampler(g)
    weights, total = sampler.enumerate_exact()
    assert sum(weights.values()) == total
    pr_s_omega = sampler.marginals(weights.items(), total, sampler.outside)[1]
    assert all(pr == F(1, 5) for pr in pr_s_omega)
    assert sampler.n_choices == 25
    chosen = [chosen_mask(sampler, j) for j in range(sampler.n_choices)]
    for u, v in ((0, 5), (3, 9)):
        hits = sum(1 for c in chosen if (c >> u) & (c >> v) & 1)
        assert F(hits, len(chosen)) == F(4, 5) * F(4, 5)


def chosen_mask(sampler: StableSetSampler, j: int) -> int:
    """The vertices of joint choice j's 4-subsets: its pool's colour classes
    split them."""
    return sum(sampler.pool(j)[0])


def test_block_tilde_membership_independent():
    # two block neighbours of an outside vertex land in the 4-subset graph
    # independently, each with probability 4/5
    g = instance_a()
    sampler = StableSetSampler(g)
    total = 0
    both = one_a = one_b = 0
    for j in range(sampler.n_choices):
        total += 1
        chosen = chosen_mask(sampler, j)
        in_a = chosen & 1
        in_b = (chosen >> 5) & 1
        both += in_a and in_b
        one_a += in_a
        one_b += in_b
    assert F(one_a, total) == F(4, 5) and F(one_b, total) == F(4, 5)
    assert F(both, total) == F(16, 25)


def test_extend_no_outside_returns_s_omega():
    sampler = StableSetSampler(block_graph(2, 5))
    rng = random.Random(11)
    s_omega, s = sampler.sample(rng)
    assert s == s_omega and sampler.extend(rng, s_omega) == s_omega


def test_extend_outside_vertex_without_conflicts_always_joins():
    # outside vertex with no block neighbours is always inserted
    ex = exact_marginals(block_graph(2, 5, outside=[[]]))
    assert ex.pr_s[10] == 1


def test_outside_pair_each_half():
    # adjacent outside pair with no other neighbours: the ordering decides
    g = block_graph(2, 5, outside=[[], []], outside_edges=[(0, 1)])
    ex = exact_marginals(g)
    assert ex.pr_s[10] == F(1, 2) and ex.pr_s[11] == F(1, 2)


def test_sampler_draws_are_maximal_stable():
    g = instance_c()
    sampler = StableSetSampler(g)
    for t in range(300):
        rng = trial_rng(9, t)
        _, s = sampler.sample(rng)
        assert is_maximal_stable(g, mask_set(s, g.n))


def test_estimate_matches_exact_within_bands():
    g = instance_a()
    ex = exact_marginals(g)
    report = estimate(g, trials=20000, seed=123)
    assert report.ok
    band = float(report.checks[0].band)
    for v in range(g.n):
        assert abs(float(report.freq_s[v] - ex.pr_s[v])) <= band


def test_marginals_of_counts_match_exact_marginals():
    # the exact weights, their reduced probabilities as counts over the least
    # common denominator, and exact_marginals give the same marginals; Pr(v in
    # S) is also the sum of the probabilities of the sets holding v
    for g in (instance_b(), medium_instance()):
        sampler = StableSetSampler(g)
        weights, total = sampler.enumerate_exact()
        assert sum(weights.values()) == total and min(weights.values()) > 0
        probs = {s: F(w, total) for s, w in weights.items()}
        least = math.lcm(*(p.denominator for p in probs.values()))
        counts = [(s, int(p * least)) for s, p in probs.items()]
        got = sampler.marginals(weights.items(), total, sampler.outside)
        assert sampler.marginals(counts, least, sampler.outside) == got
        ex = exact_marginals(g)
        assert got == (ex.pr_s, ex.pr_s_omega, ex.block_nb_empty, ex.expected_closed)
        assert ex.distribution == tuple((mask_set(s, g.n), p) for s, p in sorted(probs.items()))
        assert got[0] == tuple(
            sum((p for s, p in probs.items() if (s >> v) & 1), F(0)) for v in range(g.n)
        )


def test_estimate_is_deterministic():
    g = instance_b()
    assert estimate(g, trials=500, seed=7) == estimate(g, trials=500, seed=7)
    assert estimate(g, trials=500, seed=7) != estimate(g, trials=500, seed=8)


def test_estimate_s_contains_s_omega():
    g = instance_b()
    report = estimate(g, trials=2000, seed=5)
    for v in range(g.n):
        assert report.freq_s[v] >= report.freq_s_omega[v]


def test_estimate_classes_and_bounds():
    g = medium_instance()
    cs = clique_structure(g)
    report = estimate(g, trials=200, seed=1)
    assert report.vertex_class[5] == "Vw'"
    assert report.vertex_class[0] == "Vw"
    assert report.vertex_class[15] == "V4"
    assert report.paper_lower_bound[0] == F(1, 5)
    assert report.paper_lower_bound[15] == p_value(6, cs.d_omega[15])
    assert any(c.name == "pr_s_level" for c in report.checks)


@pytest.mark.parametrize(
    "build, digest",
    [
        (medium_instance, "d4a143730a037c3b06362f218d859c4ad68e0f78aa4abcb660fc4701cff9ec86"),
        (three_k7, "7d7ccd85ec8deaa358ca13d06b5d2c57bc9bafbc76da20d5cfe6f7de8f38ab76"),
        # Delta = 5: ineligible, so zero floors outside the blocks and no checks
        (
            lambda: block_graph(2, 5, [(0, 5)], [[1, 6], [2]]),
            "4f4ba39c6e6d2b172c4bae84413863a3e0b4a09577cd1c6b3c2de7865ba05e6d",
        ),
    ],
    ids=["medium", "3xK7", "ineligible"],
)
def test_estimate_report_bytes(build, digest):
    # sha256 of the whole report's repr: classes, floors, every check in its
    # order, and the frequencies
    report = estimate(build(), 3000, 5)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest


def test_sampler_rejects_small_blocks():
    with pytest.raises(EligibilityError):
        StableSetSampler(complete_graph(3))


def test_sampler_rejects_intersecting_blocks():
    edges = [e for e in combinations(range(6), 2) if e != (0, 1)]
    with pytest.raises(EligibilityError):
        StableSetSampler(Graph(6, edges))


def test_aharoni_guard_fires_on_overloaded_tilde():
    # vertex 0 has one cross edge into each of three other blocks, so a joint
    # choice containing 0 and all its cross neighbours overloads the 4-subset
    # graph's degree bound
    g = block_graph(4, 5, cross_edges=[(0, 5), (0, 10), (0, 15)])
    sampler = StableSetSampler(g)
    bad = ((0, 1, 2, 3), (5, 6, 7, 8), (10, 11, 12, 13), (15, 16, 17, 18))
    with pytest.raises(HypothesisViolated):
        sampler.pool(joint_index(sampler.blocks, bad))


def test_aharoni_guard_fires_with_a_warm_memo():
    # a failing shape is never memoised: the overloaded choice, and a second
    # choice of the same shape, raise every time, before and after a good
    # choice has warmed both memos
    g = block_graph(4, 5, cross_edges=[(0, 5), (0, 10), (0, 15)])
    sampler = StableSetSampler(g)
    bad = ((0, 1, 2, 3), (5, 6, 7, 8), (10, 11, 12, 13), (15, 16, 17, 18))
    same_shape = ((0, 1, 2, 4), (5, 6, 7, 9), (10, 11, 12, 14), (15, 16, 17, 19))
    good = ((1, 2, 3, 4), (6, 7, 8, 9), (11, 12, 13, 14), (16, 17, 18, 19))

    def picks(choice):
        return joint_index(sampler.blocks, choice)

    def refused(choices):
        for choice in choices:
            with pytest.raises(HypothesisViolated):
                sampler.pool(picks(choice))

    refused((bad, bad, same_shape))
    assert not sampler._pools and not sampler._shapes
    plan = sampler.pool(picks(good))
    assert sampler._pools[picks(good)] == plan
    refused((bad, same_shape, bad))
    assert list(sampler._pools) == [picks(good)] and len(sampler._shapes) == 1


def test_shape_without_a_colouring_or_past_the_node_cap_is_named(monkeypatch):
    # K5 has degree 4 but no proper 4-colouring; a real shape past a lowered
    # node cap gives up (the medium instance's 4-subset graphs have 12
    # vertices, each coloured in one try)
    with pytest.raises(HypothesisViolated, match=r"parts \[\(0, 1, 2, 3\), \(4,\)\] with edges"):
        sampling._shape_pool(complete_graph(5), ((0, 1, 2, 3), (4,)))
    sampler = StableSetSampler(medium_instance())
    monkeypatch.setattr(graphs, "COLOURING_NODE_LIMIT", 11)
    with pytest.raises(SizeLimit, match=r"gave up: parts \[\(0, 1, 2, 3\), \(4, 5, 6, 7\)"):
        sampler.pool(0)  # each block's first 4-subset
    assert not sampler._shapes
    monkeypatch.setattr(graphs, "COLOURING_NODE_LIMIT", 12)
    assert len(sampler.pool(0)[0]) == 4


def test_enumeration_size_limit():
    g = block_graph(2, 5, outside=[[] for _ in range(9)])
    with pytest.raises(SizeLimit):
        exact_marginals(g)


def test_enumeration_work_counts_inserted_sets(monkeypatch):
    # two isolated outside vertices: each of the 4 pool columns has one
    # inserted set, while an outside edge gives each column two
    for edges, pairs in (((), 4), (((0, 1),), 8)):
        g = block_graph(1, 4, outside=[[], []], outside_edges=edges)
        sampler = StableSetSampler(g)
        assert len(sampler.pool(0)[0]) == 4
        monkeypatch.setattr(sampling, "ENUMERATION_WORK_LIMIT", pairs)
        sampler.enumerate_exact()
        monkeypatch.setattr(sampling, "ENUMERATION_WORK_LIMIT", pairs - 1)
        with pytest.raises(SizeLimit):
            sampler.enumerate_exact()


# ── differential check against the k!-order walk ─────────────────────────


def enumerate_by_orders(sampler: StableSetSampler, active=None) -> ExactMarginals:
    """Stage two as k! equally likely insertion orders, walked one by one."""
    outside = list(sampler.outside if active is None else sorted(active))
    g = sampler.g
    n, masks = g.n, g.masks
    closed = [masks[v] | (1 << v) for v in range(n)]
    orders = list(permutations(outside))
    pr_s_omega = [F(0)] * n
    nb_empty = {v: F(0) for v in outside}
    dist: dict[int, Fraction] = {}
    for j in range(sampler.n_choices):
        pool = sampler.pool(j)[0]
        col_p = F(1, sampler.n_choices * len(pool))
        for col in pool:
            for v in range(n):
                if (col >> v) & 1:
                    pr_s_omega[v] += col_p
            for v in outside:
                if not masks[v] & col:
                    nb_empty[v] += col_p
            hits: dict[int, int] = {}
            for order in orders:
                s = col
                for u in order:
                    if not masks[u] & s:
                        s |= 1 << u
                hits[s] = hits.get(s, 0) + 1
            for s, count in hits.items():
                dist[s] = dist.get(s, F(0)) + col_p * F(count, len(orders))
    pr_s = [sum((p for s, p in dist.items() if (s >> v) & 1), F(0)) for v in range(n)]
    e_closed = [sum((p * (closed[v] & s).bit_count() for s, p in dist.items()), F(0)) for v in range(n)]
    return ExactMarginals(
        pr_s=tuple(pr_s),
        pr_s_omega=tuple(pr_s_omega),
        block_nb_empty=nb_empty,
        expected_closed=tuple(e_closed),
        distribution=tuple((mask_set(s, n), p) for s, p in sorted(dist.items())),
    )


def enumerate_exact_marginals(sampler: StableSetSampler, active=None) -> ExactMarginals:
    """Every ExactMarginals field rebuilt from enumerate_exact's weights over
    S masks and their total, which must be positive and add up."""
    weights, total = sampler.enumerate_exact(active)
    assert sum(weights.values()) == total and min(weights.values()) > 0
    outside = sampler.outside if active is None else sorted(active)
    return ExactMarginals(
        *sampler.marginals(weights.items(), total, outside),
        distribution=tuple(
            (mask_set(s, sampler.g.n), F(w, total)) for s, w in sorted(weights.items())
        ),
    )


def random_block_graph(rng: random.Random, outside_count: int, omega: int) -> Graph:
    """Planted K_omega blocks (the only maximum cliques), an optional bridge,
    and outside vertices seeing at most one vertex of each block."""
    while True:
        blocks = rng.choice((1, 2))
        cross = []
        if blocks == 2 and rng.random() < 0.5:
            cross = [(rng.randrange(omega), omega + rng.randrange(omega))]
        outside = [
            [b * omega + rng.randrange(omega) for b in range(blocks) if rng.random() < 0.6]
            for _ in range(outside_count)
        ]
        edges = [e for e in combinations(range(outside_count), 2) if rng.random() < 0.35]
        g = block_graph(blocks, omega, cross, outside, edges)
        cs = clique_structure(g)
        if cs.omega == omega and len(cs.max_cliques) == blocks:
            return g


@pytest.mark.parametrize("outside_count", range(1, 8))
def test_enumerate_exact_matches_order_walk(outside_count):
    rng = random.Random(f"order-walk:{outside_count}")
    for case in range(4 if outside_count < 7 else 2):
        sampler = StableSetSampler(random_block_graph(rng, outside_count, 4 + case % 2))
        subsets = [None, sorted(rng.sample(sampler.outside, rng.randint(0, outside_count)))]
        for active in subsets:
            assert enumerate_exact_marginals(sampler, active) == enumerate_by_orders(sampler, active)


def test_enumerate_exact_matches_order_walk_on_medium():
    # every pool is the 4 colour classes, so the weights are out of n 4 k!
    sampler = StableSetSampler(medium_instance())
    assert {len(sampler.pool(j)[0]) for j in range(sampler.n_choices)} == {4}
    for active in (None, [15, 17], [16, 17, 18]):
        assert enumerate_exact_marginals(sampler, active) == enumerate_by_orders(sampler, active)


def test_trial_streams_depend_only_on_their_key():
    # the same key gives the same draws however many other streams were
    # drawn from, and in whatever order
    def draws(rng):
        return [rng.randrange(n) for n in (5, 6, 2, 1000, 7)]

    alone = {t: draws(trial_rng(3, t)) for t in range(40)}
    streams = {t: trial_rng(3, t) for t in reversed(range(40))}
    interleaved: dict[int, list[int]] = {t: [] for t in streams}
    for n in (5, 6, 2, 1000, 7):
        for t, rng in streams.items():
            interleaved[t].append(rng.randrange(n))
    assert interleaved == alone
    assert len({tuple(d) for d in alone.values()}) == 40
    assert draws(trial_rng(3, 0, 0)) != draws(trial_rng(3, 0)) != draws(trial_rng(30))


def test_trial_stream_blocks_are_salted_blake2b_digests():
    blocks = trial_rng(7, 3).randrange(2**1024)
    want = [hashlib.blake2b(b"7:3", salt=b.to_bytes(16, "little")).digest() for b in (0, 1)]
    assert want[0] == hashlib.blake2b(b"7:3").digest()
    assert blocks == int.from_bytes(b"".join(want), "little")


def test_trial_stream_draws_across_block_boundaries():
    # a 300-item shuffle reads about 2400 bits, several 512-bit blocks
    for t in range(5):
        items = list(range(300))
        shuffle(trial_rng(1, t), items)
        assert sorted(items) == list(range(300)) and items != list(range(300))
    wide = [trial_rng(2, t).randrange(2**600) for t in range(20)]
    assert all(0 <= r < 2**600 for r in wide)
    assert any(r >= 2**512 for r in wide)


def test_trial_stream_range_ends():
    rng = trial_rng(0, 0)
    assert [rng.randrange(1) for _ in range(3)] == [0, 0, 0]
    for n in (0, -1):
        with pytest.raises(ValueError):
            rng.randrange(n)


def test_trial_stream_pinned_outputs():
    rng = trial_rng(7, 3)
    assert [rng.randrange(10**6) for _ in range(4)] == [406579, 95106, 852651, 859128]
    rng = trial_rng(0, 0, 11)
    items = list(range(8))
    shuffle(rng, items)
    assert items == [3, 5, 6, 7, 1, 4, 2, 0] and "abcdef"[rng.randrange(6)] == "f"
    assert trial_rng(123).randrange(2**600) % 10**12 == 946986740966


@pytest.mark.parametrize("n", [5, 6])
def test_trial_stream_draws_are_uniform(n):
    trials = 60000
    counts = [0] * n
    for t in range(trials):
        counts[trial_rng(n, t).randrange(n)] += 1
    band = math.sqrt(math.log(1e9) / (2 * trials))  # Hoeffding at failure probability 1e-9
    assert all(abs(c / trials - 1 / n) <= band for c in counts)


def test_estimate_loads_no_openssl_hash():
    # hashlib imports OpenSSL, which costs several MB of resident memory
    code = (
        "import sys, kdfree\n"
        "g = kdfree.block_graph(2, 5, outside=[[0, 5], [1]])\n"
        "assert kdfree.estimate(g, 200, 1).ok\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sampling.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_subset_unranks_combinations_order():
    # the r-th 4-subset in combinations order, every index of blocks of 4-20
    # vertices and 200 seeded indices of a 75-vertex block
    for size in range(4, 21):
        b = tuple(range(3, 3 + 2 * size, 2))
        assert [sampling._subset(b, r) for r in range(math.comb(size, 4))] == list(combinations(b, 4))
    b, rng = tuple(range(75)), random.Random(75)
    for r in (rng.randrange(math.comb(75, 4)) for _ in range(200)):
        assert sampling._subset(b, r) == next(islice(combinations(b, 4), r, None))


def test_sampler_lists_no_4_subsets():
    g = two_k75()
    cs = clique_structure(g)
    tracemalloc.start()
    try:
        sampler = StableSetSampler(g, cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert sampler.n_choices == math.comb(75, 4) ** 2
    assert sum(sampler.tally(1, (), 50).values()) == 50


# ── differential check against the per-trial loop ─────────────────────────


def estimate_by_trials(g: Graph, trials: int, seed: int):
    """freq_s, freq_s_omega, freq_nb_empty and mean_closed tallied vertex by
    vertex after every draw of the per-trial loop."""
    oracle = TrialLoopSampler(g)
    outside = oracle.sampler.outside
    n, masks = g.n, g.masks
    closed = [masks[v] | (1 << v) for v in range(n)]
    count_s, count_s_omega, total_closed = [0] * n, [0] * n, [0] * n
    count_nb_empty = {v: 0 for v in outside}
    for t in range(trials):
        s_omega, s = oracle.sample(trial_rng(seed, t))
        for v in range(n):
            count_s[v] += (s >> v) & 1
            count_s_omega[v] += (s_omega >> v) & 1
            total_closed[v] += (closed[v] & s).bit_count()
        for v in outside:
            if not masks[v] & s_omega:
                count_nb_empty[v] += 1
    return (
        tuple(F(c, trials) for c in count_s),
        tuple(F(c, trials) for c in count_s_omega),
        {v: F(c, trials) for v, c in count_nb_empty.items()},
        tuple(F(c, trials) for c in total_closed),
    )


@pytest.mark.parametrize(
    "build, trials",
    [
        (instance_a, 1500),
        (instance_b, 1500),
        (instance_c, 1500),
        (medium_instance, 1500),
        (three_k7, 60),
        (four_k9, 30),
    ],
)
def test_estimate_matches_per_trial_loop(build, trials):
    g = build()
    for seed in (0, 7, 2024):
        report = estimate(g, trials, seed)
        got = (report.freq_s, report.freq_s_omega, report.freq_nb_empty, report.mean_closed)
        assert got == estimate_by_trials(g, trials, seed)


def test_sampler_draws_match_per_trial_loop():
    # sample(rng) reads one rng.randrange(2**64) and nothing else, and returns
    # trial 0 of that seed, pool column and whole draw as the per-trial loop
    # makes them: with and without an active subset, from a plain
    # random.Random and from a trial stream as the caller's rng
    g = medium_instance()
    sampler, oracle = StableSetSampler(g), TrialLoopSampler(g)
    for stream in (random.Random, lambda x: trial_rng(5, x)):
        for active in (None, [15, 17, 18], []):
            for x in range(200):
                rng, twin = stream(x), stream(x)
                want = oracle.sample(trial_rng(twin.randrange(2**64), 0), active)
                assert sampler.sample(rng, active) == want
                assert rng.randrange(2**64) == twin.randrange(2**64)


def tally_by_trials(oracle: TrialLoopSampler, seed: int, key: tuple, trials: int, active=None):
    return Counter(
        oracle.sample(trial_rng(seed, *key, t), active)[1] for t in range(trials)
    )


@pytest.mark.parametrize("digits", [600, 5000])
def test_tally_keys_spell_out_long_seeds(digits):
    # str() refuses the 5,000-digit seed under the default conversion limit,
    # so the reference streams' keys are built with the limit lifted
    seed = 7 * (10**digits - 1) // 9
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = tally_by_trials(TrialLoopSampler(instance_b()), seed, (2,), 30)
    finally:
        sys.set_int_max_str_digits(limit)
    assert StableSetSampler(instance_b()).tally(seed, (2,), 30) == want


@pytest.mark.parametrize(
    "build, trials",
    [
        (instance_a, 300),
        (instance_b, 300),
        (instance_c, 300),
        (medium_instance, 300),
        (three_k7, 30),
        (four_k9, 15),
    ],
)
def test_tally_matches_per_trial_loop(build, trials):
    g = build()
    sampler, oracle = StableSetSampler(g), TrialLoopSampler(g)
    for key in ((), (2,)):
        for active in (None, sampler.outside[::2], []):
            got = sampler.tally(7, key, trials, active)
            assert got == tally_by_trials(oracle, 7, key, trials, active)
            assert sum(got.values()) == trials
    assert sampler.tally(7, (), 1) == tally_by_trials(oracle, 7, (), 1)


def test_tally_shuffle_crosses_a_block_boundary(monkeypatch):
    # 150 outside vertices on a path: stage two's draws over the insertable
    # set, dozens per trial, run past the first 512-bit block in some trials
    outside = [[i % 10] for i in range(150)]
    g = block_graph(2, 5, [(0, 5)], outside, [(i, i + 1) for i in range(149)])
    sampler, oracle = StableSetSampler(g), TrialLoopSampler(g)
    assert len(sampler.outside) == 150
    blocks_read: dict[bytes, int] = {}  # trial key -> the last block it read
    block = sampling._block

    def recorded(key, b):
        blocks_read[key] = max(blocks_read.get(key, 0), b)
        return block(key, b)

    monkeypatch.setattr(sampling, "_block", recorded)
    for key in ((), (1,)):
        assert sampler.tally(3, key, 40) == tally_by_trials(oracle, 3, key, 40)
    assert len(blocks_read) == 80 and max(blocks_read.values()) >= 1


def test_tally_memos_stay_within_the_cache_cap(monkeypatch):
    largest: dict[int, int] = {}  # id of each memo stored through _remember -> its peak size
    remember = sampling._remember

    def recorded(cache, key, value):
        remember(cache, key, value)
        largest[id(cache)] = max(largest.get(id(cache), 0), len(cache))

    monkeypatch.setattr(sampling, "_remember", recorded)
    monkeypatch.setattr(sampling, "POOL_CACHE_LIMIT", 3)
    g = medium_instance()
    sampler = StableSetSampler(g)
    assert sampler.tally(4, (), 600) == tally_by_trials(TrialLoopSampler(g), 4, (), 600)
    # the pools by block indices and by shape
    assert len(largest) == 2 and max(largest.values()) == 3
    assert len(sampler._pools) == 3 and len(sampler._shapes) <= 3


class CountedColouring:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = sampling.rainbow_colouring

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sampling, "rainbow_colouring", counted)


def test_one_colouring_per_shape(monkeypatch):
    colourings = CountedColouring(monkeypatch)
    sampler = StableSetSampler(medium_instance())
    sampler.enumerate_exact()
    assert len(sampler._pools) == 125
    assert colourings.calls == len(sampler._shapes) <= 4
    colourings.calls = 0
    estimate(three_k7(), 300, 11)
    assert colourings.calls <= 4


def test_shared_shape_pools_are_rainbow_colourings_in_g(monkeypatch):
    # neither choice meets a bridge end, so both are three disjoint K4s: one
    # colouring, relabelled, gives each choice 4 stable classes that split
    # the chosen vertices and meet every chosen 4-subset once
    g = three_k7()
    sampler = StableSetSampler(g)
    first = ((1, 2, 3, 4), (8, 9, 10, 11), (15, 16, 17, 18))
    second = ((2, 3, 5, 6), (9, 10, 12, 13), (16, 17, 19, 20))
    colourings = CountedColouring(monkeypatch)
    pools = [sampler.pool(joint_index(sampler.blocks, choice))[0] for choice in (first, second)]
    assert colourings.calls == 1
    for choice, pool in zip((first, second), pools):
        assert len(pool) == 4
        in_classes = [v for col in pool for v in mask_set(col, g.n)]
        assert sorted(in_classes) == sorted(v for sub in choice for v in sub)
        for col in pool:
            s = mask_set(col, g.n)
            assert g.is_stable(s)
            assert all(len(s & set(sub)) == 1 for sub in choice)


def test_pool_caches_stay_within_their_cap(monkeypatch):
    g = medium_instance()
    want = estimate(g, 1500, 4)
    built: list[StableSetSampler] = []

    class Recorded(StableSetSampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(sampling, "StableSetSampler", Recorded)
    monkeypatch.setattr(sampling, "POOL_CACHE_LIMIT", 3)
    assert estimate(g, 1500, 4) == want
    (sampler,) = built
    assert len(sampler._pools) == 3 and len(sampler._shapes) <= 3
    sampler.enumerate_exact()
    assert len(sampler._pools) == 3 and len(sampler._shapes) <= 3


# ── the law of one trial's draws ───────────────────────────────────────────


class PathRng:
    """randrange that answers `path` in turn and 0 after it, recording the
    range of every draw."""

    def __init__(self, path: tuple[int, ...]):
        self.path, self.ranges = path, []

    def randrange(self, n: int) -> int:
        i = len(self.ranges)
        self.ranges.append(n)
        return self.path[i] if i < len(self.path) else 0


def law_of_draws(trial) -> dict[int, Fraction]:
    """The law of trial(rng)'s S mask: every path of randrange outcomes,
    each weighted by the product of 1/n over its draws."""
    law: dict[int, Fraction] = {}
    paths = [()]
    while paths:
        path = paths.pop()
        rng = PathRng(path)
        s = trial(rng)
        law[s] = law.get(s, F(0)) + F(1, math.prod(rng.ranges))
        for i in range(len(path), len(rng.ranges)):
            prefix = path + (0,) * (i - len(path))
            paths.extend(prefix + (r,) for r in range(1, rng.ranges[i]))
    return law


def seven_outside() -> Graph:
    """Two bridged K5 blocks with seven outside vertices (k5x2-7out)."""
    return block_graph(
        2, 5, [(0, 5)], [[0], [5], [1, 6], [2, 7], [3], [8], [4, 9]], [(0, 1), (2, 3), (4, 5)]
    )


@pytest.mark.parametrize(
    "build", [instance_a, instance_b, instance_c, medium_instance, seven_outside],
    ids=["tiny-a", "tiny-b", "tiny-c", "medium", "k5x2-7out"],
)
def test_every_draw_path_of_a_trial_gives_the_exact_law(build):
    # a trial of the per-trial loop (the draws tally makes, see
    # test_tally_matches_per_trial_loop), and the pool column and joint index
    # drawn as one index, then extend, of the sampler, each walked over every
    # outcome of every draw
    g = build()
    sampler, oracle = StableSetSampler(g), TrialLoopSampler(g)
    weights, total = sampler.enumerate_exact()
    exact = {s: F(w, total) for s, w in weights.items()}

    def sampler_trial(rng):
        joint, column = divmod(rng.randrange(4 * sampler.n_choices), 4)
        return sampler.extend(rng, sampler.pool(joint)[0][column])

    assert law_of_draws(lambda rng: oracle.sample(rng)[1]) == exact
    assert law_of_draws(sampler_trial) == exact


@pytest.mark.parametrize(
    "build",
    [instance_a, instance_b, instance_c, medium_instance, seven_outside, three_k7, four_k9],
    ids=["tiny-a", "tiny-b", "tiny-c", "medium", "k5x2-7out", "3xK7", "4xK9"],
)
def test_every_shape_met_is_an_optimal_fractional_colouring(build):
    # the LP as oracle: every shape's 4-subset graph has chi_f exactly 4, and
    # its four colour classes at weight 1 are a certificate of that value;
    # exact enumeration meets every shape, and 600 trials meet all 4 shapes
    # of 3xK7 and all 7 of 4xK9 (one per set of bridges a choice can hold)
    sampler = StableSetSampler(build())
    if sampler.n_choices <= 125:
        sampler.enumerate_exact()
    else:
        sampler.tally(1, (), 600)
    assert sampler._shapes
    for (tilde, subsets), classes in sampler._shapes.items():
        ones = [F(1)] * tilde.n
        assert chi_f_weighted(tilde, ones).value == 4
        colouring = StableSetWeighting(tuple((frozenset(c), F(1)) for c in classes), F(4))
        assert verify_certificate(tilde, colouring, ones).ok
        assert all(len(set(c) & set(sub)) == 1 for c in classes for sub in subsets)


# ── trials split over forked processes ────────────────────────────────────

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="tally splits its trials only where os.fork and os.sched_getaffinity exist",
)


@pytest.fixture
def split(monkeypatch):
    """tally split over up to three processes of at least 8 trials each; the
    list records every os.fork the caller makes."""
    forks: list[int] = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(sampling, "TRIALS_PER_PROCESS", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def serial(monkeypatch, run):
    """run() with every tally in one process."""
    with monkeypatch.context() as m:
        m.setattr(sampling, "TRIALS_PER_PROCESS", 10**9)
        return run()


@needs_fork
@pytest.mark.parametrize("build, trials", [(medium_instance, 300), (three_k7, 30)])
def test_split_tally_is_the_serial_tally(split, monkeypatch, build, trials):
    g = build()
    sampler, oracle = StableSetSampler(g), TrialLoopSampler(g)
    runs = 0
    for key in ((), (2,)):
        for active in (None, sampler.outside[::2], []):
            got = sampler.tally(7, key, trials, active)
            want = serial(monkeypatch, lambda: StableSetSampler(g).tally(7, key, trials, active))
            # the same counts, first seen in the same order
            assert list(got.items()) == list(want.items())
            assert list(got.items()) == list(tally_by_trials(oracle, 7, key, trials, active).items())
            runs += 1
    assert len(split) == 2 * runs  # three processes each time


@needs_fork
def test_split_estimate_and_montecarlo_pipeline_are_serial_outputs(split, monkeypatch):
    g = medium_instance()
    report = estimate(g, 600, 5)
    trace, weighting = initial_colouring(g, F(1, 2), mode="montecarlo", trials=300, seed=3)
    assert split
    assert repr(report) == repr(serial(monkeypatch, lambda: estimate(g, 600, 5)))
    again = serial(
        monkeypatch,
        lambda: initial_colouring(g, F(1, 2), mode="montecarlo", trials=300, seed=3),
    )
    assert repr((trace, weighting)) == repr(again)


def first_trials_of_shapes(monkeypatch, g: Graph, seed: int, trials: int) -> list[tuple]:
    """The pool shapes that trials t < `trials` of seed `seed` meet, with
    the first trial meeting each, as (trial, shape) in trial order."""
    met: list[tuple] = []
    trial = 0
    original = sampling._shape_pool

    def recorded(*shape):
        met.append((trial, shape))  # a sampler solves each shape once
        return original(*shape)

    sampler = StableSetSampler(g)
    with monkeypatch.context() as m:
        m.setattr(sampling, "_shape_pool", recorded)
        m.setattr(sampling, "TRIALS_PER_PROCESS", 10**9)
        for trial in range(trials):
            sampler.tally(seed, (), trial + 1)  # earlier trials hit the memo
    return met


@needs_fork
@pytest.mark.parametrize("refused", [(3,), (2, 3), (1, 3)], ids=["last-child", "both-children", "parent"])
def test_split_tally_raises_what_a_serial_run_raises(split, monkeypatch, refused):
    # the least seed whose 24 trials meet four shapes, first met by trials in
    # the ranges 0, 0, 1 and 2 of 8: split into three ranges of 8, the
    # parent's range meets shapes 0 and 1, the first child's shape 2 and the
    # second child's shape 3
    g, trials = medium_instance(), 24
    for seed in range(200):
        met = first_trials_of_shapes(monkeypatch, g, seed, trials)
        if [t // 8 for t, _ in met] == [0, 0, 1, 2]:
            break
    else:
        pytest.fail("no seed below 200 meets its shapes in that layout")
    bad = {met[i][1]: f"refused the shape first met at trial {met[i][0]}" for i in refused}
    original = sampling._shape_pool

    def refusing(*shape):
        if shape in bad:
            raise HypothesisViolated(bad[shape])
        return original(*shape)

    monkeypatch.setattr(sampling, "_shape_pool", refusing)
    with pytest.raises(HypothesisViolated) as once:
        serial(monkeypatch, lambda: StableSetSampler(g).tally(seed, (), trials))
    assert str(once.value) == bad[met[refused[0]][1]]
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(HypothesisViolated) as split_run:
        StableSetSampler(g).tally(seed, (), trials)
    assert str(split_run.value) == str(once.value)
    assert len(split) == 2
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("setting", ["thread", "no-affinity", "one-cpu", "few-trials"])
def test_serial_fallbacks_never_fork(monkeypatch, setting):
    g = medium_instance()
    trials = 15 if setting == "few-trials" else 64  # 15 < 2 * 8
    want = list(StableSetSampler(g).tally(3, (), trials).items())

    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(sampling, "TRIALS_PER_PROCESS", 8)
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    cpus = {0} if setting == "one-cpu" else {0, 1, 2}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    if setting == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    if setting == "thread":
        worker.start()
    try:
        got = StableSetSampler(g).tally(3, (), trials)
    finally:
        stop.set()
        if setting == "thread":
            worker.join(timeout=10)
    assert not worker.is_alive()
    assert list(got.items()) == want


@pytest.mark.parametrize("active, stray", [([15, 0], [0]), ([99, 16], [99])], ids=["block", "range"])
@pytest.mark.parametrize("entry", ["extend", "sample", "tally", "enumerate_exact"])
def test_active_vertices_must_be_outside_vertices(monkeypatch, entry, active, stray):
    # a block vertex or an id past n, named before any child is forked
    sampler = StableSetSampler(medium_instance())

    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(sampling, "TRIALS_PER_PROCESS", 8)
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    call = {
        "extend": lambda: sampler.extend(random.Random(0), 0, active),
        "sample": lambda: sampler.sample(random.Random(0), active),
        "tally": lambda: sampler.tally(1, (), 64, active),
        "enumerate_exact": lambda: sampler.enumerate_exact(active),
    }[entry]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"active vertices {stray} are not outside vertices"


@needs_fork
def test_split_tally_runs_a_range_here_when_no_child_starts(split, monkeypatch):
    g = medium_instance()
    want = list(serial(monkeypatch, lambda: StableSetSampler(g).tally(3, (), 64)).items())
    fork = os.fork  # the counting fork of `split`
    calls = 0

    def second_fails():
        nonlocal calls
        calls += 1
        if calls == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert list(StableSetSampler(g).tally(3, (), 64).items()) == want
    assert len(split) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds
