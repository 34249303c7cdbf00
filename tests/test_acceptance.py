"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every numeric comparison is exact rational arithmetic; statistical
assertions use Hoeffding bands at failure probability 1e-3.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import (
    brute_bumps,
    brute_near_cliques,
    brute_stable_sets,
    exact_marginals,
    instance_a,
    instance_b,
    instance_c,
    medium_instance,
    quarter_tail_sum,
    random_graph,
    random_partitioned_instance,
    random_weights,
)
from kdfree.bounds import main_bound, matches_published, p_value
from kdfree.graphs import (
    NAMED_GRAPHS,
    clique_structure,
    complete_graph,
    cycle_graph,
    reed_weight,
    strong_product,
)
from kdfree.intervals import verify_certificate
from kdfree.lp import chi_f, chi_f_weighted
from kdfree.pipeline import end_to_end, verify_theorem_initial
from kdfree.sampling import estimate
from kdfree.structure import (
    NEAR_CLIQUE_PATTERNS,
    find_bump,
    find_near_clique,
    pipeline_eligibility,
)

F = Fraction
ONE = F(1)

PUBLISHED_TABLE = {
    6: ("0.029376", "0.205", 6, "1.518", "0.04459"),
    7: ("0.054869", "0.439", 6, "1.640", "0.08999"),
    8: ("0.062947", "0.567", 7, "1.804", "0.11353"),
    9: ("0.066406", "0.664", 7, "1.969", "0.13077"),
    10: ("0.066328", "0.730", 8, "2.146", "0.14234"),
    100: ("0.009843", "0.994", 29, "20.003", "0.19691"),
}
PUBLISHED_1000 = ("0.000998", 135, "199.979", "0.19973")

NAMED_CHI_F = {
    "c8sq": F(4),
    "c5xk2": F(5),
    "c11sq": F(11, 3),
    "c7xk2": F(14, 3),
    "p72": F(14, 5),
    "c5xk3": F(15, 2),
    "c5xk3-2v": F(13, 2),
    "c5xk3-4v": F(11, 2),
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_constants_table():
    start = time.monotonic()
    mismatches = []
    for delta, (mu_s, mudp1_s, d_s, yt_s, ytmu_s) in PUBLISHED_TABLE.items():
        rep = main_bound(delta)
        checks = [
            rep.argmin_d == d_s,
            matches_published(rep.mu, mu_s),
            matches_published(rep.mu * (delta + 1), mudp1_s),
            matches_published(rep.ytilde, yt_s),
            matches_published(rep.ytilde * rep.mu, ytmu_s),
        ]
        if not all(checks):
            mismatches.append(delta)
    main_elapsed = time.monotonic() - start
    mu_s, d_s, yt_s, ytmu_s = PUBLISHED_1000
    rep = main_bound(1000)
    big_ok = (
        rep.argmin_d == d_s
        and matches_published(rep.mu, mu_s)
        and matches_published(rep.ytilde, yt_s)
        and matches_published(rep.ytilde * rep.mu, ytmu_s)
    )
    elapsed = time.monotonic() - start
    ok = not mismatches and main_elapsed < 60 and big_ok and elapsed < 1800
    _report(
        "1 (table of constants)",
        ok,
        f"Delta 6..10,100 in {main_elapsed:.1f}s, Delta=1000 row included, total {elapsed:.1f}s",
    )


def test_criterion_2_named_graph_values():
    slow = []
    wrong = []
    for name, expected in NAMED_CHI_F.items():
        g = NAMED_GRAPHS[name]()
        start = time.monotonic()
        value = chi_f(g).value
        elapsed = time.monotonic() - start
        if value != expected:
            wrong.append((name, value))
        if elapsed >= 10:
            slow.append((name, elapsed))
    _report(
        "2 (named chi_f values)",
        not wrong and not slow,
        f"8 graphs exact {'OK' if not wrong else wrong}, slowest under 10s {'OK' if not slow else slow}",
    )


def test_criterion_3_product_below_one_fifth():
    deltas = list(range(6, 21)) + [50, 100, 1000]
    bad = []
    for delta in deltas:
        rep = main_bound(delta)
        if not rep.ytilde * rep.mu < F(1, 5):
            bad.append(delta)
    _report(
        "3 (ytilde*mu < 1/5)",
        not bad,
        f"holds for every computed Delta in {deltas[0]}..{deltas[-1]}",
    )


def test_criterion_4_lp_integrity_suite():
    start = time.monotonic()
    rng = random.Random(20260808)
    violations = []
    for trial in range(500):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.15, 0.85), rng)
        w = random_weights(g.n, rng)
        res = chi_f_weighted(g, w)
        dual_value = sum((y * wv for y, wv in zip(res.dual, w)), F(0))
        if dual_value != res.value:
            violations.append((trial, "duality"))
        if not verify_certificate(g, res.primal, w).ok:
            violations.append((trial, "certificate"))
        # with the two checks above, a dual that is nonnegative and loads no
        # stable set past 1 proves optimality by weak duality
        if any(y < 0 for y in res.dual) or any(
            sum((res.dual[v] for v in s), F(0)) > 1 for s in brute_stable_sets(g)
        ):
            violations.append((trial, "dual feasibility"))
    elapsed = time.monotonic() - start
    _report(
        "4 (LP integrity, 500 graphs)",
        not violations and elapsed < 300,
        f"0 violations expected, got {len(violations)}; {elapsed:.1f}s < 300s",
    )


def test_criterion_5_weighted_reed_bound_suite():
    rng = random.Random(5)
    violations = 0
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.15, 0.85), rng)
        w = random_weights(g.n, rng)
        value = chi_f_weighted(g, w).value
        _, rho = reed_weight(g, clique_structure(g), w)
        if value > rho:
            violations += 1
    _report(
        "5 (chi_f^w <= rho_w, 200 instances)",
        violations == 0,
        f"{violations} violations in 200 exact comparisons",
    )


def test_criterion_6_clique_partition_suite():
    rng = random.Random(6)
    bad = 0
    for trial in range(50):
        omega, k = rng.choice([(4, 2), (5, 2), (6, 2), (6, 3)])
        blocks = rng.randint(2, 3)
        g = random_partitioned_instance(rng, omega, k, blocks, p=0.6)
        if chi_f(g).value != omega:
            bad += 1
    _report(
        "6 (clique-partition chi_f = omega)",
        bad == 0,
        f"50 generated instances, {bad} failures",
    )


def test_criterion_7_sampler_suite():
    start = time.monotonic()
    tiny_ok = True
    for g in (instance_a(), instance_b(), instance_c()):
        cs = clique_structure(g)
        ex = exact_marginals(g)
        for v in range(g.n):
            if v in cs.v_omega:
                tiny_ok &= ex.pr_s_omega[v] == F(1, cs.omega)
            else:
                d = cs.d_omega[v]
                tiny_ok &= ex.block_nb_empty[v] >= quarter_tail_sum(d, cs.omega)
                tiny_ok &= ex.pr_s[v] >= p_value(g.max_degree(), d)
    g = medium_instance()
    rep = estimate(g, trials=10**5, seed=20260808)
    rep_again = estimate(g, trials=10**3, seed=20260808)
    rep_same = estimate(g, trials=10**3, seed=20260808)
    deterministic = rep_again == rep_same
    elapsed = time.monotonic() - start
    ok = tiny_ok and rep.ok and deterministic and elapsed < 120
    _report(
        "7 (sampler: exact + Monte Carlo)",
        ok,
        f"3 tiny instances exact, medium n={g.n} with {len(rep.checks)} checks at 1e5 trials, "
        f"deterministic={deterministic}, {elapsed:.1f}s < 120s",
    )


def test_criterion_8_pipeline_suite():
    start = time.monotonic()
    ytilde6 = main_bound(6).ytilde
    condition_ok = True
    for g in (instance_a(), instance_b()):
        report = verify_theorem_initial(g, ytilde6)
        condition_ok &= all(c.ok for c in report.conditions)
        condition_ok &= report.rho_residual <= report.rho_target
    composed_ok = True
    for g in (instance_a(), instance_b()):
        report = end_to_end(g)
        composed = report.composed
        composed_ok &= composed is not None
        composed_ok &= composed.combined.total <= report.bound
        composed_ok &= verify_certificate(g, composed.combined, [ONE] * g.n).ok
    elapsed = time.monotonic() - start
    ok = condition_ok and composed_ok and elapsed < 300
    _report(
        "8 (pipeline exact runs)",
        ok,
        f"weight conditions + residual bound exact on 2 instances, composed certificates "
        f"verified, {elapsed:.1f}s < 300s",
    )


def test_criterion_9_structure_suite():
    rng = random.Random(9)
    graphs = [random_graph(rng.randint(4, 10), rng.uniform(0.2, 0.9), rng) for _ in range(300)]
    graphs += [builder() for builder in NAMED_GRAPHS.values()]
    disagreements = 0
    for g in graphs:
        if g.n > 10:
            continue  # brute-force oracles cover n <= 10; detectors run below
        cs = clique_structure(g)
        if (find_bump(g, cs) is not None) != bool(brute_bumps(g)):
            disagreements += 1
        delta = g.max_degree()
        for pattern in NEAR_CLIQUE_PATTERNS:
            found = find_near_clique(g, delta, pattern)
            hits = brute_near_cliques(g, delta, pattern)
            if (found is not None) != bool(hits) or (found is not None and found != min(hits)):
                disagreements += 1
    for g in graphs:
        if g.n > 10:
            cs = clique_structure(g)
            find_bump(g, cs)
            for pattern in NEAR_CLIQUE_PATTERNS:
                find_near_clique(g, g.max_degree(), pattern)
    exceptional_fail = (
        not pipeline_eligibility(strong_product(cycle_graph(5), complete_graph(2))).passed
        and not pipeline_eligibility(NAMED_GRAPHS["c8sq"]()).passed
    )
    blocks_pass = all(
        pipeline_eligibility(g).passed for g in (instance_a(), instance_b(), instance_c())
    )
    ok = disagreements == 0 and exceptional_fail and blocks_pass
    _report(
        "9 (structure detectors vs oracles)",
        ok,
        f"{len(graphs)} graphs, {disagreements} oracle disagreements; exceptional graphs "
        f"rejected and block instances accepted",
    )
