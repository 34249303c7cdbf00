"""Initial-colouring iteration, weight conditions, end-to-end bound."""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    TrialLoopSampler,
    instance_a,
    instance_b,
    instance_c,
    medium_instance,
    random_graph,
    trial_rng,
)
from kdfree.bounds import main_bound, mu_values
from kdfree import pipeline, structure
from kdfree.errors import BoundViolation, EligibilityError
from kdfree.graphs import (
    c5xk3_minus,
    clique_structure,
    complete_graph,
    cycle_graph,
    cycle_power,
    reed_weight,
    strong_product,
)
from kdfree.intervals import certificate_to_json, verify_certificate
from kdfree.pipeline import (
    ConditionCheck,
    check_weight_conditions,
    end_to_end,
    initial_colouring,
    verify_theorem_initial,
)
from kdfree.sampling import estimate

F = Fraction
ONE = F(1)
YTILDE6 = main_bound(6).ytilde


def test_zero_budget_is_empty():
    trace, weighting = initial_colouring(instance_a(), F(0))
    assert trace.iterations == () and weighting.columns == ()
    assert all(w == 0 for w in trace.final_w)


def test_small_budget_conditions_hold_exactly():
    report = verify_theorem_initial(instance_a(), F(1, 10))
    assert report.ok
    assert all(c.ok for c in report.conditions)


def test_block_weights_and_budget_split():
    g = instance_b()
    cs = clique_structure(g)
    trace, weighting = initial_colouring(g, YTILDE6, cs=cs)
    assert sum((it.y_step for it in trace.iterations), F(0)) == YTILDE6
    for v in cs.v_omega:
        assert trace.final_w[v] == YTILDE6 / 5
    lefts = [it.leftover_after for it in trace.iterations]
    assert all(a > b for a, b in zip(lefts, lefts[1:]))
    assert lefts[-1] == 0
    assert verify_certificate(g, weighting, trace.final_w).ok


def test_trace_keeps_blocks_active():
    g = instance_c()
    cs = clique_structure(g)
    trace, _ = initial_colouring(g, F(3), cs=cs)
    for it in trace.iterations:
        assert cs.v_omega <= set(it.active)
        assert all(v not in cs.v_omega for v in it.removed)
        for v in cs.v_omega:
            assert it.prob[v] == F(1, 5)


def test_large_budget_fills_outside_vertices():
    # y = 3 exhausts the apex vertex, forcing a removal and a second step
    g = instance_a()
    trace, weighting = initial_colouring(g, F(3))
    assert len(trace.iterations) >= 2
    removed = [v for it in trace.iterations for v in it.removed]
    assert removed and all(trace.final_w[v] == 1 for v in removed)
    assert verify_certificate(g, weighting, trace.final_w).ok
    report = verify_theorem_initial(g, F(3))
    assert all(c.ok for c in report.conditions)


def test_capacity_never_exhausts_on_blocks_at_ytilde():
    g = instance_a()
    cs = clique_structure(g)
    trace, _ = initial_colouring(g, YTILDE6, cs=cs)
    for v in cs.v_omega:
        assert trace.final_w[v] < 1


@pytest.mark.parametrize("builder", [instance_a, instance_b])
def test_theorem_initial_at_ytilde(builder):
    g = builder()
    report = verify_theorem_initial(g, YTILDE6)
    assert report.ok
    _, mu, _ = mu_values(6)
    assert report.rho_target == 6 - (1 + mu) * YTILDE6
    assert report.rho_residual <= report.rho_target
    assert all(r <= report.rho_target for r in report.rho_per_vertex)


def test_theorem_initial_zero_budget_reduces_to_unit_reed():
    g = instance_c()
    report = verify_theorem_initial(g, F(0))
    assert report.rho_target == 6
    _, rho = reed_weight(g, clique_structure(g), [ONE] * g.n)
    assert report.rho_residual == rho <= 6


def test_montecarlo_mode_runs_and_is_exact_for_achieved_weights():
    g = instance_a()
    trace, weighting = initial_colouring(g, F(1, 2), mode="montecarlo", trials=400, seed=3)
    assert not trace.exact
    assert verify_certificate(g, weighting, trace.final_w).ok
    again, _ = initial_colouring(g, F(1, 2), mode="montecarlo", trials=400, seed=3)
    assert again == trace


def test_montecarlo_run_stops_when_a_block_vertex_fills():
    # at y = omega the exact run pays every block vertex exactly 1; estimated
    # block marginals in a block sum to 1, so one above 1/omega fills its
    # vertex before y is spent, and the run stops there with the rest unspent;
    # the conditions and the residual bound are checked at the weight spent
    g = medium_instance()
    cs = clique_structure(g)
    v_omega = cs.v_omega
    _, mu, _ = mu_values(6)
    for seed in range(3):
        report = verify_theorem_initial(g, F(5), cs, mode="montecarlo", trials=300, seed=seed)
        trace, weighting = report.trace, report.weighting
        last = trace.iterations[-1]
        full = [v for v in last.removed if v in v_omega]
        assert full and all(trace.final_w[v] == 1 for v in full)
        assert last.leftover_after > 0 and trace.y_total == 5 - last.leftover_after
        assert weighting.total == trace.y_total == sum(w for _, w in weighting.columns)
        assert verify_certificate(g, weighting, trace.final_w).ok
        assert all(not (set(it.removed) & v_omega) for it in trace.iterations[:-1])
        assert report.y == trace.y_total < 5
        assert report.rho_target == 6 - (1 + mu) * trace.y_total
        assert report.conditions == tuple(
            check_weight_conditions(g, cs, trace.y_total, trace.final_w)
        )


@pytest.mark.parametrize("trials", [0, -3])
def test_montecarlo_mode_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        initial_colouring(instance_a(), F(1, 2), mode="montecarlo", trials=trials)


def test_montecarlo_steps_match_per_trial_loop():
    # each step's probabilities and columns, tallied vertex by vertex after
    # every draw of the per-trial loop on that step's own streams; the cases
    # cover several steps and zero estimates
    cases = (
        (instance_b(), F(4), 2, 300),
        (medium_instance(), F(4), 5, 300),
        (instance_c(), F(1, 2), 0, 3),
    )
    steps = flagged = 0
    for g, y, seed, trials in cases:
        cs = clique_structure(g)
        trace, weighting = initial_colouring(g, y, mode="montecarlo", trials=trials, seed=seed)
        oracle = TrialLoopSampler(g)
        columns: dict[frozenset[int], Fraction] = {}
        for i, step in enumerate(trace.iterations):
            active_outside = [v for v in step.active if v not in cs.v_omega]
            counts = {v: 0 for v in step.active}
            for t in range(trials):
                _, s = oracle.sample(trial_rng(seed, i, t), active_outside)
                key = frozenset(v for v in range(g.n) if (s >> v) & 1)
                columns[key] = columns.get(key, F(0)) + step.y_step / trials
                for v in step.active:
                    counts[v] += (s >> v) & 1
            assert step.prob == {v: F(c, trials) for v, c in counts.items()}
            assert step.zero_prob_flagged == tuple(v for v in step.active if counts[v] == 0)
            flagged += len(step.zero_prob_flagged)
        assert dict(weighting.columns) == columns
        steps = max(steps, len(trace.iterations))
    assert steps > 1 and flagged > 0


def test_montecarlo_zero_estimates_are_flagged_not_fatal():
    # with 3 trials some vertices never appear in a draw; they are excluded
    # from the step-size minimum and flagged in the trace
    g = instance_c()
    trace, weighting = initial_colouring(g, F(1, 2), mode="montecarlo", trials=3, seed=0)
    flagged = [v for it in trace.iterations for v in it.zero_prob_flagged]
    assert flagged
    assert verify_certificate(g, weighting, trace.final_w).ok


def test_initial_colouring_validates_input():
    with pytest.raises(EligibilityError):
        initial_colouring(strong_product(cycle_graph(5), complete_graph(2)), F(1))
    with pytest.raises(ValueError):
        initial_colouring(instance_a(), F(6))
    with pytest.raises(ValueError):
        initial_colouring(instance_a(), F(1), mode="guess")


@pytest.mark.parametrize("g", [cycle_power(8, 2), complete_graph(5)])
def test_theorem_initial_checks_eligibility_before_constants(g):
    # Delta 4 has no mu(Delta); the eligibility check runs first and names why
    with pytest.raises(EligibilityError):
        verify_theorem_initial(g, F(1, 10))


def test_end_to_end_block_instance_composes():
    report = end_to_end(instance_a())
    assert report.ok and report.chi_f == 5
    assert report.epsilon == main_bound(6).epsilon
    composed = report.composed
    assert composed is not None
    assert composed.combined.total <= report.bound
    assert verify_certificate(instance_a(), composed.combined, [ONE] * 11).ok
    assert composed.finish_value <= composed.rho_residual


@pytest.mark.parametrize(
    "builder, digest",
    [
        (instance_a, "30c0390c2bc8e8eba6612b46c1e3a6ccddb24c4d5ed65eac41fdd9c510227d7c"),
        (medium_instance, "4b4faac520e4bb09d4da5a3d4ac4eb6d0d659fa65b107075d9a3f8821261bb00"),
    ],
    ids=["instance_a", "medium_instance"],
)
def test_end_to_end_combined_certificate_bytes(builder, digest):
    # sha256 of the combined certificate's JSON: which path end_to_end takes
    # to the initial phase must not change its bytes
    g = builder()
    text = certificate_to_json(g.n, [ONE] * g.n, end_to_end(g).composed.combined)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_end_to_end_raises_on_a_failed_condition(monkeypatch):
    def one_failure(*args, **kwargs):
        checks = check_weight_conditions(*args, **kwargs)
        return [ConditionCheck(c.name, c.name != "clique_floor", c.detail) for c in checks]

    monkeypatch.setattr(pipeline, "check_weight_conditions", one_failure)
    with pytest.raises(BoundViolation, match="initial colouring fails: clique_floor$"):
        end_to_end(instance_a())


def test_end_to_end_minus_4v():
    g = c5xk3_minus(4)
    report = end_to_end(g)
    assert report.ok and report.chi_f == F(11, 2)
    assert report.composed is None  # intersecting maximum cliques
    assert report.chi_f <= 6 - report.epsilon


def test_end_to_end_minus_2v():
    g = c5xk3_minus(2)
    report = end_to_end(g)
    assert report.ok and report.delta == 7 and report.chi_f == F(13, 2)


def test_witness_search_runs_once_per_sampler_and_gate(monkeypatch):
    # pipeline_eligibility is the one search for the block witnesses;
    # end_to_end runs it for its composition gate and once in the sampler,
    # estimate only in the sampler.  Every kdfree module's binding is counted.
    calls = []
    original = structure.pipeline_eligibility

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kdfree"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert end_to_end(medium_instance()).composed is not None
    assert len(calls) == 2
    calls.clear()
    assert estimate(medium_instance(), 100, 1).checks
    assert len(calls) == 1


def test_end_to_end_rejects_low_degree():
    with pytest.raises(EligibilityError):
        end_to_end(cycle_graph(5))
    with pytest.raises(EligibilityError):
        end_to_end(complete_graph(8))  # omega = Delta + 1 frame


def clique_conditions_by_subsets(g, cs, y, w):
    """clique_floor and large_clique_floor over every subclique of size
    1..omega-1 of every maximal clique."""
    delta = g.max_degree()
    mu_k, mu, _ = mu_values(delta)
    cliques = {
        frozenset(sub)
        for clique in cs.maximal_cliques
        for size in range(1, min(len(clique), cs.omega - 1) + 1)
        for sub in combinations(sorted(clique), size)
    }
    floor = min(mu * y, ONE)
    small = all(sum((w[v] for v in c), F(0)) >= len(c) * floor for c in cliques)
    large = all(
        sum((w[v] for v in c), F(0)) >= len(c) * min(mu_k[delta + 1 - len(c)] * y, ONE)
        for c in cliques
        if len(c) >= 4
    )
    return small, large


def test_clique_conditions_match_subset_enumeration():
    rng = random.Random(61)
    graphs = [instance_a(), instance_b(), instance_c(), medium_instance()]
    graphs += [random_graph(rng.randint(8, 11), rng.uniform(0.55, 0.8), rng) for _ in range(6)]
    seen = set()
    for g in graphs:
        cs = clique_structure(g)
        if g.max_degree() < 5:
            continue
        _, mu, _ = mu_values(g.max_degree())
        for _ in range(25):
            y = F(rng.randint(1, 8), rng.randint(1, 3))
            low = rng.choice((0, 3, 4))
            w = [mu * y * F(rng.randint(low, 12), 4) for _ in range(g.n)]
            checks = {c.name: c.ok for c in check_weight_conditions(g, cs, y, w)}
            got = (checks["clique_floor"], checks["large_clique_floor"])
            assert got == clique_conditions_by_subsets(g, cs, y, w)
            seen.add(got)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
