"""Each checker must reject a deliberately corrupted output.

`run()` takes a genuine kdfree output, confirms the checker accepts it, then
corrupts it one way and confirms the checker rejects it for that reason.  It
returns the failures, so an empty list means every checker has teeth.  It runs
once in every benchmark run, after the first round has been timed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import kdfree.graphs as graphs
import kdfree.intervals as intervals
import kdfree.lp as lp
import kdfree.sampling as sampling

import instances as inst
import oracles
from oracles import Adjacency


def _expect(name, genuine, corrupted, reason) -> list[str]:
    if genuine:
        return [f"{name}: genuine output rejected: {genuine[0]}"]
    if not any(reason in p for p in corrupted):
        return [f"{name}: corrupted output not rejected for '{reason}' ({corrupted[:1]})"]
    return []


def adjacency(instance) -> Adjacency:
    return Adjacency(*instance.reference())


def run() -> list[str]:
    failures = []

    instance = inst.named("c11sq")
    adj = adjacency(instance)
    result = lp.chi_f(instance.graph)
    ones = [Fraction(1)] * adj.n
    proof = oracles.LpOracle(adj)
    genuine = proof.check(ones, result.value, result.primal.columns, result.dual)
    dropped = proof.check(ones, result.value, result.primal.columns[1:], result.dual)
    failures += _expect("LP, dropped column", genuine, dropped, "sum to")
    # all dual mass on vertex 0 keeps y.w = value but loads its stable sets past 1
    lopsided = [result.value] + [Fraction(0)] * (adj.n - 1)
    overloaded = proof.check(ones, result.value, result.primal.columns, lopsided)
    failures += _expect("LP, dual with y(S) > 1", genuine, overloaded, "dual puts")

    instance = inst.tiny_c()
    adj = adjacency(instance)
    blocks = adj.maximum_cliques()
    _, mask = sampling.StableSetSampler(instance.graph).sample(Random(0))
    draw = [v for v in range(adj.n) if mask >> v & 1]
    outside = [v for v in draw if not any(v in b for b in blocks)]
    short = [v for v in draw if v != (outside or draw)[0]]
    failures += _expect(
        "sampler, non-maximal draw",
        oracles.check_draw(adj, blocks, draw),
        oracles.check_draw(adj, blocks, short),
        "not maximal",
    )

    instance = inst.cycle_power(11, 2)
    adj = adjacency(instance)
    kc = intervals.to_intervals(lp.chi_f(instance.graph).primal)
    target = sorted(graphs.clique_structure(instance.graph).max_cliques[0])
    demand = [kc.coverage(v) * Fraction(12, 13) for v in range(adj.n)]
    out = intervals.hall_extend(instance.graph, kc, target, demand)
    before = [(s, iv.intervals) for s, iv in kc.assignment]
    after = [(s, iv.intervals) for s, iv in out.assignment]
    (s0, iv0), (_, iv1) = after[0], after[1]
    overlapping = [(s0, iv0 + iv1[:1])] + after[1:]
    failures += _expect(
        "Hall, overlapping intervals",
        oracles.check_extension(adj, kc.k, before, after, out.k, target, demand),
        oracles.check_extension(adj, kc.k, before, overlapping, out.k, target, demand),
        "overlap",
    )
    return failures

