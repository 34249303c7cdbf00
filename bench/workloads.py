"""The four workloads: inputs built from the seed, the timed operations, and
the independent check of every output.

`setup(seed)` builds a workload's inputs and returns its operations; it is the
part timed as `setup_s`.  An operation's `call` is timed; its `check` is not.
Oracles are built on first use and kept for the rest of the run, since the
inputs do not change between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable

import kdfree.bounds as bounds
import kdfree.graphs as graphs
import kdfree.intervals as intervals
import kdfree.lp as lp
import kdfree.pipeline as pipeline
import kdfree.sampling as sampling
import kdfree.structure as structure

import instances as inst
import oracles
from oracles import Adjacency

_ONE = Fraction(1)


@dataclass
class Op:
    label: str
    part: str  # which part figure this operation's time counts towards
    call: Callable[[], object]
    check: Callable[[object], list]
    fault: bool = False  # the known fault: expected to raise RecursionError
    trials: int = 0  # Monte Carlo trials, for the sampler's trials/s
    last_s: float = 0.0  # the call's last wall time, to size the speed gauge


@dataclass
class Workload:
    cache: dict = field(default_factory=dict)
    passes = 1  # passes over the regular operations per round

    def memo(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def adjacency(self, instance: inst.Instance) -> tuple[Adjacency, list]:
        """The benchmark's own graph, plus any mismatch with kdfree's."""

        def build():
            n, edges = instance.reference()
            adj = Adjacency(n, edges)
            problems = [] if n == instance.graph.n else ["vertex count differs"]
            return adj, problems + oracles.same_graph(adj, instance.graph.edges())

        return self.memo(("adj", instance.name), build)

    def lp_check(self, instance, weights, result, expected=None) -> list:
        adj, problems = self.adjacency(instance)
        proof = self.memo(("lp", instance.name), lambda: oracles.LpOracle(adj))
        problems = problems + proof.check(weights, result.value, result.primal.columns, result.dual)
        if expected is not None and result.value != expected:
            problems.append(f"chi_f = {result.value}, expected {expected}")
        return problems


# ── chif ─────────────────────────────────────────────────────────────────

# Published values for kdfree's eight named graphs.
NAMED_CHI_F = {
    "c8sq": Fraction(4),
    "c11sq": Fraction(11, 3),
    "p72": Fraction(14, 5),
    "c5xk2": Fraction(5),
    "c7xk2": Fraction(14, 3),
    "c5xk3": Fraction(15, 2),
    "c5xk3-2v": Fraction(13, 2),
    "c5xk3-4v": Fraction(11, 2),
}
WEIGHTED_BATCH = 40


class Chif(Workload):
    def setup(self, seed):
        unit = [(inst.named(k), v) for k, v in NAMED_CHI_F.items()]
        for n in (19, 21, 23):
            unit.append((inst.cycle_power(n, 3), oracles.cycle_power_chi_f(n, 3)))
        unit.append((inst.cycle_strong_complete(9, 2), oracles.cycle_strong_complete_chi_f(9, 2)))
        unit.append((inst.petersen(9, 2), None))
        ops = []
        for instance, expected in unit:
            ones = [_ONE] * instance.graph.n
            ops.append(Op(
                f"chi_f {instance.name}", "chif_wall_s",
                lambda g=instance.graph: lp.chi_f(g),
                lambda r, i=instance, w=ones, e=expected: self.lp_check(i, w, r, e),
            ))
        for instance, weights in inst.weighted_batch(seed, WEIGHTED_BATCH):
            ops.append(Op(
                f"chi_f_weighted {instance.name}", "chif_weighted_wall_s",
                lambda g=instance.graph, w=weights: lp.chi_f_weighted(g, w),
                lambda r, i=instance, w=weights: self.lp_check(i, w, r),
            ))
        return ops


# ── sample ───────────────────────────────────────────────────────────────

# instance, trials per estimate, extra untimed draws checked one by one
SAMPLE_PLAN = [
    (inst.medium, 60_000, "sample_d6", 40),
    (inst.delta8, 40, "sample_d8", 8),
    (inst.delta10, 20, "sample_d10", 4),
]


class Sample(Workload):
    def setup(self, seed):
        rng = Random(f"sample:{seed}")
        ops = []
        for build, trials, part, draws in SAMPLE_PLAN:
            instance = build()
            est_seed = rng.randrange(2**31)
            ops.append(Op(
                f"estimate {instance.name} x{trials}", part,
                lambda g=instance.graph, t=trials, s=est_seed: sampling.estimate(g, t, s),
                lambda r, i=instance, t=trials, d=draws, s=est_seed: self.check(i, t, r, d, s),
                trials=trials,
            ))
        return ops

    def blocks(self, instance):
        adj, _ = self.adjacency(instance)
        return self.memo(("blocks", instance.name), adj.maximum_cliques)

    def check(self, instance, trials, report, draws, seed) -> list:
        adj, problems = self.adjacency(instance)
        blocks = self.blocks(instance)
        if report.trials != trials:
            problems = problems + [f"report counts {report.trials} trials, asked {trials}"]
        problems = problems + oracles.check_frequencies(adj, blocks, trials, report.freq_s)
        return problems + self.memo(("draws", instance.name), lambda: self.draws(instance, draws, seed))

    def draws(self, instance, count, seed) -> list:
        """Extra untimed draws from a fresh sampler, each checked whole."""
        adj, _ = self.adjacency(instance)
        blocks = self.blocks(instance)
        sampler = sampling.StableSetSampler(instance.graph)
        problems = []
        for t in range(count):
            _, mask = sampler.sample(Random(f"draw:{seed}:{t}"))
            problems += oracles.check_draw(adj, blocks, [v for v in range(adj.n) if mask >> v & 1])
        return problems


# ── pipeline ─────────────────────────────────────────────────────────────

TABLE_DELTAS = (6, 7, 8, 9, 10, 100, 1000)
OWN_MU_LIMIT = 100  # the formula check of mu runs up to this Delta
E2E_INSTANCES = (inst.tiny_a, inst.tiny_b, inst.tiny_c, inst.medium, inst.seven_outside)
STRUCTURE_EXTRA = ("c8sq", "c5xk2", "c11sq", "p72")  # ineligible named graphs


class Pipeline(Workload):
    # Big-integer bounds and order enumeration follow the reference speed
    # (speed.py) less closely than the LP does, so a round takes two passes.
    passes = 2

    def setup(self, seed):
        ops = []
        for delta in TABLE_DELTAS:
            ops.append(Op(
                f"main_bound {delta}", "bounds_wall_s",
                lambda d=delta: bounds.main_bound(d),
                lambda r, d=delta: self.check_constants(d, r),
            ))
        e2e = [build() for build in E2E_INSTANCES]
        for instance in e2e + [inst.named(k) for k in STRUCTURE_EXTRA]:
            g = instance.graph
            cs = graphs.clique_structure(g)
            ops.append(Op(
                f"pipeline_eligibility {instance.name}", "structure_wall_s",
                lambda g=g, cs=cs: structure.pipeline_eligibility(g, cs),
                lambda r, i=instance: self.check_eligibility(i, r),
            ))
            ops.append(Op(
                f"find_bump {instance.name}", "structure_wall_s",
                lambda g=g, cs=cs: structure.find_bump(g, cs),
                lambda r, i=instance: self.check_bump(i, r),
            ))
            for pattern in structure.NEAR_CLIQUE_PATTERNS:
                ops.append(Op(
                    f"find_near_clique {instance.name} {pattern}", "structure_wall_s",
                    lambda g=g, p=pattern: structure.find_near_clique(g, g.max_degree(), p),
                    lambda r, i=instance, p=pattern: self.check_near_clique(i, p, r),
                ))
        for instance in e2e:
            ops.append(Op(
                f"end_to_end {instance.name}", "e2e_wall_s",
                lambda g=instance.graph: pipeline.end_to_end(g),
                lambda r, i=instance: self.check_e2e(i, r),
            ))
        return ops

    def check_constants(self, delta, rep) -> list:
        own = None
        if delta <= OWN_MU_LIMIT:
            own = self.memo(("mu", delta), lambda: oracles.own_mu(delta))
        return oracles.check_constants(
            delta, rep.mu, rep.argmin_d, rep.ytilde, rep.epsilon, rep.bound, own
        )

    def check_eligibility(self, instance, rep) -> list:
        adj, problems = self.adjacency(instance)
        want = self.memo(("elig", instance.name), lambda: oracles.eligibility_oracle(adj))
        got_disjoint = None
        if rep.disjoint_witness is not None:
            got_disjoint = tuple(tuple(sorted(c)) for c in rep.disjoint_witness)
        got_external = None
        if rep.external_witness is not None:
            got_external = (rep.external_witness[0], tuple(sorted(rep.external_witness[1])))
        got = (rep.delta, rep.omega, got_disjoint, got_external, rep.passed)
        expect = (want["delta"], want["omega"], want["disjoint"], want["external"], want["passed"])
        return problems + ([] if got == expect else [f"eligibility {got} != brute force {expect}"])

    def check_bump(self, instance, bump) -> list:
        adj, problems = self.adjacency(instance)
        want = self.memo(("bump", instance.name), lambda: oracles.bump_oracle(adj))
        got = None
        if bump is not None:
            got = (tuple(sorted(bump.clique)), bump.y1, bump.y2, bump.y3, bump.v1, bump.v2)
        return problems + ([] if got == want else [f"find_bump {got} != brute force {want}"])

    def check_near_clique(self, instance, pattern, found) -> list:
        adj, problems = self.adjacency(instance)
        size = adj.max_degree()
        want = self.memo(("near", instance.name), lambda: oracles.near_clique_oracle(adj, size))
        if found != want[pattern]:
            problems = problems + [f"find_near_clique {pattern}: {found} != brute force {want[pattern]}"]
        return problems

    def check_e2e(self, instance, report) -> list:
        adj, _ = self.adjacency(instance)
        delta = adj.max_degree()
        problems = self.lp_check(instance, [_ONE] * adj.n, report.lp)
        problems += self.check_constants(delta, report.bounds)
        if report.delta != delta or report.chi_f != report.lp.value:
            problems.append("report disagrees with its own LP or with Delta")
        if report.bound != delta - report.bounds.epsilon or not report.chi_f <= report.bound:
            problems.append(f"chi_f {report.chi_f} is not within Delta - epsilon = {report.bound}")
        composed = report.composed
        if composed is None:
            return problems + ["no composed certificate"]
        combined = composed.combined
        if combined.total != composed.y + composed.finish_value or combined.total > report.bound:
            problems.append(f"composed total {combined.total} exceeds Delta - epsilon = {report.bound}")
        return problems + oracles.check_cover(adj, combined.columns, combined.total, _ONE)


# ── hall ─────────────────────────────────────────────────────────────────

# (instance, denominator, target: fixed index into the maximum cliques, or
# None to draw it from the seed).  Targets of the long extensions are fixed:
# their run time moves by up to 2.3x from one clique to another.
HALL_PLAN = [
    (lambda: inst.path_strong_complete(3, 7), 3, 0),  # |X| = 14: the 2^|X| subset loop
    (lambda: inst.cycle_power(11, 2), 13, None),
    (lambda: inst.cycle_power(11, 2), 29, 0),
    (lambda: inst.cycle_strong_complete(5, 4), 13, None),
    (lambda: inst.cycle_strong_complete(5, 4), 29, 0),
    (lambda: inst.cycle_strong_complete(5, 4), 61, 0),
]
# Feasible by construction, yet the recursive augmenting-path search in
# hall_extend exceeds the interpreter's recursion limit on it every time.
HALL_FAULT = (lambda: inst.cycle_strong_complete(5, 5), 61, 0)


class Hall(Workload):
    passes = 2  # the known fault takes ~16 s; two passes per attempt of it

    def setup(self, seed):
        rng = Random(f"hall:{seed}")
        colourings = {}
        ops = []
        for plan, fault in [(p, False) for p in HALL_PLAN] + [(HALL_FAULT, True)]:
            build, den, pick = plan
            instance = build()
            g = instance.graph
            if instance.name not in colourings:
                kc = intervals.to_intervals(lp.chi_f(g).primal)
                cliques = graphs.clique_structure(g).max_cliques
                colourings[instance.name] = (kc, cliques)
            kc, cliques = colourings[instance.name]
            target = sorted(cliques[rng.randrange(len(cliques)) if pick is None else pick])
            demand = [kc.coverage(v) * Fraction(den - 1, den) for v in range(g.n)]
            ops.append(Op(
                f"hall_extend {instance.name} |X|={len(target)} den {den}",
                "hall_fault_s" if fault else "hall_wall_s",
                lambda g=g, kc=kc, x=target, w=demand: intervals.hall_extend(g, kc, x, w),
                lambda r, i=instance, kc=kc, x=target, w=demand: self.check(i, kc, x, w, r),
                fault=fault,
            ))
        return ops

    def check(self, instance, kc, target, demand, result) -> list:
        adj, problems = self.adjacency(instance)
        before = [(s, iv.intervals) for s, iv in kc.assignment]
        after = [(s, iv.intervals) for s, iv in result.assignment]
        return problems + oracles.check_extension(adj, kc.k, before, after, result.k, target, demand)


WORKLOADS = {"chif": Chif, "sample": Sample, "pipeline": Pipeline, "hall": Hall}

# Part figures reported by the traced run (0 where a workload has no such part).
PART_TIMES = ["chif_wall_s", "chif_weighted_wall_s", "e2e_wall_s", "bounds_wall_s",
              "structure_wall_s", "hall_wall_s", "hall_fault_s"]
PART_RATES = ["sample_d6", "sample_d8", "sample_d10"]
