"""Initial-colouring iteration and the end-to-end bound verification.

The initial phase spends total weight y on random stable sets drawn from the
two-stage distribution, re-instantiated on the shrinking subgraphs H_i: each
step takes the largest y_i that no remaining capacity can overrun, pays
prob_i(v) * y_i to every vertex, removes the vertices that become full, and
stops when the budget is spent.  Each step's distribution over S comes from
exact enumeration or from a seeded Monte Carlo tally, both integer weights
over S masks with their total, so the mode picks only the source; the step
probabilities are its Pr(v in S) from StableSetSampler.marginals.  A step
that fills a block vertex (estimated marginals can) ends the run, leaving
the rest of y unspent.  Every step's distribution is itself a fractional
colouring, and the accumulated weighting is an exact certificate for the
resulting vertex weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import BoundReport, main_bound, mu_values, p_value
from .errors import BoundViolation, EligibilityError, LpError
from .graphs import CliqueStructure, Graph, bits, clique_structure, reed_weight
from .intervals import StableSetWeighting, verify_certificate
from .lp import LpResult, chi_f, chi_f_weighted
from .sampling import OUTSIDE_ENUMERATION_LIMIT, StableSetSampler
from .structure import pipeline_eligibility

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PipelineIteration:
    active: tuple[int, ...]
    prob: dict[int, Fraction]
    y_step: Fraction
    w_step: dict[int, Fraction]
    leftover_after: Fraction
    removed: tuple[int, ...]
    zero_prob_flagged: tuple[int, ...]


@dataclass(frozen=True)
class PipelineTrace:
    # the field order is the key order of the --emit-trace file
    y_total: Fraction
    exact: bool
    final_w: tuple[Fraction, ...]
    iterations: tuple[PipelineIteration, ...]


def initial_colouring(
    g: Graph,
    y: Fraction,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
    cs: CliqueStructure | None = None,
) -> tuple[PipelineTrace, StableSetWeighting]:
    """Spend weight y along the two-stage distribution; returns the trace and
    the accumulated fractional y-over-w colouring as an exact certificate."""
    if mode not in ("exact", "montecarlo"):
        raise ValueError(f"mode must be 'exact' or 'montecarlo', got {mode!r}")
    if mode == "montecarlo" and trials < 1:
        raise ValueError("trials must be >= 1")
    y = Fraction(y)
    sampler = StableSetSampler(g, cs)
    cs, omega = sampler.cs, sampler.cs.omega
    report = sampler.eligibility
    if not report.passed:
        header = f"max degree = {report.delta}, omega = {omega}"
        raise EligibilityError("; ".join([header, *report.failures()]))
    if not 0 <= y <= omega:
        raise ValueError(f"y must lie in [0, omega]={omega}, got {y}")

    n = g.n
    capacity = [_ONE] * n
    leftover = y
    active_outside = list(sampler.outside)
    columns: dict[int, Fraction] = {}  # S mask -> weight
    iterations: list[PipelineIteration] = []

    while leftover > 0:
        if len(iterations) > n:
            raise LpError("pipeline failed to terminate within |V| iterations")
        active = sorted(cs.v_omega) + active_outside
        if mode == "exact":
            weights, total = sampler.enumerate_exact(active_outside)
        else:
            weights, total = sampler.tally(seed, (len(iterations),), trials, active_outside), trials
        pr_s = sampler.marginals(weights.items(), total, ())[0]
        prob = {v: pr_s[v] for v in sorted(active)}  # the trace file's key order
        positive = [v for v in active if prob[v] > 0]
        flagged = tuple(v for v in active if prob[v] == 0)
        if mode == "exact":
            for v in cs.v_omega:
                if prob[v] != Fraction(1, omega):
                    raise LpError(f"block vertex {v} has step probability {prob[v]} != 1/{omega}")
            if flagged:
                raise LpError("zero step probability in exact mode")
        y_prime = min(capacity[v] / prob[v] for v in positive)
        y_step = min(leftover, y_prime)
        w_step = {v: p * y_step for v, p in prob.items()}
        for v in active:
            capacity[v] -= w_step[v]
            if capacity[v] < 0:
                raise LpError(f"capacity of {v} went negative")
        leftover -= y_step
        for s, c in weights.items():
            columns[s] = columns.get(s, _ZERO) + y_step * Fraction(c, total)

        removed: tuple[int, ...] = ()
        if leftover > 0:
            removed = tuple(v for v in active if capacity[v] == 0)
            active_outside = [v for v in active_outside if capacity[v] > 0]
        iterations.append(
            PipelineIteration(
                active=tuple(active),
                prob=prob,
                y_step=y_step,
                w_step=w_step,
                leftover_after=leftover,
                removed=removed,
                zero_prob_flagged=flagged,
            )
        )
        if any(v in cs.v_omega for v in removed):
            break  # every later step would overfill it

    final_w = tuple(_ONE - capacity[v] for v in range(n))
    sets = ((frozenset(bits(s)), m) for s, m in columns.items())
    weighting = StableSetWeighting(
        tuple(sorted(sets, key=lambda c: tuple(sorted(c[0])))), total=y - leftover
    )
    trace = PipelineTrace(
        iterations=tuple(iterations),
        final_w=final_w,
        y_total=y - leftover,
        exact=(mode == "exact"),
    )
    check = verify_certificate(g, weighting, final_w)
    if not check.ok:
        raise LpError(f"initial colouring certificate failed: {check.reason}")
    return trace, weighting


# ── the five weight conditions ────────────────────────────────────────────


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    ok: bool
    detail: str = ""


def check_weight_conditions(
    g: Graph,
    cs: CliqueStructure,
    y: Fraction,
    w: Sequence[Fraction],
) -> list[ConditionCheck]:
    """The five conditions the initial weights satisfy: block vertices pay
    y/omega; outside vertices at least min(p(Delta,l)y, 1); cliques of size
    k < omega carry k*min(mu*y,1), refined via mu_{Delta+1-k} for k >= 4; and
    any non-full vertex has closed-neighbourhood weight at least y.

    A clique condition is checked on the k lightest vertices of each maximal
    clique, k <= min(|M|, omega - 1); its `violators` detail counts the
    failing (maximal clique, k) pairs.  Every check is exact.
    """
    delta = g.max_degree()
    omega = cs.omega
    mu_k, mu, _ = mu_values(delta)
    checks: list[ConditionCheck] = []

    bad = [v for v in sorted(cs.v_omega) if w[v] != y / omega]
    checks.append(ConditionCheck("block_weight", not bad, f"violators {bad[:4]}"))

    bad = [
        v
        for v in range(g.n)
        if v not in cs.v_omega
        and w[v] < min(p_value(delta, cs.d_omega[v]) * y, _ONE)
    ]
    checks.append(ConditionCheck("outside_floor", not bad, f"violators {bad[:4]}"))

    # every clique lies in a maximal one, and its k lightest vertices have
    # the least weight of any k-subclique, so these prefixes are the cases
    floor = min(mu * y, _ONE)
    floors = [
        (k, k * floor, k * min(mu_k[delta + 1 - k] * y, _ONE))
        for k in range(1, omega)
    ]
    small_bad = large_bad = 0
    for clique in cs.maximal_cliques:
        total = _ZERO
        for wv, (k, small, large) in zip(sorted(w[v] for v in clique), floors):
            total += wv
            small_bad += total < small
            large_bad += k >= 4 and total < large
    checks.append(ConditionCheck("clique_floor", not small_bad, f"violators {small_bad}"))
    checks.append(ConditionCheck("large_clique_floor", not large_bad, f"violators {large_bad}"))

    bad = [v for v in range(g.n) if w[v] < 1 and sum((w[u] for u in bits(g.masks[v])), w[v]) < y]
    checks.append(ConditionCheck("closed_nb_weight", not bad, f"violators {bad[:4]}"))
    return checks


@dataclass(frozen=True)
class InitialColouringReport:
    y: Fraction  # the weight spent, trace.y_total
    mu: Fraction
    trace: PipelineTrace
    weighting: StableSetWeighting
    conditions: tuple[ConditionCheck, ...]
    rho_residual: Fraction
    rho_target: Fraction  # Delta - (1 + mu) y
    rho_per_vertex: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions) and self.rho_residual <= self.rho_target


def verify_theorem_initial(
    g: Graph,
    y: Fraction,
    cs: CliqueStructure | None = None,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
) -> InitialColouringReport:
    """Run the initial colouring (mode, trials and seed as initial_colouring
    takes them), then check exactly, at the weight y it spent, the five
    weight conditions and the residual Reed-weight bound
    rho_{1-w}(G) <= Delta - (1+mu)y.  An exact run spends all of the given
    y; a Monte Carlo run that fills a block vertex spends less."""
    if cs is None:
        cs = clique_structure(g)
    trace, weighting = initial_colouring(g, y, mode, trials, seed, cs)
    delta = g.max_degree()
    _, mu, _ = mu_values(delta)
    y = trace.y_total
    rho_vec, rho = reed_weight(g, cs, [_ONE - wv for wv in trace.final_w])
    return InitialColouringReport(
        y=y,
        mu=mu,
        trace=trace,
        weighting=weighting,
        conditions=tuple(check_weight_conditions(g, cs, y, trace.final_w)),
        rho_residual=rho,
        rho_target=delta - (1 + mu) * y,
        rho_per_vertex=tuple(rho_vec),
    )


# ── end to end ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ComposedCertificate:
    y: Fraction
    initial: StableSetWeighting
    finish: StableSetWeighting
    combined: StableSetWeighting
    finish_value: Fraction
    rho_residual: Fraction


@dataclass(frozen=True)
class EndToEndReport:
    delta: int
    omega: int
    epsilon: Fraction
    bound: Fraction
    chi_f: Fraction
    lp: LpResult
    bounds: BoundReport
    composed: ComposedCertificate | None

    @property
    def ok(self) -> bool:
        return self.chi_f <= self.bound


def end_to_end(g: Graph) -> EndToEndReport:
    """Verify chi_f(G) <= Delta - min(1/2, ytilde*mu) on a concrete graph.

    chi_f is computed exactly; on eligible instances small enough for exact
    sampling the two-phase construction is additionally composed: a passing
    verify_theorem_initial run at ytilde plus an exact colouring of the
    residual weights, whose combined total must cover every vertex once
    within the bound.
    """
    delta = g.max_degree()
    cs = clique_structure(g)
    if delta < 6:
        raise EligibilityError(f"end_to_end needs max degree >= 6, got {delta}")
    if cs.omega > delta - 1:
        raise EligibilityError(f"end_to_end needs omega <= Delta - 1, got omega={cs.omega}")
    bounds = main_bound(delta)
    lp = chi_f(g)
    bound = bounds.bound
    if lp.value > bound:
        raise BoundViolation(f"chi_f = {lp.value} exceeds {bound} at Delta={delta}")

    composed = None
    if (
        pipeline_eligibility(g, cs).passed
        and g.n - len(cs.v_omega) <= OUTSIDE_ENUMERATION_LIMIT
    ):
        initial = verify_theorem_initial(g, bounds.ytilde, cs)
        if not initial.ok:
            failed = [c.name for c in initial.conditions if not c.ok]
            if initial.rho_residual > initial.rho_target:
                failed.append("residual Reed weight above Delta - (1+mu)y")
            raise BoundViolation(f"initial colouring fails: {', '.join(failed)}")
        finish = chi_f_weighted(g, [_ONE - wv for wv in initial.trace.final_w])
        if finish.value > initial.rho_residual:
            raise BoundViolation("chi_f^{1-w} exceeded the residual Reed weight")
        combined = StableSetWeighting(
            initial.weighting.columns + finish.primal.columns,
            total=initial.y + finish.value,
        )
        if combined.total > bound:
            raise BoundViolation(f"combined certificate total {combined.total} > {bound}")
        check = verify_certificate(g, combined, [_ONE] * g.n)
        if not check.ok:
            raise BoundViolation(f"combined certificate failed: {check.reason}")
        composed = ComposedCertificate(
            y=initial.y,
            initial=initial.weighting,
            finish=finish.primal,
            combined=combined,
            finish_value=finish.value,
            rho_residual=initial.rho_residual,
        )
    return EndToEndReport(
        delta=delta,
        omega=cs.omega,
        epsilon=bounds.epsilon,
        bound=bound,
        chi_f=lp.value,
        lp=lp,
        bounds=bounds,
        composed=composed,
    )
