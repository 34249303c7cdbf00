"""Two-stage random stable sets over the block structure.

Stage one draws a uniform 4-subset of every block as one joint index, whose
mixed-radix digits rank them in combinations order (_subset unranks a digit,
so none is listed), properly 4-colours the induced 4-subset graph (disjoint
K4s, at most 2 edges per vertex between them) with graphs.rainbow_colouring,
and draws one of the four colour classes.  Each class meets every chosen
4-subset once, and a uniform class holds every vertex with probability exactly
1/4, the marginal behind p(Delta, d).  The colouring depends only on the
choice's shape (the relabelled 4-subset graph and the chosen 4-subsets in its
labels), so a sampler finds it once per shape and relabels it per joint
choice; both memos hold at most POOL_CACHE_LIMIT entries.  Stage two inserts
the outside vertices greedily in a uniform order.  The first still-insertable
vertex of such an order is uniform over the insertable set, so stage two draws
one of that set and removes its closed neighbourhood, until the set is empty.
Exact enumeration (tiny instances) runs the same recursion over every joint
choice and pool column, memoised by insertable set; it validates the Monte
Carlo estimator.  Both give integer weights over S masks with their total
(trial counts out of the trials for tally), which StableSetSampler.marginals
reduces for estimate and the pipeline.

StableSetSampler.tally gives every trial its own counter-based stream, the
bits of blake2b digests of "seed:key:...:trial" salted by block number, so a
trial's draws depend only on its key.  So tally can split its trials into
contiguous ranges over forked processes and merge the counts in range order,
with the result of one serial loop, insertion order included.
StableSetSampler.sample is trial 0 of tally for a seed drawn by one
randrange(2**64) of a caller's generator.
"""

from __future__ import annotations

import marshal
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from _blake2 import blake2b  # hashlib would load OpenSSL for this one hash

from .bounds import mu_values, p_value
from .errors import EligibilityError, HypothesisViolated, SizeLimit
from .graphs import CliqueStructure, Graph, bits, clique_structure, rainbow_colouring
from .rationals import format_rational
from .structure import pipeline_eligibility

if TYPE_CHECKING:
    from random import Random

_ZERO = Fraction(0)

OUTSIDE_ENUMERATION_LIMIT = 8
POOL_CACHE_LIMIT = 4096  # entries kept per sampler in each of its two memos
TRIALS_PER_PROCESS = 4096  # fewest trials a tally hands to one process
ENUMERATION_WORK_LIMIT = 10**7

HOEFFDING_DELTA = 1e-3


def _block(key: bytes, b: int) -> int:
    """Block b of the key's stream as a little-endian int: the blake2b digest
    of the key with b as its 16-byte little-endian salt.  Block 0's all-zero
    salt is blake2b's default, so it is the plain digest."""
    digest = blake2b(key, salt=b.to_bytes(16, "little")) if b else blake2b(key)
    return int.from_bytes(digest.digest(), "little")


def _plan(n: int) -> tuple[int, int, int]:
    """(n, bits, mask) of randrange(n): draw `bits` bits, keep them if below n."""
    k = (n - 1).bit_length()
    return n, k, (1 << k) - 1


class StableSetSampler:
    """Sampler bound to one graph and its block structure.

    Requires the structural hypotheses the distribution rests on: pairwise
    disjoint maximum cliques of size >= 4, and no outside vertex with two
    neighbours in one block.  self.eligibility is the graph's
    pipeline_eligibility report, which callers needing max degree >= 6 and
    omega = Delta - 1 as well read instead of searching again.
    """

    def __init__(self, g: Graph, cs: CliqueStructure | None = None):
        self.g = g
        self.cs = cs if cs is not None else clique_structure(g)
        if self.cs.omega < 4:
            raise EligibilityError(f"blocks must have size >= 4, got omega={self.cs.omega}")
        self.eligibility = pipeline_eligibility(g, self.cs)
        failed = self.eligibility.failures(sampler_only=True)
        if failed:
            raise EligibilityError("; ".join(failed))
        self.blocks = [tuple(sorted(b)) for b in self.cs.max_cliques]
        self.n_choices = math.prod(math.comb(len(b), 4) for b in self.blocks)  # joint choices
        self.outside = tuple(sorted(set(range(g.n)) - set(self.cs.v_omega)))
        self.block_mask = sum(1 << v for v in self.cs.v_omega)
        self.closed = tuple(m | (1 << v) for v, m in enumerate(g.masks))
        # joint choice index -> (pool, _seen of each column)
        self._pools: dict[int, tuple[list[int], list[int]]] = {}
        # (relabelled 4-subset graph, chosen 4-subsets in its labels) -> local pool
        self._shapes: dict[tuple, tuple[tuple[int, ...], ...]] = {}

    # ── stage one ─────────────────────────────────────────────────────────

    def pool(self, j: int) -> tuple[list[int], list[int]]:
        """(pool, seen) of joint choice j, memoised by j: the four colour
        classes (vertex bitmasks) of its 4-subset graph, found once per shape
        and relabelled, and seen[i] = _seen(pool[i]).  j's mixed-radix
        digits, block 0 the least significant, rank each block's 4-subset."""
        choice, rest = [], j
        for b in self.blocks:
            rest, r = divmod(rest, math.comb(len(b), 4))
            choice.append(_subset(b, r))
        tilde_vertices = sorted(v for sub in choice for v in sub)
        index = {v: i for i, v in enumerate(tilde_vertices)}
        shape = (
            self.g.induced(tilde_vertices),
            tuple(tuple(index[v] for v in sub) for sub in choice),
        )
        local = self._shapes.get(shape)
        if local is None:
            local = _shape_pool(*shape)
            _remember(self._shapes, shape, local)
        pool = [sum(1 << tilde_vertices[i] for i in col) for col in local]
        plan = (pool, [self._seen(col) for col in pool])
        _remember(self._pools, j, plan)
        return plan

    # ── stage two ─────────────────────────────────────────────────────────

    def extend(self, rng: Random, s_omega_mask: int, active: Sequence[int] | None = None) -> int:
        """s_omega_mask with stage two drawn through rng.randrange: while the
        set I of active outside vertices with no neighbour in S is non-empty,
        r = randrange(|I|) adds I's r-th smallest vertex u to S, and I loses
        N[u].  _tally draws stage two by this rule, from its stream."""
        s = s_omega_mask
        free = self._outside_mask(active) & ~self._seen(s)
        while free:
            u = list(bits(free))[rng.randrange(free.bit_count())]
            s |= 1 << u
            free &= ~self.closed[u]
        return s

    def _outside_mask(self, active: Sequence[int] | None) -> int:
        """The active outside vertices (all when active is None) as a mask;
        ValueError names any active vertex that is not an outside vertex."""
        chosen = set(self.outside if active is None else active)
        if stray := sorted(chosen.difference(self.outside)):
            raise ValueError(f"active vertices {stray} are not outside vertices")
        return sum(1 << v for v in chosen)

    def _seen(self, s: int) -> int:
        """The outside vertices with a neighbour in s, as a mask."""
        return sum(1 << v for v in self.outside if self.g.masks[v] & s)

    def sample(self, rng: Random, active: Sequence[int] | None = None) -> tuple[int, int]:
        """One draw; returns (S_omega mask, S mask).

        The draw is trial 0 of tally for the seed rng.randrange(2**64), and
        S_omega is S's part in the blocks (see marginals).
        """
        (s,) = self.tally(rng.randrange(2**64), (), 1, active)
        return s & self.block_mask, s

    def tally(
        self, seed: int, key: Sequence[int], trials: int, active: Sequence[int] | None = None
    ) -> Counter[int]:
        """The S masks of trials t < `trials`, each read from its own stream.

        Trial t's stream is keyed by the string "seed:key:...:t" (e.g. "7:3"
        for trial 3 of seed 7 with an empty key).  Its bits are the
        concatenated 512-bit blocks _block(key, 0), _block(key, 1), ..., read
        from the low end and fetched only when the bits drawn so far run out.
        A draw below n takes the next (n - 1).bit_length() bits and rejects
        them until they are below n.  A trial draws one index below 4 n_choices
        (its two low bits pick the pool column, the rest is the joint choice
        index; see pool), then stage two by the rule of extend.

        The trials split into contiguous ranges, one per process, each of at
        least TRIALS_PER_PROCESS trials, one process per CPU this process
        may run on at most.  The caller runs the first range, forked children
        the others, each on a copy of the memos, sending its counts back
        through a pipe; merged in range order, counts and insertion order are
        those of one serial loop.  A failed child's range runs again here, so
        it raises what a serial run would.  The run stays serial without
        os.fork or os.sched_getaffinity, with a second thread running, on one
        CPU, or below 2 * TRIALS_PER_PROCESS trials.
        """
        prefix = "".join(f"{format_rational(x)}:" for x in (seed, *key)).encode()
        active_mask = self._outside_mask(active)  # checked before any child starts
        parts = _processes(trials)
        ranges = [range(trials * i // parts, trials * (i + 1) // parts) for i in range(parts)]
        children = [self._fork(prefix, part, active_mask) for part in ranges[1:]]
        try:
            counts = self._tally(prefix, ranges[0], active_mask)
        finally:
            sent = [_collect(child) for child in children]
        for part, got in zip(ranges[1:], sent):
            if got is None:
                got = self._tally(prefix, part, active_mask)
            for s, c in got.items():
                counts[s] += c
        return counts

    def _fork(self, prefix: bytes, part: range, active_mask: int) -> tuple[int, int] | None:
        """(pid, pipe read end) of a child that tallies `part` and writes its
        counts, marshalled, to the pipe; None if no child could start."""
        try:
            r, w = os.pipe()
        except OSError:
            return None
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
        if pid == 0:
            status = 1
            try:
                os.close(r)
                with open(w, "wb") as out:
                    marshal.dump(dict(self._tally(prefix, part, active_mask)), out)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        return pid, r

    def _tally(self, prefix: bytes, trial_range: range, active_mask: int) -> Counter[int]:
        """The S masks of the trials in `trial_range`, in one loop.

        The loop reads the digest bits directly, every draw by one inline
        rejection step (a method call per draw cost more than the hashing).
        The first draw picks the pool column, looked up by joint choice index
        with the outside vertices it sees, so the insertable set is one mask.
        """
        joint = _plan(4 * self.n_choices)
        plans = [_plan(i) for i in range(active_mask.bit_count() + 1)]
        closed, pools = self.closed, self._pools
        counts: Counter[int] = Counter()
        for t in trial_range:
            key_t = prefix + b"%d" % t
            bits, left, block = _block(key_t, 0), 512, 1
            n, k, mask = joint
            s = -1
            while True:
                while left < k:
                    bits |= _block(key_t, block) << left
                    left += 512
                    block += 1
                r = bits & mask
                bits >>= k
                left -= k
                if r >= n:
                    continue
                if s < 0:  # the first draw: column r & 3 of joint choice r >> 2
                    pool, seen = pools.get(r >> 2) or self.pool(r >> 2)
                    s, free = pool[r & 3], active_mask & ~seen[r & 3]
                else:  # free's r-th smallest vertex joins S (see extend)
                    rest = free
                    for _ in range(r):
                        rest &= rest - 1
                    u = (rest & -rest).bit_length() - 1
                    s |= 1 << u
                    free &= ~closed[u]
                if not free:
                    break
                n, k, mask = plans[free.bit_count()]
            counts[s] += 1
        return counts

    # ── exact enumeration ─────────────────────────────────────────────────

    def enumerate_exact(self, active: Sequence[int] | None = None) -> tuple[dict[int, int], int]:
        """The exact two-stage distribution as integer weights over S masks
        and their total, by recursion on the insertable set.

        The sets stage two inserts from the insertable set I are distributed
        as g(0) = {0: 1} and g(I) = the average over u in I of {u} | g(I - N[u])
        (see extend).  The recursion runs on the integers H(I) = |I|! g(I):

            H(I)[T | {u}] += H(I - N[u])[T] * (|I|-1)! / |I - N[u]|!,

        an integer ratio since I - N[u] misses u.  H is memoised by the
        insertable bitmask for this call only, so its cost is the number of
        distinct insertable sets, not k! orders.  A pool column with
        insertable set F adds its tails scaled by k!/|F|! (k outside
        vertices), so for n joint choices of 4 columns each the weights are
        integers out of n 4 k!.
        """
        active_mask = self._outside_mask(active)
        if active_mask.bit_count() > OUTSIDE_ENUMERATION_LIMIT:
            raise SizeLimit(
                f"exact enumeration handles at most {OUTSIDE_ENUMERATION_LIMIT} outside vertices"
            )
        if self.n_choices > ENUMERATION_WORK_LIMIT:
            raise SizeLimit("too many joint 4-subset choices")
        closed = self.closed
        fact = [math.factorial(i) for i in range(active_mask.bit_count() + 1)]
        memo: dict[int, dict[int, int]] = {0: {0: 1}}

        def inserted(free: int) -> dict[int, int]:
            out = memo.get(free)
            if out is None:
                out = {}
                top = fact[free.bit_count() - 1]
                rest = free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    left = free & ~closed[bit.bit_length() - 1]
                    scale = top // fact[left.bit_count()]
                    for t, h in inserted(left).items():
                        out[t | bit] = out.get(t | bit, 0) + h * scale
                memo[free] = out
            return out

        weights: dict[int, int] = {}
        work = 0
        for j in range(self.n_choices):
            pool, seen = self._pools.get(j) or self.pool(j)
            for col, sees in zip(pool, seen):
                free = active_mask & ~sees
                tails = inserted(free)
                work += len(tails)
                if work > ENUMERATION_WORK_LIMIT:
                    raise SizeLimit("enumeration work limit exceeded")
                scale = fact[-1] // fact[free.bit_count()]
                for t, h in tails.items():
                    weights[col | t] = weights.get(col | t, 0) + h * scale
        return weights, self.n_choices * 4 * fact[-1]

    def marginals(
        self, weighted: Iterable[tuple[int, int]], total: int, outside: Iterable[int]
    ) -> tuple[
        tuple[Fraction, ...], tuple[Fraction, ...], dict[int, Fraction], tuple[Fraction, ...]
    ]:
        """Pr(v in S), Pr(v in S_omega), Pr(N(v) misses S_omega) for each v in
        `outside`, and E|N[v] & S|, from (S mask, integer weight) pairs whose
        weights sum to `total`.

        S_omega is read off S as its part in the blocks: pool columns lie in
        the blocks, stage two inserts only outside vertices, and S_omega meets
        every block, so every other block vertex has a neighbour in S.
        """
        n = self.g.n
        masks, closed, blocks = self.g.masks, self.closed, self.block_mask
        in_s = [0] * n
        nb_empty = dict.fromkeys(outside, 0)
        closed_hits = [0] * n
        for s, c in weighted:
            for v in range(n):
                if (s >> v) & 1:
                    in_s[v] += c
                closed_hits[v] += c * (closed[v] & s).bit_count()
            for v in nb_empty:
                if not masks[v] & s & blocks:
                    nb_empty[v] += c
        pr_s = tuple(Fraction(c, total) for c in in_s)
        return (
            pr_s,
            tuple(p if (blocks >> v) & 1 else _ZERO for v, p in enumerate(pr_s)),
            {v: Fraction(c, total) for v, c in nb_empty.items()},
            tuple(Fraction(c, total) for c in closed_hits),
        )


def _processes(trials: int) -> int:
    """How many processes tally `trials` trials: one per TRIALS_PER_PROCESS
    trials, at most one per CPU this process may run on, and one where os.fork
    or os.sched_getaffinity is missing or a second thread runs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // TRIALS_PER_PROCESS))


def _collect(child: tuple[int, int] | None) -> dict[int, int] | None:
    """A child's counts, once it has exited; None if it failed or never
    started."""
    if child is None:
        return None
    pid, r = child
    with open(r, "rb") as pipe:
        sent = pipe.read()
    if os.waitpid(pid, 0)[1] != 0:
        return None
    return marshal.loads(sent)


def _subset(b: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The r-th 4-subset of b in (lexicographic) itertools.combinations order."""
    sub, x = [], 0
    for k in (3, 2, 1, 0):
        while r >= (c := math.comb(len(b) - x - 1, k)):
            r, x = r - c, x + 1
        sub.append(b[x])
        x += 1
    return tuple(sub)


def _remember(cache: dict, key, value) -> None:
    """Store key -> value, first dropping the oldest entry if the cache is full."""
    if len(cache) >= POOL_CACHE_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = value


def _shape_pool(
    tilde: Graph, subsets: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """The colour classes of the 4-subset graph `tilde` (rainbow_colouring,
    which raises SizeLimit when its search gives up).  Raises
    HypothesisViolated if tilde has degree above 5 or no proper 4-colouring."""
    if tilde.max_degree() > 5:
        raise HypothesisViolated(f"induced 4-subset graph has degree {tilde.max_degree()} > 5")
    classes = rainbow_colouring(tilde, subsets)
    if classes is None:
        raise HypothesisViolated(
            f"no proper 4-colouring of the 4-subset graph on parts {list(subsets)} "
            f"with edges {tilde.edges()}"
        )
    return classes


# ── Monte Carlo estimation ────────────────────────────────────────────────


@dataclass(frozen=True)
class SamplerCheck:
    name: str
    vertex: int
    bound: Fraction
    empirical: Fraction
    band: Fraction
    ok: bool


@dataclass(frozen=True)
class EstimateReport:
    trials: int
    seed: int
    delta: int
    omega: int
    freq_s: tuple[Fraction, ...]
    freq_s_omega: tuple[Fraction, ...]
    freq_nb_empty: Mapping[int, Fraction]
    mean_closed: tuple[Fraction, ...]
    checks: tuple[SamplerCheck, ...]
    vertex_class: tuple[str, ...]
    paper_lower_bound: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def hoeffding_band(trials: int, span: int = 1) -> Fraction:
    """Width such that a mean of [0,span] samples strays further with
    probability at most HOEFFDING_DELTA."""
    return Fraction(span) * Fraction(math.sqrt(math.log(1.0 / HOEFFDING_DELTA) / (2.0 * trials)))


def estimate(g: Graph, trials: int, seed: int) -> EstimateReport:
    """Seeded Monte Carlo estimates checked against the theoretical floors.

    Deterministic for fixed (graph, seed, trials): StableSetSampler.tally
    draws trial t from the stream keyed "seed:t" and counts the S masks,
    which StableSetSampler.marginals reduces to the per-vertex figures.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampler = StableSetSampler(g)
    cs, n = sampler.cs, g.n
    draws = sampler.tally(seed, (), trials)
    freq_s, freq_s_omega, freq_nb_empty, mean_closed = sampler.marginals(
        draws.items(), trials, sampler.outside
    )

    delta = g.max_degree()
    omega = cs.omega
    band = hoeffding_band(trials)
    band3 = hoeffding_band(trials, span=3)
    checks: list[SamplerCheck] = []
    classes: list[str] = []
    lower: list[Fraction] = []
    eligible = sampler.eligibility.passed
    mu_k, mu, _ = mu_values(delta) if eligible else ({}, _ZERO, 0)

    def floor(name: str, v: int, bound: Fraction, value: Fraction, width: Fraction = band):
        checks.append(SamplerCheck(name, v, bound, value, width, value >= bound - width))

    for v in range(n):
        if v in cs.v_omega:
            classes.append("Vw'" if v in cs.v_omega_prime else "Vw")
            bound = Fraction(1, omega)
        else:
            classes.append(f"V{cs.level[v]}")
            bound = p_value(delta, cs.d_omega[v]) if eligible else _ZERO
        lower.append(bound)
        if not eligible:
            continue
        floor("pr_s_geq_mu", v, mu, freq_s[v])
        if v in cs.v_omega:
            checks.append(
                SamplerCheck(
                    "pr_s_omega", v, bound, freq_s_omega[v], band,
                    abs(freq_s_omega[v] - bound) <= band,
                )
            )
            if v in cs.v_omega_prime:
                floor("closed_nb_mean", v, 1 + 2 * mu, mean_closed[v], band3)
            continue
        floor("pr_s_outside", v, bound, freq_s[v])
        floor("block_nb_empty", v, bound * (delta - cs.d_omega[v] + 1), freq_nb_empty[v])
        k = cs.level[v]
        if 4 <= k <= omega - 1:
            floor("pr_s_level", v, mu_k[delta + 1 - k], freq_s[v])

    return EstimateReport(
        trials=trials,
        seed=seed,
        delta=delta,
        omega=omega,
        freq_s=freq_s,
        freq_s_omega=freq_s_omega,
        freq_nb_empty=freq_nb_empty,
        mean_closed=mean_closed,
        checks=tuple(checks),
        vertex_class=tuple(classes),
        paper_lower_bound=tuple(lower),
    )
