"""Exact computation of weighted fractional chromatic numbers.

The master problem (minimise the total weight of the primal stable-set
columns subject to per-vertex coverage) is solved through its dual --
maximise w.y subject to y(S) <= 1 for every generated column -- because the
slack basis of the dual is immediately feasible.  Columns are priced in by an
exact branch-and-bound maximum-weight stable set oracle until none is
violated, at which point the dual vector y certifies optimality over all
stable sets.  One integer simplex tableau lives for the whole solve: each
priced column is one new dual row, and dual simplex pivots re-optimise from
the current basis.  Past the first solve the tableau stores only its at
most n rows basic in a y, so a pivot rewrites at most n rows however many
columns were priced in; pricing reads the tableau's integer duals as they
are.  Values leave the solver as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Iterable, Sequence

from .errors import LpError, SizeLimit
from .graphs import Graph, degeneracy_order
from .intervals import StableSetWeighting, verify_certificate
from .rationals import format_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

EXACT_SOLVE_VERTEX_CAP = 60


# ── exact integer tableau: primal then dual simplex, Bland's rules ──────


class _DualTableau:
    """max w.y subject to y(S) <= 1 for every row S and y >= 0, kept optimal
    while rows are added.

    The tableau is integer over one common denominator D: the true entries
    are T/D, and the objective row is further scaled by the lcm of the weight
    denominators.  Pivots use Bareiss exact division, so every entry stays an
    integer (a subdeterminant of the constraint matrix); D stays positive
    because a negative pivot row is negated first.  The tableau is compact:
    one column per nonbasic variable (``cols``), and variables 0..n-1 are y;
    variable n+i is the slack of row i, the row y(sets[i]) <= 1.  Each row
    ends with its right-hand side, and the objective row ``z`` with the
    objective value, so a pivot updates them as one more column.

    Rows are stored keyed by their basic variable (``rows``).  The primal
    phase stores every row; after it, only the rows whose basic variable is a
    y are kept, so there are at most n of them and a dual pivot updates at
    most n rows.  A row whose slack is basic is rebuilt when a step reads it:
    D*a_S with rhs D, minus the stored rows whose basic y lies in S.

    The first solve is primal simplex from the slack basis with Bland's rule.
    A new row enters basic in its own slack, and dual simplex with the dual
    Bland rule restores feasibility: the leaving row is the infeasible one
    with the smallest basic variable, and ratio ties enter the smallest.
    """

    def __init__(self, weights: Sequence[Fraction], rows: Iterable[frozenset[int]]):
        self.n = n = len(weights)
        self.scale = lcm(*(x.denominator for x in weights))
        self.d = 1
        self.cols = list(range(n))
        self.z = [-(x.numerator * (self.scale // x.denominator)) for x in weights] + [0]
        self.sets = list(rows)
        self.rows: dict[int, list[int]] = {}
        # the primal phase stores every row: the seed rows, at most n of them
        for b in range(n, n + len(self.sets)):
            self.rows[b] = self._row(b)
        stored, cols, z = self.rows, self.cols, self.z
        while True:
            entering = [(v, j) for j, v in enumerate(cols) if z[j] < 0]
            if not entering:
                break
            enter = min(entering)[1]
            leave, lrow = -1, []
            for b, row in stored.items():
                a = row[enter]
                if a > 0:
                    # minimise rhs/a; ties leave the smallest basic variable
                    diff = -1 if leave < 0 else row[-1] * lrow[enter] - lrow[-1] * a
                    if diff < 0 or (diff == 0 and b < leave):
                        leave, lrow = b, row
            if leave < 0:
                raise LpError("unbounded linear program")
            self._pivot(leave, enter, lrow, keep=True)
        for b in [b for b in stored if b >= n]:
            del stored[b]

    def _row(self, b: int) -> list[int]:
        """The row whose basic variable is b, stored or rebuilt."""
        if b in self.rows:
            return self.rows[b]
        s = self.sets[b - self.n]
        row = [self.d if v in s else 0 for v in self.cols] + [self.d]
        for v in s:
            if v in self.rows:
                row = [x - y for x, y in zip(row, self.rows[v])]
        return row

    def add_row(self, s: frozenset[int]) -> None:
        """Append y(s) <= 1, basic in a new slack, and re-optimise."""
        self.sets.append(s)
        n, rows, cols, z = self.n, self.rows, self.cols, self.z
        # the basis was feasible, so only the new row can be infeasible
        leave = n + len(self.sets) - 1
        row = self._row(leave)
        while row[-1] < 0:
            enter = -1
            for j, v in enumerate(cols):
                a = row[j]
                if a < 0:
                    # minimise z[j]/-a; ties enter the smallest variable
                    diff = -1 if enter < 0 else z[enter] * a - z[j] * row[enter]
                    if diff < 0 or (diff == 0 and v < cols[enter]):
                        enter = j
            if enter < 0:
                raise LpError("infeasible row in the dual simplex")
            self._pivot(leave, enter, row)
            leave = min((b for b, r in rows.items() if r[-1] < 0), default=-1)
            if leave < 0:
                # D - D*y(S) per row: 0 where the slack is nonbasic, so a
                # negative value is the rhs of a basic slack's row
                y, d = self.scaled_dual().__getitem__, self.d
                leave = next((n + i for i, t in enumerate(self.sets) if d < sum(map(y, t))), -1)
                if leave < 0:
                    return
            row = self._row(leave)

    def _pivot(self, leave: int, e: int, prow: list[int], keep: bool = False) -> None:
        """Pivot on entry e of the row basic in `leave`.  The row is stored
        under the entering variable if that is a y, or if `keep` is set."""
        rows, z, d = self.rows, self.z, self.d
        p = prow[e]
        sign = 1
        if p < 0:
            sign, p = -1, -p
            prow = [-b for b in prow]
        for b, row in rows.items():
            if b == leave:
                continue
            f = row[e]
            if f:
                row = rows[b] = [(a * p - f * c) // d for a, c in zip(row, prow)]
                row[e] = -sign * f
            elif p != d:
                rows[b] = [a * p // d for a in row]
        f = z[e]
        z[:] = [(a * p - f * c) // d for a, c in zip(z, prow)]
        z[e] = -sign * f
        # the leaving variable takes the entering one's column
        prow[e] = sign * d
        rows.pop(leave, None)
        enter, self.cols[e] = self.cols[e], leave
        if keep or enter < self.n:
            rows[enter] = prow
        self.d = p

    def scaled_dual(self) -> list[int]:
        """D*y for the current basis."""
        y = [0] * self.n
        for v, row in self.rows.items():
            y[v] = row[-1]
        return y

    def value(self) -> Fraction:
        return Fraction(self.z[-1], self.d * self.scale)

    def primal(self) -> list[Fraction]:
        """Row weights of the covering LP: the reduced costs of the slacks."""
        x = [_ZERO] * len(self.sets)
        for j, v in enumerate(self.cols):
            if v >= self.n:
                x[v - self.n] = Fraction(self.z[j], self.d * self.scale)
        return x


# ── maximum-weight stable set oracle ──────────────────────────────────────


def max_weight_stable_set(
    g: Graph, weights: Sequence[Fraction | int]
) -> tuple[frozenset[int], Fraction]:
    """Exact maximiser via one branch and bound.

    Branches on the heaviest candidate, including it first; the upper bound is
    a greedy clique cover (a stable set meets each clique at most once).  The
    first maximiser reached is returned: among the maximisers over
    positive-weight vertices, the one whose membership, read along the
    branching order (weight descending, ties to the smaller vertex), is
    greatest.  The weights are scaled once by the lcm of their denominators,
    so the search runs on integers, and int weights are read as they are.
    The search runs on the positive-weight vertices relabelled to their
    positions in the branching order, so the next branch is the lowest set
    bit of the candidate mask and the bound walks set bits only.
    """
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    scale = 1
    if not all(type(x) is int for x in weights):
        w = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in weights]
        scale = lcm(*(x.denominator for x in w))
        weights = [x.numerator * (scale // x.denominator) for x in w]
    if min(weights, default=0) < 0:
        raise ValueError("weights must be nonnegative")
    # a stable sort keeps ties in vertex order
    order = sorted(compress(range(g.n), weights), key=weights.__getitem__, reverse=True)
    weight = [weights[v] for v in order]
    label = [0] * g.n  # vertex -> its bit in the relabelled masks
    for i, v in enumerate(order):
        label[v] = 1 << i
    positive = sum(1 << v for v in order)
    near = []
    for v in order:  # the relabelled positive neighbours, read bit by bit
        rest, row = g.masks[v] & positive, 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            row |= label[bit.bit_length() - 1]
        near.append(row)
    # the candidates order[i] leaves: neither it nor a neighbour
    apart = [~(m | label[v]) for m, v in zip(near, order)]
    best = 0
    best_set = 0

    def search(mask: int, acc: int, chosen: int) -> None:
        nonlocal best, best_set
        if acc > best:
            best, best_set = acc, chosen
        if not mask or acc + _cover_bound(mask, near, weight) <= best:
            return
        bit = mask & -mask
        i = bit.bit_length() - 1
        search(mask & apart[i], acc + weight[i], chosen | bit)
        search(mask & ~bit, acc, chosen)

    search((1 << len(order)) - 1, 0, 0)
    return frozenset(v for i, v in enumerate(order) if (best_set >> i) & 1), Fraction(best, scale)


def _cover_bound(mask: int, near: Sequence[int], weight: Sequence[int]) -> int:
    """Weight of the first-fit clique cover of `mask`, built clique by
    clique: the lowest candidate left opens one and absorbs, lowest first,
    each candidate that sees every member so far (`near[i]`: i's neighbours).
    """
    total = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        i = bit.bit_length() - 1
        total += weight[i]
        common = mask & near[i]
        while common:
            bit = common & -common
            mask ^= bit
            common &= near[bit.bit_length() - 1]
    return total


# ── column generation ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class LpResult:
    """Optimal chi_f^w with primal and dual certificates."""

    value: Fraction
    primal: StableSetWeighting
    dual: tuple[Fraction, ...]
    columns_generated: int
    pricing_value: Fraction  # max over stable sets of dual mass; <= 1 at optimality


def _seed_columns(g: Graph) -> list[frozenset[int]]:
    # the mask answers the stability test; the set is still built vertex by
    # vertex, since a frozenset's iteration order (the order the LP reads a
    # row's members) depends on how it was built
    order = degeneracy_order(g)
    masks = g.masks
    seeds = []
    for v in order:
        s, mask = {v}, 1 << v
        for u in order:
            if not (mask >> u) & 1 and not masks[u] & mask:
                s.add(u)
                mask |= 1 << u
        seeds.append(frozenset(s))
    return list(dict.fromkeys(seeds))


def chi_f_weighted(g: Graph, w: Sequence[Fraction]) -> LpResult:
    """Exact chi_f^w by column generation with verified certificates."""
    weights = [Fraction(x) for x in w]
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    if any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative")
    if g.n > EXACT_SOLVE_VERTEX_CAP:
        raise SizeLimit(f"exact solves are capped at n <= {EXACT_SOLVE_VERTEX_CAP}")

    columns = dict.fromkeys(_seed_columns(g))  # in the order the rows entered
    tableau = _DualTableau(weights, columns)
    while True:
        scaled_dual = tableau.scaled_dual()
        pricing_set, mass = max_weight_stable_set(g, scaled_dual)
        if mass <= tableau.d:
            break
        if pricing_set in columns:
            raise LpError("pricing returned a known column; simplex inconsistency")
        columns[pricing_set] = None
        tableau.add_row(pricing_set)

    value = tableau.value()
    pricing_value = mass / tableau.d
    primal = StableSetWeighting(
        tuple((s, x) for s, x in zip(columns, tableau.primal()) if x > 0), value
    )
    _check_optimal(g, weights, value, primal, scaled_dual, tableau.d, pricing_value)
    return LpResult(
        value=value,
        primal=primal,
        dual=tuple(Fraction(y, tableau.d) for y in scaled_dual),
        columns_generated=len(columns),
        pricing_value=pricing_value,
    )


def _check_optimal(g, weights, value, primal, scaled_dual, d, pricing_value):
    """Raise LpError unless both certificates hold; y = scaled_dual/d, d > 0."""
    # with the checks below, the column weights sum to the value:
    # verify_certificate checks sum(x) <= total, and coverage, y >= 0,
    # y(S) <= 1 and w.y = value give sum(x) >= sum_S x_S y(S) >= w.y = value
    check = verify_certificate(g, primal, weights)
    if not check.ok:
        raise LpError(f"primal certificate failed: {check.reason}")
    if min(scaled_dual, default=0) < 0:
        raise LpError("negative dual value")
    if pricing_value > 1:
        raise LpError("dual infeasible over stable sets")
    # d*(w.y) as an integer sum within each weight denominator, then one
    # Fraction per denominator: scaling every term by the lcm of all of them
    # costs a long product per term when they are long and distinct
    sums: dict[int, int] = {}
    for y, x in zip(scaled_dual, weights):
        sums[x.denominator] = sums.get(x.denominator, 0) + y * x.numerator
    mass = sum(Fraction(s, b) for b, s in sums.items())
    if mass != value * d:
        dual_value = format_rational(Fraction(mass, d))
        raise LpError(f"strong duality failed: {dual_value} != {format_rational(value)}")


def chi_f(g: Graph) -> LpResult:
    return chi_f_weighted(g, [_ONE] * g.n)
