"""Interval-based colour sets, stable-set weightings and the certificate checker.

Colour mass lives in [0, k) as finite unions of half-open rational intervals;
a colouring assigns disjoint interval sets to stable sets, and the weighting
form lists (stable set, weight) columns.  The three representations are
interconvertible and a colouring can be extended onto an uncoloured set via
Hall's condition and an exact max-flow over interval atoms.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import GraphFormatError, HallViolation
from .graphs import Graph
from .rationals import format_rational, parse_rational

_ZERO = Fraction(0)
_RATIONAL = (int, Fraction)


class IntervalSet:
    """Canonical finite union of disjoint, non-touching half-open intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[Fraction, Fraction]] = ()):
        cleaned = []
        for lo, hi in intervals:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo >= hi:
                raise ValueError(f"empty or inverted interval [{lo},{hi})")
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                prev_lo, prev_hi = merged[-1]
                merged[-1] = (prev_lo, max(prev_hi, hi))
            else:
                merged.append((lo, hi))
        self.intervals = tuple(merged)

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), _ZERO)

    def within(self, k: Fraction) -> bool:
        return all(lo >= 0 and hi <= k for lo, hi in self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        body = " u ".join(f"[{lo},{hi})" for lo, hi in self.intervals)
        return f"IntervalSet({body or 'empty'})"


@dataclass(frozen=True)
class IntervalColouring:
    """Assignment of disjoint interval sets within [0,k) to stable sets."""

    k: Fraction
    assignment: tuple[tuple[frozenset[int], IntervalSet], ...]

    def colour_of(self, v: int) -> IntervalSet:
        return IntervalSet(piece for s, iv in self.assignment if v in s for piece in iv.intervals)

    def coverage(self, v: int) -> Fraction:
        return self.colour_of(v).measure

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless every class is a stable set of g's
        vertices, within [0,k) and disjoint from every other class.

        One sweep over all pieces sorted by left end: if two pieces overlap,
        some consecutive pair does, so only consecutive pairs are compared.
        Within [0,k) and disjoint, the classes' total mass is at most k.
        """
        pieces = []
        for s, iv in self.assignment:
            for v in s:
                if not 0 <= v < g.n:
                    raise ValueError(
                        f"colour class {sorted(s)} has vertex {v} outside 0..{g.n - 1}"
                    )
            if not g.is_stable(s):
                raise ValueError(f"non-stable colour class {sorted(s)}")
            if not iv.within(self.k):
                raise ValueError(f"interval set escapes [0,{self.k})")
            pieces.extend((lo, hi, s) for lo, hi in iv.intervals)
        pieces.sort(key=lambda piece: piece[0])
        for (_, hi1, s1), (lo2, _, s2) in zip(pieces, pieces[1:]):
            if lo2 < hi1:
                raise ValueError(f"overlapping colour for {sorted(s1)} and {sorted(s2)}")


def empty_colouring(k: Fraction) -> IntervalColouring:
    return IntervalColouring(Fraction(k), ())


@dataclass(frozen=True)
class StableSetWeighting:
    """Columns of (stable set, positive weight) summing to `total`."""

    columns: tuple[tuple[frozenset[int], Fraction], ...]
    total: Fraction

    def coverage_vector(self, n: int) -> list[Fraction]:
        cov = [_ZERO] * n
        for s, wt in self.columns:
            for v in s:
                cov[v] += wt
        return cov


# ── the three equivalent representations ──────────────────────────────────


def to_weighting(kc: IntervalColouring) -> StableSetWeighting:
    """Interval colouring -> weighting; unassigned mass pads an empty column."""
    merged: dict[frozenset[int], Fraction] = {}
    for s, iv in kc.assignment:
        if iv.measure > 0:
            merged[s] = merged.get(s, _ZERO) + iv.measure
    slack = Fraction(kc.k) - sum(merged.values(), _ZERO)
    if slack > 0:
        empty = frozenset()
        merged[empty] = merged.get(empty, _ZERO) + slack
    columns = tuple(sorted(merged.items(), key=lambda it: tuple(sorted(it[0]))))
    return StableSetWeighting(columns=columns, total=Fraction(kc.k))


def to_intervals(ssw: StableSetWeighting) -> IntervalColouring:
    """Weighting -> interval colouring by stacking columns left to right."""
    cursor = _ZERO
    assignment = []
    for s, wt in ssw.columns:
        if wt <= 0:
            raise ValueError("column weights must be positive")
        assignment.append((frozenset(s), IntervalSet([(cursor, cursor + wt)])))
        cursor += wt
    if cursor > ssw.total:
        raise ValueError("column weights exceed the stated total")
    return IntervalColouring(k=Fraction(ssw.total), assignment=tuple(assignment))


# ── certificate verification ──────────────────────────────────────────────


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    g: Graph, ssw: StableSetWeighting, w: Sequence[Fraction]
) -> CertificateCheck:
    """Independent exact check: stable columns, weight budget, coverage >= w.

    Trusts nothing from the producer; the first violated constraint is named.
    Sums run on integers over the lcm of the column weights' denominators.
    """
    if len(w) != g.n:
        return CertificateCheck(False, f"weight vector has {len(w)} entries, graph has {g.n}")
    for idx, (s, wt) in enumerate(ssw.columns):
        if any(not 0 <= v < g.n for v in s):
            return CertificateCheck(False, f"column {idx} has out-of-range vertex")
        if not isinstance(wt, _RATIONAL):
            return CertificateCheck(False, f"column {idx} has non-rational weight {wt!r}")
        if wt <= 0:
            return CertificateCheck(
                False, f"column {idx} has non-positive weight {format_rational(wt)}"
            )
        if not g.is_stable(s):
            return CertificateCheck(False, f"non-stable column {idx}: {sorted(s)}")
    den = lcm(*(wt.denominator for _, wt in ssw.columns))
    nums = [wt.numerator * (den // wt.denominator) for _, wt in ssw.columns]
    weight, total = sum(nums), ssw.total
    if not isinstance(total, _RATIONAL):
        return CertificateCheck(False, f"claimed total {total!r} is not rational")
    if weight * total.denominator > total.numerator * den:
        return CertificateCheck(
            False,
            f"column weights sum to {format_rational(Fraction(weight, den))}"
            f" > claimed total {format_rational(total)}",
        )
    cov = [0] * g.n
    for (s, _), x in zip(ssw.columns, nums):
        for v in s:
            cov[v] += x
    for v, x in enumerate(w):
        if not isinstance(x, _RATIONAL):
            return CertificateCheck(False, f"weight {x!r} of vertex {v} is not rational")
        if cov[v] * x.denominator < x.numerator * den:
            return CertificateCheck(
                False,
                f"undercovered vertex {v}: coverage {format_rational(Fraction(cov[v], den))}"
                f" < weight {format_rational(x)}",
            )
    return CertificateCheck(True)


# ── Hall extension ────────────────────────────────────────────────────────


def hall_extend(
    g: Graph,
    kc: IntervalColouring,
    target: Iterable[int],
    w: Sequence[Fraction],
) -> IntervalColouring:
    """Extend a colouring onto `target` so each v gets coverage w(v).

    Any colour already on `target` is first erased.  [0,k) is then cut into
    atoms, each owned by one colour class or by none, and the demands are
    routed by breadth-first augmenting paths from the target vertices to the
    atoms whose owner has no neighbour of them (an exact max-flow with atom
    lengths as capacities).  A saturating flow is realized by splitting each
    atom left to right.  Otherwise the target vertices reached by the last
    search violate Hall's condition by sum(w) - maxflow, the largest
    deficiency sum(w(v)) - |union of alpha(v)| over all subsets, alpha(v)
    being the colour in [0,k) on no neighbour of v once the target is erased.
    """
    X = frozenset(target)
    if len(w) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(w)}")
    for v in X:
        if not 0 <= v < g.n:
            raise ValueError(f"target vertex {v} outside 0..{g.n - 1}")
    left = {v: Fraction(w[v]) for v in X}  # demand not yet routed
    if any(q < 0 for q in left.values()):
        raise ValueError("negative demand")
    kc.validate(g)

    # atoms (lo, hi, owner): each interval of a class, owned by the class with
    # the target erased, then each gap, owned by the empty set; validate() has
    # checked that the classes' intervals are disjoint, so one sweep in order
    # of left end finds the gaps, an empty sentinel at k closing the last one
    atoms = [(lo, hi, s - X) for s, iv in kc.assignment for lo, hi in iv.intervals]
    cursor = _ZERO
    for lo, hi in sorted([(lo, hi) for lo, hi, _ in atoms]) + [(kc.k, kc.k)]:
        if cursor < lo:
            atoms.append((cursor, lo, frozenset()))
        cursor = hi
    usable = {v: [i for i, (_, _, s) in enumerate(atoms) if not s & g.adj[v]] for v in X}
    room = [hi - lo for lo, hi, _ in atoms]
    flow: list[dict[int, Fraction]] = [{} for _ in atoms]  # atom -> {vertex: amount}

    while True:
        # breadth-first search from every vertex with demand left; a vertex
        # is also reached backwards from an atom that holds some of its flow
        via_atom = {v: None for v in sorted(X) if left[v] > 0}
        if not via_atom:
            break
        via_vertex: dict[int, int] = {}  # atom -> vertex it was reached from
        queue = deque(via_atom)
        end = None
        while queue and end is None:
            v = queue.popleft()
            for i in usable[v]:
                if i in via_vertex:
                    continue
                via_vertex[i] = v
                if room[i] > 0:
                    end = i
                    break
                for u in flow[i]:
                    if u not in via_atom:
                        via_atom[u] = i
                        queue.append(u)
        if end is None:
            raise HallViolation(via_atom, shortfall=sum(left.values(), _ZERO))
        path, i = [], end  # (vertex, atom) steps, walked back from the sink
        while i is not None:
            path.append((via_vertex[i], i))
            i = via_atom[path[-1][0]]
        start = path[-1][0]
        amount = min([left[start], room[end]] + [flow[via_atom[v]][v] for v, _ in path[:-1]])
        left[start] -= amount
        room[end] -= amount
        for v, i in path:
            flow[i][v] = flow[i].get(v, _ZERO) + amount
            back = via_atom[v]
            if back is not None:
                flow[back][v] -= amount
                if flow[back][v] == 0:
                    del flow[back][v]

    regrouped: dict[frozenset[int], list[tuple[Fraction, Fraction]]] = {}
    for (lo, hi, s), users in zip(atoms, flow):
        for v, amount in sorted(users.items()):
            regrouped.setdefault(s | {v}, []).append((lo, lo + amount))
            lo += amount
        if s and lo < hi:
            regrouped.setdefault(s, []).append((lo, hi))
    assignment = tuple(
        (s, IntervalSet(pieces))
        for s, pieces in sorted(regrouped.items(), key=lambda it: tuple(sorted(it[0])))
    )
    return IntervalColouring(k=kc.k, assignment=assignment)


# ── certificate files ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class CertificateFile:
    n: int
    k: Fraction
    w: tuple[Fraction, ...]
    weighting: StableSetWeighting


def certificate_to_json(n: int, w: Sequence[Fraction], ssw: StableSetWeighting) -> str:
    payload = {
        "n": n,
        "k": format_rational(ssw.total),
        "w": [format_rational(Fraction(x)) for x in w],
        "columns": [
            {"vertices": sorted(s), "weight": format_rational(wt)}
            for s, wt in ssw.columns
        ],
    }
    return json.dumps(payload, indent=1)


def _json_int(value) -> int:
    if type(value) is not int:  # JSON floats and true/false are not vertex ids
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def _json_list(value) -> list:
    if type(value) is not list:  # a string or object would be iterated, not rejected
        raise ValueError(f"expected a JSON array, got {type(value).__name__}")
    return value


def _json_vertices(value) -> frozenset[int]:
    vertices: set[int] = set()
    for v in _json_list(value):
        if _json_int(v) in vertices:
            raise ValueError(f"a column lists vertex {v} twice")
        vertices.add(v)
    return frozenset(vertices)


def certificate_from_json(text: str) -> CertificateFile:
    try:
        payload = json.loads(text)
        n = _json_int(payload["n"])
        k = parse_rational(payload["k"])
        w = tuple(parse_rational(x) for x in _json_list(payload["w"]))
        columns = tuple(
            (_json_vertices(col["vertices"]), parse_rational(col["weight"]))
            for col in _json_list(payload["columns"])
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise GraphFormatError(f"malformed certificate: {exc}") from exc
    if len(w) != n:
        raise GraphFormatError(f"certificate lists {len(w)} weights for n={n}")
    return CertificateFile(n=n, k=k, w=w, weighting=StableSetWeighting(columns, k))
