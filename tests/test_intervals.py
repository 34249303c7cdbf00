"""Interval colourings, representation conversions, Hall extension, checker."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from kdfree.errors import GraphFormatError, HallViolation
from kdfree.graphs import (
    Graph,
    clique_structure,
    complete_graph,
    cycle_graph,
    cycle_power,
    strong_product,
)
from kdfree.intervals import (
    CertificateFile,
    IntervalColouring,
    IntervalSet,
    StableSetWeighting,
    certificate_from_json,
    certificate_to_json,
    empty_colouring,
    hall_extend,
    to_intervals,
    to_weighting,
    verify_certificate,
)
from kdfree.lp import chi_f
from kdfree.rationals import format_rational as fmt

F = Fraction
ONE = F(1)


def iv(*pairs) -> IntervalSet:
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


def test_union_merges_touching():
    # the constructor forms the union of its intervals, merging touching ones
    assert iv((0, 1), (1, 2)) == iv((0, 2))
    assert iv((1, 2), (0, 1)).measure == 2
    assert iv((0, 2), (1, 3), (5, 6)) == iv((0, 3), (5, 6))


def alpha(g: Graph, kc: IntervalColouring, v: int) -> IntervalSet:
    """Colours available to v: [0,k) minus the colour on its neighbourhood.

    Reference: [0,k) is cut at every interval end, and each elementary piece
    on no neighbour's class is kept."""
    taken = [piece for s, ivs in kc.assignment if s & g.adj[v] for piece in ivs.intervals]
    cuts = sorted({F(0), kc.k}.union(*taken))
    return IntervalSet(
        (a, b)
        for a, b in zip(cuts, cuts[1:])
        if 0 <= a and b <= kc.k and not any(lo <= a < hi for lo, hi in taken)
    )


def test_alpha_empty_colouring():
    g = complete_graph(2)
    kc = empty_colouring(F(5))
    assert alpha(g, kc, 0) == iv((0, 5))


def test_alpha_k2_partner():
    g = complete_graph(2)
    kc = IntervalColouring(F(3), ((frozenset({0}), iv((0, 1))),))
    assert alpha(g, kc, 1) == iv((1, 3))
    assert alpha(g, kc, 0) == iv((0, 3))


def c5_optimal_weighting() -> StableSetWeighting:
    cols = tuple(
        (frozenset({i, (i + 2) % 5}), F(1, 2)) for i in range(5)
    )
    return StableSetWeighting(cols, F(5, 2))


def test_c5_leftover_availability():
    # any 5/2-colouring covering vertices 0..3 with weight exactly 1 leaves
    # the last vertex at least 1/2 of available colour
    rng = random.Random(23)
    g = cycle_graph(5)
    for _ in range(50):
        base = c5_optimal_weighting()
        kc = to_intervals(
            StableSetWeighting(tuple(rng.sample(base.columns, 5)), base.total)
        )
        assert all(kc.coverage(v) == 1 for v in range(4))
        assert alpha(g, kc, 4).measure >= F(1, 2)


def test_to_weighting_single_column():
    kc = IntervalColouring(F(5, 2), ((frozenset({0, 2}), iv((0, F(5, 2)))),))
    ssw = to_weighting(kc)
    assert ssw.columns == ((frozenset({0, 2}), F(5, 2)),)
    back = to_intervals(ssw)
    assert back.coverage(0) == F(5, 2) and back.coverage(1) == 0


def greedy_stable(g: Graph, rng: random.Random) -> frozenset[int]:
    s: set[int] = set()
    for v in rng.sample(range(g.n), g.n):
        if not g.adj[v] & s:
            s.add(v)
    return frozenset(s)


def test_round_trip_preserves_coverage():
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        cols = tuple(
            (greedy_stable(g, rng), F(rng.randint(1, 5), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        )
        ssw = StableSetWeighting(cols, sum(w for _, w in cols))
        back = to_weighting(to_intervals(ssw))
        assert back.coverage_vector(g.n) == ssw.coverage_vector(g.n)
        assert back.total == ssw.total


def test_coverage_identity_and_mass_budget():
    # coverage(v) equals the summed measure of the classes containing v, and
    # total assigned mass never exceeds k
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        cols = tuple(
            (greedy_stable(g, rng), F(rng.randint(1, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        )
        kc = to_intervals(StableSetWeighting(cols, sum(w for _, w in cols)))
        kc.validate(g)
        assigned = sum((ivs.measure for _, ivs in kc.assignment), F(0))
        assert assigned <= kc.k
        for v in range(g.n):
            per_column = sum((ivs.measure for s, ivs in kc.assignment if v in s), F(0))
            assert kc.coverage(v) == per_column


def overlap(iv1: IntervalSet, iv2: IntervalSet) -> bool:
    return any(
        max(lo1, lo2) < min(hi1, hi2) for lo1, hi1 in iv1.intervals for lo2, hi2 in iv2.intervals
    )


def validate_pairwise(g: Graph, kc: IntervalColouring) -> None:
    """Reference validate: each class checked alone, then every pair of
    classes intersected, then the total colour mass against k."""
    used = F(0)
    for s, ivs in kc.assignment:
        if not g.is_stable(s):
            raise ValueError(f"non-stable colour class {sorted(s)}")
        if not ivs.within(kc.k):
            raise ValueError(f"interval set escapes [0,{kc.k})")
        used += ivs.measure
    for (s1, iv1), (s2, iv2) in combinations(kc.assignment, 2):
        if overlap(iv1, iv2):
            raise ValueError(f"overlapping colour for {sorted(s1)} and {sorted(s2)}")
    if used > kc.k:
        raise ValueError("total colour mass exceeds k")


def overlap_messages(kc: IntervalColouring) -> set[str]:
    """The overlap message for every pair of classes that overlap, either order."""
    out = set()
    for (s1, iv1), (s2, iv2) in combinations(kc.assignment, 2):
        if overlap(iv1, iv2):
            out.add(f"overlapping colour for {sorted(s1)} and {sorted(s2)}")
            out.add(f"overlapping colour for {sorted(s2)} and {sorted(s1)}")
    return out


def test_validate_rejects_non_stable_class():
    kc = IntervalColouring(F(2), ((frozenset({0, 1}), iv((0, 1))),))
    with pytest.raises(ValueError, match=r"^non-stable colour class \[0, 1\]$"):
        kc.validate(complete_graph(2))


@pytest.mark.parametrize("pieces", [((1, 3),), ((-1, 1),)], ids=["past-k", "below-0"])
def test_validate_rejects_escaping_interval(pieces):
    kc = IntervalColouring(F(2), ((frozenset({0}), iv(*pieces)),))
    with pytest.raises(ValueError, match=r"^interval set escapes \[0,2\)$"):
        kc.validate(Graph(1))


@pytest.mark.parametrize(
    "cls, message",
    [
        ({0, 3}, r"^colour class \[0, 3\] has vertex 3 outside 0\.\.2$"),
        ({-1, 2}, r"^colour class \[-1, 2\] has vertex -1 outside 0\.\.2$"),
    ],
    ids=["past-n", "negative"],
)
def test_validate_rejects_a_class_vertex_outside_the_graph(cls, message):
    # named before the stability check, which would index past the graph
    kc = IntervalColouring(F(2), ((frozenset(cls), iv((0, 1))),))
    with pytest.raises(ValueError, match=message):
        kc.validate(Graph(3))


def test_validate_overlap_names_both_classes():
    g = Graph(3)
    # touching classes are disjoint
    IntervalColouring(F(3), ((frozenset({0}), iv((0, 1))), (frozenset({1}), iv((1, 3))))).validate(g)
    # [1/2, 1) of class [1] lies inside [0, 2) of class [0], which touches class [2]
    kc = IntervalColouring(
        F(3),
        (
            (frozenset({2}), iv((2, 3))),
            (frozenset({0}), iv((0, 2))),
            (frozenset({1}), iv((F(1, 2), 1))),
        ),
    )
    with pytest.raises(ValueError) as err:
        kc.validate(g)
    assert str(err.value) in overlap_messages(kc)
    assert "[0]" in str(err.value) and "[1]" in str(err.value)


@st.composite
def colourings(draw):
    """A random graph on at most 5 vertices and up to four classes, stable or
    not, of pieces on a grid of halves: pieces touch, overlap and escape
    [0,k) often."""
    n = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    g = Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
    k = F(draw(st.integers(0, 8)), 2)
    halves = st.integers(-2, 2 * int(k) + 2).map(lambda a: F(a, 2))
    piece = st.tuples(halves, st.integers(1, 4)).map(lambda p: (p[0], p[0] + F(p[1], 2)))
    assignment = draw(
        st.lists(
            st.tuples(
                st.frozensets(st.integers(0, n - 1)),
                st.lists(piece, min_size=1, max_size=3).map(IntervalSet),
            ),
            max_size=4,
        )
    )
    return g, IntervalColouring(k, tuple(assignment))


@given(colourings())
@settings(max_examples=300, deadline=None)
def test_validate_sweep_matches_pairwise_check(case):
    g, kc = case
    try:
        validate_pairwise(g, kc)
        expected = None
    except ValueError as err:
        expected = str(err)
    try:
        kc.validate(g)
        got = None
    except ValueError as err:
        got = str(err)
    if expected is not None and expected.startswith("overlapping"):
        assert got in overlap_messages(kc)
    else:
        # the reference's mass check never fires alone: it would fail here
        assert got == expected


def test_hall_extend_singleton():
    g = complete_graph(2)
    kc = IntervalColouring(F(3), ((frozenset({0}), iv((0, 1))),))
    out = hall_extend(g, kc, [1], [F(0), F(3, 2)])
    assert out.coverage(1) == F(3, 2)
    assert out.coverage(0) == 1
    out.validate(g)
    assert verify_certificate(g, to_weighting(out), [ONE, F(3, 2)]).ok


def test_hall_extend_clique_shape():
    # an omega-1 clique, every member with alpha at least omega-1: extendable
    g = complete_graph(4)
    kc = empty_colouring(F(4))
    out = hall_extend(g, kc, [0, 1, 2], [ONE] * 4)
    for v in range(3):
        assert out.coverage(v) == 1
    out.validate(g)
    assert verify_certificate(g, to_weighting(out), [ONE, ONE, ONE, F(0)]).ok


def test_hall_extend_erases_target_first():
    g = Graph(3, [(0, 1)])
    kc = IntervalColouring(F(2), ((frozenset({2, 0}), iv((0, 2))),))
    out = hall_extend(g, kc, [0], [ONE, F(0), F(0)])
    assert out.coverage(0) == 1
    assert out.coverage(2) == 2  # untouched prior coverage


def test_hall_extend_pigeonhole_violation():
    # two nonadjacent vertices sharing one unit of availability, demand 1 each
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    kc = IntervalColouring(
        F(2),
        ((frozenset({2}), iv((0, F(1, 2)))), (frozenset({3}), iv((F(1, 2), 1))),),
    )
    with pytest.raises(HallViolation) as err:
        hall_extend(g, kc, [0, 1], [ONE, ONE, F(0), F(0)])
    assert err.value.witness == frozenset({0, 1})


def assert_extends(g, kc, out, x, w):
    """`out` is valid, gives each v in x exactly w(v), and keeps other colours."""
    out.validate(g)
    for v in range(g.n):
        if v in x:
            assert out.coverage(v) == w[v]
        else:
            assert out.colour_of(v) == kc.colour_of(v)


@pytest.mark.parametrize(
    "target, demands, message",
    [
        ([-1], 11, r"^target vertex -1 outside 0\.\.10$"),
        ([0, 11], 11, r"^target vertex 11 outside 0\.\.10$"),
        ([0], 10, r"^expected 11 weights, got 10$"),
        ([0], 12, r"^expected 11 weights, got 12$"),
    ],
    ids=["negative-target", "target-n", "short-w", "long-w"],
)
def test_hall_extend_rejects_vertices_and_weights_off_the_graph(target, demands, message):
    # on C11^2, a target of -1 once read vertex 10's adjacency through
    # negative indexing and came back in a colour class
    g = cycle_power(11, 2)
    kc = to_intervals(chi_f(g).primal)
    with pytest.raises(ValueError, match=message):
        hall_extend(g, kc, target, [F(1, 2)] * demands)


def test_hall_extend_twenty_one_vertices():
    g, kc, w = Graph(21), empty_colouring(F(25)), [ONE] * 21
    assert_extends(g, kc, hall_extend(g, kc, range(21), w), range(21), w)


def max_deficiency_brute_force(g, kc, x, w):
    """Largest sum(w) - |union of alpha| over the nonempty subsets of x."""
    erased = IntervalColouring(kc.k, tuple((s - x, ivs) for s, ivs in kc.assignment))
    avail = {v: alpha(g, erased, v) for v in x}

    def deficiency(sub):
        union = IntervalSet(piece for v in sub for piece in avail[v].intervals)
        return sum((w[v] for v in sub), F(0)) - union.measure

    worst = max(
        deficiency(sub)
        for size in range(1, len(x) + 1)
        for sub in combinations(sorted(x), size)
    )
    return worst, deficiency


def test_hall_extend_matches_subset_brute_force():
    # chi_f colourings of small random graphs, random demands on a random
    # target: feasible exactly when no subset is deficient, and a violation
    # names a subset of largest deficiency
    rng = random.Random(41)
    outcomes = {"extended": 0, "violated": 0}
    for _ in range(120):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        kc = to_intervals(chi_f(g).primal)
        x = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        w = [F(0)] * g.n
        for v in x:
            w[v] = F(rng.randint(0, 4), rng.randint(1, 3))
        worst, deficiency = max_deficiency_brute_force(g, kc, x, w)
        try:
            out = hall_extend(g, kc, x, w)
        except HallViolation as err:
            outcomes["violated"] += 1
            assert worst > 0 and err.witness <= x
            assert deficiency(err.witness) == err.shortfall == worst
            continue
        outcomes["extended"] += 1
        assert worst <= 0
        assert_extends(g, kc, out, x, w)
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize(
    "g, den",
    [
        # the recursive slot matching this replaced overflowed the stack here
        (strong_product(cycle_graph(5), complete_graph(5)), 61),
        # and took time growing with the denominator here
        (cycle_power(11, 2), 3000),
    ],
    ids=["c5xk5-den61", "c11sq-den3000"],
)
def test_hall_extend_near_full_coverage(g, den):
    kc = to_intervals(chi_f(g).primal)
    target = sorted(clique_structure(g).max_cliques[0])
    w = [kc.coverage(v) * F(den - 1, den) for v in range(g.n)]
    assert_extends(g, kc, hall_extend(g, kc, target, w), target, w)


def test_hall_extend_postcondition_certified():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng.randint(2, 6), 0.4, rng)
        k = F(g.max_degree() + 2)
        x = sorted(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        w = [F(0)] * g.n
        for v in x:
            w[v] = F(rng.randint(1, 2), rng.randint(1, 3))
        try:
            out = hall_extend(g, empty_colouring(k), x, w)
        except HallViolation:
            continue
        out.validate(g)
        check = verify_certificate(g, to_weighting(out), w)
        assert check.ok, check.reason


def test_verify_certificate_accepts_lp_output():
    g = cycle_graph(5)
    result = chi_f(g)
    assert verify_certificate(g, result.primal, [ONE] * 5).ok


def test_verify_certificate_rejects_non_stable_column():
    g = cycle_graph(5)
    ssw = StableSetWeighting(((frozenset({0, 1}), F(5, 2)),), F(5, 2))
    check = verify_certificate(g, ssw, [ONE] * 5)
    assert not check.ok and "non-stable" in check.reason


def test_verify_certificate_rejects_undercoverage():
    g = cycle_graph(5)
    ssw = c5_optimal_weighting()
    w = [ONE] * 5
    w[3] = F(3, 2)
    check = verify_certificate(g, ssw, w)
    assert not check.ok and check.reason == "undercovered vertex 3: coverage 1 < weight 3/2"
    # coverage reduced to lowest terms, and 0 with no column at all
    thirds = StableSetWeighting(((frozenset({0, 2}), F(1, 3)), (frozenset({1, 3}), F(2, 3))), ONE)
    assert verify_certificate(g, thirds, [0, 0, F(1, 2), 0, 2]).reason == (
        "undercovered vertex 2: coverage 1/3 < weight 1/2"
    )
    assert verify_certificate(g, StableSetWeighting((), F(0)), [0, 0, 0, 0, F(1, 7)]).reason == (
        "undercovered vertex 4: coverage 0 < weight 1/7"
    )


def test_verify_certificate_rejects_total_overrun():
    g = cycle_graph(5)
    base = c5_optimal_weighting()
    ssw = StableSetWeighting(base.columns, F(2))
    check = verify_certificate(g, ssw, [F(0)] * 5)
    assert not check.ok and check.reason == "column weights sum to 5/2 > claimed total 2"


def test_verify_certificate_accepts_mixed_int_and_fraction_weights():
    g = Graph(3, [(0, 1)])
    ssw = StableSetWeighting(((frozenset({0, 2}), 1), (frozenset({1}), F(3, 2))), F(5, 2))
    assert verify_certificate(g, ssw, [1, F(3, 2), ONE]).ok
    assert verify_certificate(g, StableSetWeighting(ssw.columns, 3), [F(1, 2), 1, 1]).ok
    check = verify_certificate(g, StableSetWeighting(ssw.columns, 2), [1, 1, 1])
    assert check.reason == "column weights sum to 5/2 > claimed total 2"


def test_verify_certificate_rejects_a_total_one_unit_short():
    # two columns over distinct 1,000-digit denominators; the claimed total
    # falls short of their sum by 1/D, D the lcm of the denominators
    g = Graph(3, [(0, 1)])
    p, q = 10**999 + 7, 10**999 + 9
    a, b = F(p - 1, p), F(q - 2, q)
    ssw = StableSetWeighting(((frozenset({0, 2}), a), (frozenset({1}), b)), a + b)
    assert verify_certificate(g, ssw, [a, b, a]).ok
    short = StableSetWeighting(ssw.columns, a + b - F(1, p * q))
    check = verify_certificate(g, short, [a, b, a])
    assert check.reason == f"column weights sum to {a + b} > claimed total {a + b - F(1, p * q)}"
    check = verify_certificate(g, ssw, [a, b + F(1, p * q), a])
    assert check.reason == f"undercovered vertex 1: coverage {b} < weight {b + F(1, p * q)}"


def test_verify_certificate_rejects_non_rational_weights():
    g = Graph(3, [(0, 1)])
    column = ((frozenset({0, 2}), ONE), (frozenset({1}), ONE))
    ssw = StableSetWeighting(((frozenset({0, 2}), 0.5),), ONE)
    assert verify_certificate(g, ssw, [0, 0, 0]).reason == "column 0 has non-rational weight 0.5"
    check = verify_certificate(g, StableSetWeighting(column, 2.0), [0, 0, 0])
    assert check.reason == "claimed total 2.0 is not rational"
    check = verify_certificate(g, StableSetWeighting(column, F(2)), [1, 0.5, 1])
    assert check.reason == "weight 0.5 of vertex 1 is not rational"


def fraction_sum_check(g, ssw, w):
    """verify_certificate's sums as they were written on Fractions: the
    weight budget, then every vertex's coverage, each summed one column at a
    time.  None where both hold."""
    total = sum((wt for _, wt in ssw.columns), F(0))
    if total > ssw.total:
        return f"column weights sum to {fmt(total)} > claimed total {fmt(ssw.total)}"
    cov = [F(0)] * g.n
    for s, wt in ssw.columns:
        for v in s:
            cov[v] += wt
    for v in range(g.n):
        if cov[v] < w[v]:
            return f"undercovered vertex {v}: coverage {fmt(cov[v])} < weight {fmt(w[v])}"
    return None


_LONG = st.integers(10**999, 10**1000 - 1)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(st.integers(1, 9), min_size=1, max_size=6).flatmap(
                lambda nums: st.tuples(
                    st.just(nums),
                    st.one_of(
                        st.lists(st.sampled_from([1, 2, 3, 6, 7]), min_size=len(nums),
                                 max_size=len(nums)),
                        st.lists(_LONG, min_size=len(nums), max_size=len(nums), unique=True),
                    ),
                )
            ),
            st.integers(0, 2**16),
            st.integers(-2, 2),
            st.integers(-2, 2),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_verify_certificate_matches_fraction_sums_property(case):
    # stable columns over short or distinct 1,000-digit denominators; the
    # total and one vertex's weight sit at, just above or just below the sums,
    # whose denominators may pass str()'s 4,300 digits
    n, present, (nums, dens), picks, over, under = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [e for e, keep in zip(pairs, present) if keep])
    columns = []
    for i, (a, b) in enumerate(zip(nums, dens)):
        s = set()
        for v in range(n):
            if (picks >> ((i * n + v) % 17)) & 1 and not g.adj[v] & s:
                s.add(v)
        columns.append((frozenset(s), F(a, b)))
    ulp = F(1, lcm(*dens))
    ssw = StableSetWeighting(tuple(columns), sum((wt for _, wt in columns), F(0)) + over * ulp)
    w = [c if v else c + under * ulp for v, c in enumerate(ssw.coverage_vector(n))]
    check = verify_certificate(g, ssw, w)
    assert check.reason == fraction_sum_check(g, ssw, w)
    assert check.ok == (check.reason is None)


def test_certificate_json_round_trip():
    g = cycle_graph(5)
    ssw = c5_optimal_weighting()
    text = certificate_to_json(5, [ONE] * 5, ssw)
    cert = certificate_from_json(text)
    assert isinstance(cert, CertificateFile)
    assert cert.n == 5 and cert.k == F(5, 2)
    assert cert.weighting.columns == ssw.columns
    assert verify_certificate(g, cert.weighting, list(cert.w)).ok


_RATIONALS = st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40))


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(_RATIONALS, min_size=n, max_size=n),
            st.lists(st.tuples(st.frozensets(st.integers(0, max(n - 1, 0))), _RATIONALS)),
            _RATIONALS,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_certificate_json_round_trip_property(case):
    # the reader gives back what the writer was given; whether the columns
    # cover anything is verify_certificate's business, not the reader's
    n, w, columns, total = case
    text = certificate_to_json(n, w, StableSetWeighting(tuple(columns), total))
    cert = certificate_from_json(text)
    assert (cert.n, cert.k, cert.w) == (n, total, tuple(w))
    assert cert.weighting.columns == tuple(columns)
    assert cert.weighting.total == total


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "nonsense",
        '{"n": 2, "k": "1"}',
        '{"n": 1, "k": 1, "w": ["1"], "columns": []}',
        '{"n": 2, "k": "1/0", "w": ["0", "0"], "columns": []}',
        '{"n": 2.0, "k": "1", "w": ["0", "0"], "columns": []}',
        '{"n": 2, "k": "1", "w": ["1", "1"],'
        ' "columns": [{"vertices": [0.9, true], "weight": "1"}]}',
    ],
)
def test_certificate_json_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        certificate_from_json(text)
