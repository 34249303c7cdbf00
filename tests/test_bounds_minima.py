"""The small-integer minima scan against big-integer and reduced-curve oracles."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from itertools import pairwise
from typing import Iterable

import pytest

from kdfree.bounds import (
    DELTA_CAP,
    BoundReport,
    _falls,
    _first_argmin,
    _ytilde,
    _ytilde_k,
    main_bound,
    mu_values,
    p_curve,
)
from kdfree.errors import BoundViolation

DELTAS = list(range(6, 61)) + [100, 1000, 2000]


def _prefix_minima(terms: Iterable[tuple[int, int]]) -> tuple[dict[int, Fraction], Fraction, int]:
    """Prefix minima of unreduced positive-denominator terms, compared by
    cross-multiplying the full big integers; a Fraction is built only where
    the minimum drops."""
    mu_k: dict[int, Fraction] = {}
    best_num, best_den = 1, 0  # stands for +infinity
    for d, (num, den) in enumerate(terms):
        if num * best_den < best_num * den:
            best_num, best_den = num, den
            running = Fraction(num, den)
            argmin = d
        mu_k[d] = running
    return mu_k, running, argmin


def brute_ytilde(delta: int, mu_k, mu) -> tuple[dict[int, Fraction], Fraction]:
    """Every reduced ytilde_k and the convenience-capped min taken over all of them."""
    ytilde_k = _ytilde_k(delta, mu_k, mu)
    omega = delta - 1
    capped = min(min(ytilde_k.values()), Fraction(omega), Fraction(omega - 3) / (1 - 3 * mu))
    return ytilde_k, capped


def reduced_curve_constants(delta: int):
    """Every constant taken from the fully reduced Fraction curve, as
    main_bound derived them before its minima moved onto integer terms."""
    curve = p_curve(delta)
    mu_k: dict[int, Fraction] = {}
    running = curve[0]
    argmin = 0
    for d, value in enumerate(curve):
        if value < running:
            running = value
            argmin = d
        mu_k[d] = running
    ytilde_k, ytilde = brute_ytilde(delta, mu_k, running)
    epsilon = min(Fraction(1, 2), ytilde * running)
    return mu_k, running, argmin, ytilde_k, ytilde, epsilon, delta - epsilon


@pytest.mark.parametrize("delta", DELTAS)
def test_minima_match_reduced_curve(delta):
    mu_k, mu, argmin, ytilde_k, ytilde, epsilon, bound = reduced_curve_constants(delta)
    assert mu_values(delta) == (mu_k, mu, argmin)
    report = main_bound(delta)
    assert report.mu_k == mu_k
    assert (report.mu, report.argmin_d) == (mu, argmin)
    assert report.ytilde_k == ytilde_k
    assert (report.ytilde, report.epsilon, report.bound) == (ytilde, epsilon, bound)
    assert all(report.mu_k[d] is report.mu for d in range(argmin, delta + 1))


@pytest.mark.parametrize("delta", list(range(5, 301)) + [1000, 1500, 2000])
def test_minima_match_big_integer_prefix_minima(delta):
    assert mu_values(delta) == _prefix_minima((x.numerator, x.denominator) for x in p_curve(delta))


def test_mu_values_at_delta_5():
    # q = 0: the curve falls to 0 at d = 4 and stays there
    F = Fraction
    expected = {0: F(1, 6), 1: F(3, 20), 2: F(1, 8), 3: F(1, 12), 4: F(0), 5: F(0)}
    assert mu_values(5) == (expected, 0, 4)


@pytest.mark.parametrize("delta", range(5, 61))
def test_falls_match_pairwise_comparison_of_the_curve(delta):
    # Delta = 5 included: q = 0 there makes p(5, 4) = p(5, 5) = 0, no fall
    assert _falls(delta) == [b < a for a, b in pairwise(p_curve(delta))]


def test_every_capped_curve_falls_only_along_its_first_run():
    # the premise of the scan, on the small-integer step test alone
    for delta in range(6, DELTA_CAP + 1):
        _first_argmin(delta, _falls(delta))


@pytest.mark.parametrize(
    "falls, d",
    [([True, True, False, True], 4), ([True, False, False, False, True], 5), ([False, True], 2)],
)
def test_a_fall_after_a_rise_is_a_bound_violation(falls, d):
    with pytest.raises(BoundViolation, match=f"Delta=9, d={d}$"):
        _first_argmin(9, falls)


def test_first_argmin_ends_the_first_falling_run():
    assert _first_argmin(9, [True, True, False, False]) == 2
    assert _first_argmin(9, [False, False]) == 0
    assert _first_argmin(9, [True, True]) == 2


def test_prefix_minima_keep_the_first_argmin_on_ties():
    # unreduced terms: 2/8 ties 1/4 and 2/10 ties 1/5
    mu_k, mu, argmin = _prefix_minima([(3, 6), (1, 4), (2, 8), (1, 5), (2, 10)])
    assert mu_k == {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4), 3: mu, 4: mu}
    assert (mu, argmin) == (Fraction(1, 5), 3)


def test_report_does_not_store_the_curve():
    assert "p_curve" not in {f.name for f in dataclasses.fields(BoundReport)}


def test_report_does_not_store_ytilde_k():
    assert "ytilde_k" not in {f.name for f in dataclasses.fields(BoundReport)}
    report = main_bound(12)
    assert report.ytilde_k == _ytilde_k(12, report.mu_k, report.mu)


def test_ytilde_run_ends_match_brute_force_min():
    for delta in range(6, 301):
        mu_k, mu, _ = mu_values(delta)
        assert _ytilde(delta, mu_k, mu) == brute_ytilde(delta, mu_k, mu)[1]


def test_ytilde_run_ends_on_crafted_floors():
    # The real floors put the minimum at k = Delta-2, a run of one k.  Here
    # runs of random length take a floor m below (1 + 2 mu) / k at their
    # largest k, so every denominator is positive; in every other case m is
    # also above (1 + 2 mu) / (Delta - 1), so every run with k >= 4 rises.
    rng = random.Random(29)
    for case in range(400):
        delta = rng.randint(7, 40)
        mu = Fraction(rng.randint(1, 80), 40 * delta)
        a = 1 + 2 * mu
        low = a / (delta - 1) if case % 2 else 0
        mu_k: dict[int, Fraction] = {}
        k = 4
        while k <= delta - 2:
            run = range(k, min(k + rng.randint(1, 8), delta - 1))
            m = low + (a / run[-1] - low) * Fraction(rng.randint(1, 39), 40)
            mu_k.update((delta + 1 - j, m) for j in run)
            k = run[-1] + 1
        assert _ytilde(delta, mu_k, mu) == brute_ytilde(delta, mu_k, mu)[1]


def test_ytilde_run_ends_on_level_and_falling_runs():
    # A floor m = (1 + 2 mu) / (Delta - 1) keeps ytilde_k level along its run
    # (slope sign zero) and a floor below it makes ytilde_k fall (negative
    # sign), so the least of such a run is at its last k.  Every denominator
    # stays positive, since k <= Delta - 2.
    rng = random.Random(31)
    for _ in range(400):
        delta = rng.randint(7, 40)
        mu = Fraction(rng.randint(1, 80), 40 * delta)
        level = (1 + 2 * mu) / (delta - 1)
        mu_k: dict[int, Fraction] = {}
        k = 4
        while k <= delta - 2:
            run = range(k, min(k + rng.randint(1, 8), delta - 1))
            m = level * Fraction(rng.choice([40, rng.randint(1, 39)]), 40)
            mu_k.update((delta + 1 - j, m) for j in run)
            k = run[-1] + 1
        assert _ytilde(delta, mu_k, mu) == brute_ytilde(delta, mu_k, mu)[1]


@pytest.mark.parametrize("floor", [Fraction(3, 10), Fraction(1, 2)])
def test_nonpositive_ytilde_denominator_is_a_bound_violation(floor):
    # at k = 4 the denominator 1 + 2 mu - 4 m is 0 for m = 3/10 and < 0 for m = 1/2
    mu = Fraction(1, 10)
    mu_k = {d: floor for d in range(7)}
    with pytest.raises(BoundViolation, match="Delta=6, k=4"):
        _ytilde(6, mu_k, mu)
