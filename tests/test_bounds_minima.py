"""The integer prefix-minima pass against the reduced-curve derivation."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from kdfree.bounds import (
    BoundReport,
    _prefix_minima,
    _ytilde,
    main_bound,
    mu_values,
    p_curve,
)

DELTAS = list(range(6, 61)) + [100, 1000, 2000]


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
    ytilde_k, ytilde = _ytilde(delta, mu_k, running)
    epsilon = min(Fraction(1, 2), ytilde * running)
    return curve, mu_k, running, argmin, ytilde_k, ytilde, epsilon, delta - epsilon


@pytest.mark.parametrize("delta", DELTAS)
def test_minima_match_reduced_curve(delta):
    curve, mu_k, mu, argmin, ytilde_k, ytilde, epsilon, bound = reduced_curve_constants(delta)
    assert mu_values(delta) == (mu_k, mu, argmin)
    report = main_bound(delta)
    assert report.mu_k == mu_k
    assert (report.mu, report.eps_prime, report.argmin_d) == (mu, mu, argmin)
    assert report.ytilde_k == ytilde_k
    assert (report.ytilde, report.epsilon, report.bound) == (ytilde, epsilon, bound)
    assert all(report.mu_k[d] is report.mu for d in range(argmin, delta + 1))
    assert report.p_curve == curve


def test_prefix_minima_keep_the_first_argmin_on_ties():
    # unreduced terms: 2/8 ties 1/4 and 2/10 ties 1/5
    mu_k, mu, argmin = _prefix_minima([(3, 6), (1, 4), (2, 8), (1, 5), (2, 10)])
    assert mu_k == {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4), 3: mu, 4: mu}
    assert (mu, argmin) == (Fraction(1, 5), 3)


def test_report_does_not_store_the_curve():
    assert "p_curve" not in {f.name for f in dataclasses.fields(BoundReport)}
