"""Closed-form constants: p-curve, mu, ytilde, table emission."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import quarter_tail_sum
from kdfree.bounds import (
    DELTA_CAP,
    emit_p_curve,
    emit_table,
    format_table_value,
    main_bound,
    matches_published,
    mu_values,
    p_curve,
    p_value,
    table_rows,
)
from kdfree.errors import SizeLimit
from kdfree.rationals import round_half_even, truncate_decimal

F = Fraction

# (mu, mu*(Delta+1), argmin d, ytilde, ytilde*mu) as printed in the source table
PUBLISHED = {
    6: ("0.029376", "0.205", 6, "1.518", "0.04459"),
    7: ("0.054869", "0.439", 6, "1.640", "0.08999"),
    8: ("0.062947", "0.567", 7, "1.804", "0.11353"),
    9: ("0.066406", "0.664", 7, "1.969", "0.13077"),
    10: ("0.066328", "0.730", 8, "2.146", "0.14234"),
    100: ("0.009843", "0.994", 29, "20.003", "0.19691"),
}


def test_p_at_zero_is_reciprocal():
    for delta in range(5, 40):
        assert p_value(delta, 0) == F(1, delta + 1)


def test_p_curve_rewritten_form():
    # p(D,d) * (D-d+1) * 4 == sum_i (4-i) Pr(Bin(d, 4/omega) = i)
    for delta in (5, 6, 9, 12):
        omega = delta - 1
        p = F(4, omega)
        for d in range(delta + 1):
            from math import comb

            rhs = sum(
                (4 - i) * comb(d, i) * p**i * (1 - p) ** (d - i)
                for i in range(min(d, 3) + 1)
            )
            assert p_value(delta, d) * (delta - d + 1) * 4 == rhs


def test_p_curve_equals_quarter_tail_form():
    for delta in range(5, 61):
        curve = p_curve(delta)
        assert len(curve) == delta + 1
        for d, value in enumerate(curve):
            assert value == p_value(delta, d) == quarter_tail_sum(d, delta - 1) / (delta - d + 1)
    curve = p_curve(1000)
    rng = random.Random(1000)
    for d in [0, 1, 2, 3, 4, 1000] + rng.sample(range(5, 1000), 8):
        assert curve[d] == p_value(1000, d) == quarter_tail_sum(d, 999) / (1001 - d)


def test_p_value_range_checks():
    with pytest.raises(ValueError, match=r"^needs Delta >= 5, got 4$"):
        p_value(4, 0)
    with pytest.raises(ValueError):
        p_value(6, 7)
    with pytest.raises(ValueError):
        p_curve(4)
    with pytest.raises(ValueError):
        p_curve(-1)


def test_p_curve_rejects_delta_above_cap():
    with pytest.raises(SizeLimit, match=f"Delta <= {DELTA_CAP}"):
        p_curve(DELTA_CAP + 1)
    with pytest.raises(SizeLimit, match=f"Delta <= {DELTA_CAP}, got {DELTA_CAP + 1}$"):
        p_value(DELTA_CAP + 1, 0)
    with pytest.raises(SizeLimit):
        main_bound(10**6)


def test_mu6_exact_and_argmin():
    mu_k, mu, argmin = mu_values(6)
    assert mu == F(459, 15625)  # = 0.029376 exactly
    assert argmin == 6
    assert mu_k[6] == mu


def test_mu_k_monotone_and_converges():
    for delta in (6, 7, 8, 9, 10):
        mu_k, mu, argmin = mu_values(delta)
        values = [mu_k[k] for k in range(delta + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert mu_k[delta] == mu
        assert all(mu_k[k] == mu for k in range(argmin, delta + 1))
        assert mu <= p_value(delta, 0)


def test_p73_against_binomial_simulation():
    rng = random.Random(101)
    trials = 40000
    sums = 0.0
    for _ in range(trials):
        hits = sum(1 for _ in range(3) if rng.random() < 2 / 3)
        sums += sum(0.25 for i in range(4) if hits <= i)
    estimate = sums / trials / (7 - 3 + 1)
    assert abs(estimate - float(p_value(7, 3))) <= 3 * 0.5 / trials**0.5


def test_ytilde_defining_inequality_is_tight():
    half = F(1, 2)
    for delta in (6, 7, 9, 11):
        mu_k, mu, _ = mu_values(delta)
        for k, yk in main_bound(delta).ytilde_k.items():
            rate = half * k * (mu if k <= 3 else mu_k[delta + 1 - k])
            lhs = (1 + mu) * yk
            rhs = half * (delta - 1 - k) + (half + rate) * yk
            assert lhs == rhs
            bigger = yk + F(1, 1000)
            assert (1 + mu) * bigger > half * (delta - 1 - k) + (half + rate) * bigger


def test_ytilde_takes_convenience_caps():
    for delta in (6, 7, 8, 9, 10, 20):
        report = main_bound(delta)
        ytilde_k, mu, omega = report.ytilde_k, report.mu, report.omega
        assert report.ytilde == min(
            min(ytilde_k.values()), F(omega), F(omega - 3) / (1 - 3 * mu)
        )
        assert set(ytilde_k) == set(range(1, delta - 1))


def test_published_table_values():
    for delta, (mu_s, mudp1_s, d_s, yt_s, ytmu_s) in PUBLISHED.items():
        report = main_bound(delta)
        assert report.argmin_d == d_s
        assert matches_published(report.mu, mu_s)
        assert matches_published(report.mu * (delta + 1), mudp1_s)
        assert matches_published(report.ytilde, yt_s)
        assert matches_published(report.ytilde * report.mu, ytmu_s)


def test_epsilon_values():
    assert round_half_even(main_bound(6).epsilon, 5) == "0.04459"
    assert round_half_even(main_bound(9).epsilon, 5) == "0.13077"
    assert round_half_even(main_bound(10).epsilon, 5) == "0.14234"


def test_epsilon7_consistent_with_headline_row():
    # the Delta=7 lower bound beats the advertised 1/11.2
    epsilon = main_bound(7).epsilon
    assert epsilon > F(5, 56)
    assert truncate_decimal(epsilon, 4) == "0.0899"


def test_product_below_one_fifth():
    for delta in list(range(6, 16)) + [20, 50, 100]:
        report = main_bound(delta)
        assert report.ytilde * report.mu < F(1, 5)
        assert report.epsilon == report.ytilde * report.mu
        assert report.bound == delta - report.epsilon


def test_report_internal_consistency():
    report = main_bound(8)
    assert report.omega == 7
    curve = p_curve(report.delta)
    assert curve[report.argmin_d] == report.mu
    assert min(curve) == report.mu


def test_emit_table_runs_and_matches_rows():
    text = emit_table([6, 7])
    lines = text.strip().splitlines()
    assert lines[0].startswith("delta,d_argmin,mu,mu_times_dp1,ytilde,ytilde_mu,bound")
    rows = table_rows([6, 7])
    assert lines[1].split(",")[0] == "6" and rows[0]["mu"] == "459/15625"
    assert rows[0]["mu_dec"] == "0.029376"
    assert rows[1]["ytilde_mu_dec"] == "0.08999"


def test_emit_p_curve_shapes():
    lines = emit_p_curve(7).strip().splitlines()
    assert lines[0] == "d,p,p_dec"
    values = [F(line.split(",")[1]) for line in lines[1:]]
    assert values.index(min(values)) == 6 == main_bound(7).argmin_d

    curve = p_curve(50)
    argmin = curve.index(min(curve))
    assert 0 < argmin < 50
    assert all(a >= b for a, b in zip(curve[: argmin + 1], curve[1 : argmin + 1]))
    assert all(a <= b for a, b in zip(curve[argmin:], curve[argmin + 1 :]))


def test_format_table_value_rules():
    assert format_table_value("mu", F(40, 729)) == "0.054869"  # truncated
    assert format_table_value("ytilde_mu", F(899887, 10**7)) == "0.08999"
