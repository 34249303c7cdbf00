"""Exact evaluation of the closed-form colouring constants.

For maximum degree Delta (clique number omega = Delta - 1) the inclusion
probability floor of an outside vertex with d block neighbours is

    p(Delta, d) = [ sum_{i=0..3} 1/4 * Pr(Bin(d, 4/omega) <= i) ] / (Delta - d + 1),

its minima mu_k / mu over d, the per-clique-size step caps ytilde_k, their
minimum ytilde, and the headline quantity Delta - min(1/2, ytilde * mu).
p_value is the one formula for p(Delta, d), behind p_curve and mu_values (see
_r).  Its terms run to thousands of bits, but the ratio of neighbouring terms
is a quotient of integers of a few dozen bits, so whether the curve falls at
each d is decided on those.  The curve falls along its first run and never
again (checked on every scan), so mu_k follows the curve down to the argmin
and is mu after it; only the terms down to the argmin become Fractions, and
main_bound derives every other constant from those minima.  All arithmetic is
exact; decimal output is rounded only for display.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import BoundViolation, SizeLimit
from .rationals import format_rational, round_half_even, truncate_decimal

_HALF = Fraction(1, 2)

# The p-curve's integers grow with Delta (about 22,000 bits at Delta = 2000),
# though main_bound reduces only the terms down to the argmin (d = 221 there).
# On a 2-core x86 machine main_bound takes about 0.005 s at Delta = 1000 and
# 0.02 s at Delta = 2000, most of it in _ytilde; emitting the whole reduced
# curve, each term from p_value, takes about 0.3 s and 2.2 s.
DELTA_CAP = 2000

# Display rules per table column, chosen to agree with as many published
# digits as a single rule per column can (the published table itself mixes
# truncation and rounding cell by cell; see matches_published).
TABLE_COLUMN_FORMAT: dict[str, tuple[str, int]] = {
    "mu": ("truncate", 6),
    "mu_times_dp1": ("round", 3),
    "ytilde": ("round", 3),
    "ytilde_mu": ("round", 5),
    "bound": ("round", 6),
}

TABLE_HEADER = ["delta", "d_argmin", "mu", "mu_times_dp1", "ytilde", "ytilde_mu", "bound"]


def format_table_value(column: str, value: Fraction) -> str:
    mode, places = TABLE_COLUMN_FORMAT[column]
    if mode == "truncate":
        return truncate_decimal(value, places)
    return round_half_even(value, places)


def matches_published(value: Fraction, printed: str) -> bool:
    """True iff `printed` is the exact value truncated or half-even rounded
    at the printed precision (the published table mixes both per cell)."""
    printed = printed.strip()
    places = len(printed.split(".")[1]) if "." in printed else 0
    want = Fraction(printed)
    return Fraction(truncate_decimal(value, places)) == want or Fraction(
        round_half_even(value, places)
    ) == want


def _r(q: int, d: int) -> int:
    """R(d): the numerator of p(Delta, d) without its factor q^(d-3).

    With omega = Delta - 1 and q = omega - 4, the binomial terms share the
    denominator omega^d, so p(Delta, d) = N(d) / (4 omega^d (Delta-d+1)) with

        N(d) = sum_{j<=3} (4-j) C(d,j) 4^j q^(d-j) = q^max(d-3, 0) R(d).

    For d >= 3, R(d) = 4q^3 + 12dq^2 + 16d(d-1)q + 64C(d,3), a cubic in d of
    a few dozen bits; for d < 3 it is N(d) itself.
    """
    if d < 3:
        return (4, 4 * q + 12, 4 * q * q + 24 * q + 32)[d]
    return 4 * q**3 + 12 * d * q * q + 16 * d * (d - 1) * q + 64 * comb(d, 3)


def p_value(delta: int, d: int) -> Fraction:
    """Inclusion probability floor p(Delta, d) for an outside vertex, the one
    formula behind p_curve and mu_values; Delta is capped at DELTA_CAP."""
    _check_delta(delta, "p(Delta, d)")
    if not 0 <= d <= delta:
        raise ValueError(f"needs 0 <= d <= Delta, got d={d}")
    q = delta - 5
    return Fraction(q ** max(d - 3, 0) * _r(q, d), 4 * (delta - 1) ** d * (delta - d + 1))


def _check_delta(delta: int, what: str) -> None:
    """Refuse a Delta below 5 or above DELTA_CAP, naming `what` was asked for."""
    if delta < 5:
        raise ValueError(f"needs Delta >= 5, got {delta}")
    if delta > DELTA_CAP:
        raise SizeLimit(f"{what} is capped at Delta <= {DELTA_CAP}, got {delta}")


def p_curve(delta: int) -> tuple[Fraction, ...]:
    """p(Delta, d) for d = 0..Delta.

    main_bound never builds this tuple; mu_values reduces only the terms
    down to the first argmin.
    """
    _check_delta(delta, "the p-curve")  # a negative Delta would give an empty range
    return tuple(p_value(delta, d) for d in range(delta + 1))


def _falls(delta: int) -> list[bool]:
    """Whether p(Delta, d) < p(Delta, d-1), for d = 1..Delta (Delta >= 5).

    N(d) / N(d-1) = q^[d>3] R(d) / R(d-1), so each verdict compares
    q^[d>3] R(d) (Delta-d+2) with omega R(d-1) (Delta-d+1): small integers,
    where the terms themselves run to about 22,000 bits.  Past d = 4,
    p(Delta, d-1) and p(Delta, d) both carry a factor q, so both sides are
    multiplied by q there: a positive factor leaves the verdict unchanged,
    and at Delta = 5 (q = 0), where p(5, 4) = p(5, 5) = 0, both sides vanish
    and that step reads as no fall.
    """
    _check_delta(delta, "the main bound")
    omega, q = delta - 1, delta - 5
    r = [_r(q, d) for d in range(delta + 1)]
    return [
        q ** ((d > 3) + (d > 4)) * r[d] * (delta - d + 2)
        < q ** (d > 4) * omega * r[d - 1] * (delta - d + 1)
        for d in range(1, delta + 1)
    ]


def _first_argmin(delta: int, falls: Iterable[bool]) -> int:
    """The end of the curve's first falling run, from the step verdicts
    falls[d-1] = p(d) < p(d-1).  The running minimum drops exactly along that
    run only if the curve never falls again, so a later fall raises."""
    argmin = 0
    for d, fall in enumerate(falls, 1):
        if fall:
            if argmin < d - 1:
                raise BoundViolation(
                    f"the p-curve falls again past its first falling run at Delta={delta}, d={d}"
                )
            argmin = d
    return argmin


def mu_values(delta: int) -> tuple[dict[int, Fraction], Fraction, int]:
    """Prefix minima mu_k of the p-curve, the overall mu, and its first argmin.

    mu_k follows the curve down its first falling run to the argmin and is
    the one mu object after it, so only the terms down to the argmin are
    reduced.
    """
    argmin = _first_argmin(delta, _falls(delta))
    mu_k = {d: p_value(delta, d) for d in range(argmin + 1)}
    mu_k.update(dict.fromkeys(range(argmin + 1, delta + 1), mu_k[argmin]))
    return mu_k, mu_k[argmin], argmin


def _step_mu(delta: int, mu_k: Mapping[int, Fraction], mu: Fraction, k: int) -> Fraction:
    """The floor m in ytilde_k: mu for k <= 3, mu_k[Delta+1-k] for k >= 4."""
    return mu if k <= 3 else mu_k[delta + 1 - k]


def _ytilde_k(
    delta: int, mu_k: Mapping[int, Fraction], mu: Fraction
) -> dict[int, Fraction]:
    """ytilde_k = (Delta-1-k) / (1 + 2 mu - k m) for k in [1, Delta-2], reduced."""
    return {
        k: Fraction(delta - 1 - k) / (1 + 2 * mu - k * _step_mu(delta, mu_k, mu, k))
        for k in range(1, delta - 1)
    }


def _ytilde(delta: int, mu_k: Mapping[int, Fraction], mu: Fraction) -> Fraction:
    """min(min_k ytilde_k, omega, (omega-3)/(1-3 mu)), without the per-k values.

    On a run of consecutive k sharing one floor m, the denominator
    1 + 2 mu - k m of ytilde_k is linear in k, so it is positive on the whole
    run once it is positive at both ends; and there ytilde_k is monotone in
    k, since its derivative (m (Delta-1) - 1 - 2 mu) / (1 + 2 mu - k m)^2 has
    a constant sign.  With mu = a/b and m = c/e,

        ytilde_k = (Delta-1-k) b e / ((b + 2a) e - k c b),

    and the sign of c b (Delta-1) - (b + 2a) e picks the run's least: its
    first k if ytilde_k rises or stays level, its last if it falls.  One
    candidate per run is compared by cross-multiplying the integers; a
    Fraction is built only for the least.  A nonpositive denominator at a
    run end raises BoundViolation.
    """
    omega = delta - 1
    a, b = mu.numerator, mu.denominator
    best_num, best_den = 1, 0  # stands for +infinity
    runs = groupby(range(1, delta - 1), key=lambda k: _step_mu(delta, mu_k, mu, k))
    for m, run in runs:
        ks = list(run)
        c, e = m.numerator, m.denominator
        scale, base, slope = b * e, (b + 2 * a) * e, c * b
        for k in (ks[0], ks[-1]):
            if base - k * slope <= 0:
                raise BoundViolation(f"ytilde_k denominator <= 0 at Delta={delta}, k={k}")
        k = ks[0] if slope * omega >= base else ks[-1]
        num, den = (omega - k) * scale, base - k * slope
        if num * best_den < best_num * den:
            best_num, best_den = num, den
    return min(Fraction(best_num, best_den), Fraction(omega), Fraction(omega - 3) / (1 - 3 * mu))


@dataclass(frozen=True)
class BoundReport:
    """Every constant behind the Delta - min(1/2, ytilde*mu) bound for one Delta."""

    delta: int
    omega: int
    mu_k: Mapping[int, Fraction]
    mu: Fraction
    argmin_d: int
    ytilde: Fraction
    epsilon: Fraction
    bound: Fraction

    @property
    def ytilde_k(self) -> dict[int, Fraction]:
        """ytilde_k for k in [1, Delta-2], rebuilt on each read rather than stored."""
        return _ytilde_k(self.delta, self.mu_k, self.mu)


def main_bound(delta: int) -> BoundReport:
    """Assemble the full report; also checks ytilde*mu < 1/5 for this Delta."""
    if delta < 6:
        raise ValueError(f"needs Delta >= 6, got {delta}")
    mu_k, mu, argmin = mu_values(delta)
    ytilde = _ytilde(delta, mu_k, mu)
    product = ytilde * mu
    if not product < Fraction(1, 5):
        raise BoundViolation(f"ytilde*mu = {product} >= 1/5 at Delta={delta}")
    epsilon = min(_HALF, product)
    return BoundReport(
        delta=delta,
        omega=delta - 1,
        mu_k=mu_k,
        mu=mu,
        argmin_d=argmin,
        ytilde=ytilde,
        epsilon=epsilon,
        bound=delta - epsilon,
    )


# ── CSV emitters ──────────────────────────────────────────────────────────


def table_rows(deltas: Sequence[int]) -> list[dict[str, str]]:
    """One display row per Delta: exact "p/q" cells plus decimal companions."""
    rows = []
    for delta in deltas:
        report = main_bound(delta)
        exact = {
            "mu": report.mu,
            "mu_times_dp1": report.mu * (delta + 1),
            "ytilde": report.ytilde,
            "ytilde_mu": report.ytilde * report.mu,
            "bound": report.bound,
        }
        row = {"delta": str(delta), "d_argmin": str(report.argmin_d)}
        for name, value in exact.items():
            row[name] = format_rational(value)
        for name, value in exact.items():
            row[name + "_dec"] = format_table_value(name, value)
        rows.append(row)
    return rows


def emit_table(deltas: Sequence[int]) -> str:
    header = TABLE_HEADER + [c + "_dec" for c in TABLE_HEADER[2:]]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in table_rows(deltas):
        writer.writerow(row)
    return buf.getvalue()


def emit_p_curve(delta: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "p", "p_dec"])
    for d, value in enumerate(p_curve(delta)):
        writer.writerow([d, format_rational(value), round_half_even(value, 6)])
    return buf.getvalue()
