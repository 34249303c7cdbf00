"""Exact evaluation of the closed-form colouring constants.

For maximum degree Delta (clique number omega = Delta - 1) the inclusion
probability floor of an outside vertex with d block neighbours is

    p(Delta, d) = [ sum_{i=0..3} 1/4 * Pr(Bin(d, 4/omega) <= i) ] / (Delta - d + 1),

its minima mu_k / mu over d, the per-clique-size step caps ytilde_k, their
minimum ytilde, and the headline quantity Delta - min(1/2, ytilde * mu).  One
integer pass over d yields each p(Delta, d) as an unreduced numerator and
denominator.  mu_k, mu and the argmin are prefix minima taken on those
integer terms by cross-multiplying, so a term becomes a Fraction only where
the running minimum drops, and main_bound derives every other constant from
those minima.  All arithmetic is exact; decimal output is rounded only for
display.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BoundViolation, SizeLimit
from .rationals import format_rational, round_half_even, truncate_decimal

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

# The p-curve's integers grow with Delta (about 22,000 bits at Delta = 2000).
# On a 2-core x86 machine main_bound takes about 0.016 s at Delta = 1000 and
# 0.09 s at Delta = 2000; emitting the whole reduced curve takes about 0.16 s
# and 1.1 s.
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


def quarter_tail_sum(d: int, omega: int) -> Fraction:
    """sum_{i=0..3} 1/4 * Pr(Bin(d, 4/omega) <= i), exactly."""
    if omega < 4:
        raise ValueError(f"needs omega >= 4, got {omega}")
    p = Fraction(4, omega)
    q = 1 - p
    pmf = [comb(d, j) * p**j * q ** (d - j) for j in range(min(d, 3) + 1)]
    total = _ZERO
    running = _ZERO
    for i in range(4):
        if i < len(pmf):
            running += pmf[i]
        total += running
    return Fraction(1, 4) * total


def p_value(delta: int, d: int) -> Fraction:
    """Inclusion probability floor p(Delta, d) for an outside vertex."""
    if delta < 5:
        raise ValueError(f"needs Delta >= 5, got {delta}")
    if not 0 <= d <= delta:
        raise ValueError(f"needs 0 <= d <= Delta, got d={d}")
    return quarter_tail_sum(d, delta - 1) / (delta - d + 1)


def _p_terms(delta: int) -> Iterator[tuple[int, int]]:
    """Unreduced (numerator, denominator) of p(Delta, d) for d = 0..Delta.

    With omega = Delta - 1 and q = omega - 4, the binomial terms share the
    denominator omega^d, so

        p(Delta, d) = sum_{j<=3} (4-j) C(d,j) 4^j q^(d-j) / (4 omega^d (Delta-d+1)),

    built from running powers of q and omega in one integer pass.  Delta is
    capped at DELTA_CAP; the checks run when iteration starts.
    """
    if delta < 5:
        raise ValueError(f"needs Delta >= 5, got {delta}")
    if delta > DELTA_CAP:
        raise SizeLimit(f"the p-curve is capped at Delta <= {DELTA_CAP}, got {delta}")
    omega = delta - 1
    q = omega - 4
    q_pow = [0, 0, 0, 1]  # q^(d-3) .. q^d; a negative power meets C(d, j) = 0
    omega_pow = 1
    for d in range(delta + 1):
        numerator = sum((4 - j) * comb(d, j) * 4**j * q_pow[3 - j] for j in range(4))
        yield numerator, 4 * omega_pow * (delta - d + 1)
        q_pow = q_pow[1:] + [q_pow[3] * q]
        omega_pow *= omega


def p_curve(delta: int) -> tuple[Fraction, ...]:
    """p(Delta, d) for d = 0..Delta: every term of the integer pass, reduced.

    mu_values and main_bound never build this tuple; they take the minima
    from the unreduced integer terms.
    """
    return tuple(Fraction(n, den) for n, den in _p_terms(delta))


def _prefix_minima(terms: Iterable[tuple[int, int]]) -> tuple[dict[int, Fraction], Fraction, int]:
    """Prefix minima of unreduced positive-denominator terms, compared by
    cross-multiplying; a Fraction is built only where the minimum drops."""
    mu_k: dict[int, Fraction] = {}
    best_num, best_den = 1, 0  # stands for +infinity
    for d, (num, den) in enumerate(terms):
        if num * best_den < best_num * den:
            best_num, best_den = num, den
            running = Fraction(num, den)
            argmin = d
        mu_k[d] = running
    return mu_k, running, argmin


def mu_values(delta: int) -> tuple[dict[int, Fraction], Fraction, int]:
    """Prefix minima mu_k of the p-curve, the overall mu, and its first argmin."""
    return _prefix_minima(_p_terms(delta))


def ytilde_values(delta: int) -> tuple[dict[int, Fraction], Fraction]:
    """Step caps ytilde_k for k in [1, Delta-2] and their convenience-capped min."""
    if delta < 6:
        raise ValueError(f"needs Delta >= 6, got {delta}")
    mu_k, mu, _ = mu_values(delta)
    return _ytilde_k(delta, mu_k, mu), _ytilde(delta, mu_k, mu)


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
    a constant sign.  So only the two ends of each run can hold the minimum.
    With mu = a/b and m = c/e,

        ytilde_k = (Delta-1-k) b e / ((b + 2a) e - k c b),

    and these candidates are compared by cross-multiplying the integers; a
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
            den = base - k * slope
            if den <= 0:
                raise BoundViolation(f"ytilde_k denominator <= 0 at Delta={delta}, k={k}")
            num = (omega - k) * scale
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
    eps_prime: Fraction
    ytilde: Fraction
    epsilon: Fraction
    bound: Fraction

    @property
    def p_curve(self) -> tuple[Fraction, ...]:
        """p(Delta, d) for d = 0..Delta, rebuilt on each read rather than stored."""
        return p_curve(self.delta)

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
        eps_prime=mu,
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
