"""Command-line entry point.

Subcommands: bounds (constants table CSV), chif (exact chi_f^w with
certificates), check (structure report), sample (seeded Monte Carlo CSV),
pipeline (initial colouring run), certify (independent certificate check),
gen (edge lists for the named graphs).  Exit codes: 0 success/pass, 1 check
failure, 2 input error.  Rationals print as "p/q" with a rounded decimal
companion; all CSV columns are documented in the README.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .bounds import emit_p_curve, emit_table, main_bound
from .errors import (
    BoundViolation,
    EligibilityError,
    GraphFormatError,
    HypothesisViolated,
    LpError,
)
from .graphs import (
    NAMED_GRAPHS,
    Graph,
    complete_graph,
    cycle_power,
    generalized_petersen,
    clique_structure,
    read_edge_list,
    write_edge_list,
)
from .intervals import certificate_from_json, certificate_to_json, verify_certificate
from .lp import chi_f_weighted
from .pipeline import verify_theorem_initial
from .rationals import format_rational, parse_integer, parse_rational, round_half_even
from .sampling import estimate
from .structure import NEAR_CLIQUE_PATTERNS, find_bump, find_near_clique, pipeline_eligibility


def _show(value: Fraction, places: int = 6) -> str:
    return f"{format_rational(value)} (~{round_half_even(value, places)})"


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_graph(path: str) -> Graph:
    return read_edge_list(sys.stdin.read() if path == "-" else _read_text(path))


def _integer(token: str, what: str) -> int:
    """An integer argument, read by parse_integer like the integers of an edge
    list and of a rational."""
    try:
        return parse_integer(token.strip())
    except ValueError:
        raise GraphFormatError(f"{what} takes ASCII integers without '_', got {token!r}") from None


def _read_weights(path: str | None, n: int) -> list[Fraction]:
    if path is None:
        return [Fraction(1)] * n
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    if len(lines) != n:
        raise GraphFormatError(f"weights file has {len(lines)} entries, graph has {n}")
    return [parse_rational(ln) for ln in lines]


def _refuse_stdout(args, *options: str) -> None:
    """An --emit-* option names a file: '-' would splice it into the report
    the command prints on stdout."""
    for option in options:
        if getattr(args, option) == "-":
            raise GraphFormatError(f"--{option.replace('_', '-')} takes a file path, not '-'")


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ── subcommands ───────────────────────────────────────────────────────────


def cmd_bounds(args) -> int:
    deltas = [_integer(part, "--delta") for part in args.delta.split(",")]
    if any(d < 6 for d in deltas):
        raise GraphFormatError("bounds needs Delta >= 6")
    if args.p_curve:
        if len(deltas) != 1:
            raise GraphFormatError("--p-curve expects a single Delta")
        _write_out(emit_p_curve(deltas[0]), args.out)
    else:
        _write_out(emit_table(deltas), args.out)
    return 0


def cmd_chif(args) -> int:
    _refuse_stdout(args, "emit_cert", "emit_dual")
    g = _read_graph(args.graph)
    w = _read_weights(args.weights, g.n)
    result = chi_f_weighted(g, w)
    print(f"chi_f = {_show(result.value)}")
    if args.emit_cert:
        _write_out(certificate_to_json(g.n, w, result.primal), args.emit_cert)
        print(f"certificate written to {args.emit_cert}")
    if args.emit_dual:
        body = "\n".join(format_rational(y) for y in result.dual) + "\n"
        _write_out(body, args.emit_dual)
        print(f"dual fractional-clique weights written to {args.emit_dual}")
    return 0


def cmd_check(args) -> int:
    g = _read_graph(args.graph)
    cs = clique_structure(g)
    report = pipeline_eligibility(g, cs)
    print(f"n = {g.n}, max degree = {report.delta}, omega = {report.omega}")
    for name, verdict in report.checks:
        print(f"{name}: {verdict or 'pass'}")
    bump = find_bump(g, cs)
    print(f"bump: {'none' if bump is None else bump}")
    if args.patterns:
        for pattern in NEAR_CLIQUE_PATTERNS:
            hit = find_near_clique(g, report.delta, pattern, cs)
            print(f"near-clique {pattern}: {'none' if hit is None else list(hit)}")
    print(f"eligibility: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_sample(args) -> int:
    g = _read_graph(args.graph)
    report = estimate(g, _integer(args.trials, "--trials"), _integer(args.seed, "--seed"))
    lines = ["vertex,class,empirical,paper_lower_bound,margin"]
    for v in range(g.n):
        emp = report.freq_s[v]
        low = report.paper_lower_bound[v]
        lines.append(
            f"{v},{report.vertex_class[v]},{round_half_even(emp, 6)},"
            f"{round_half_even(low, 6)},{round_half_even(emp - low, 6)}"
        )
    _write_out("\n".join(lines) + "\n", args.out)
    failed = [c for c in report.checks if not c.ok]
    if failed:
        for c in failed:
            # a floor fails only below; the two-sided pr_s_omega fails on either side
            op, sign = ("<", "-") if c.empirical < c.bound else (">", "+")
            print(
                f"check {c.name} failed at vertex {c.vertex}: {_show(c.empirical)} "
                f"{op} {_show(c.bound)} {sign} band {round_half_even(c.band, 6)}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_pipeline(args) -> int:
    _refuse_stdout(args, "emit_trace", "emit_cert")
    trials, seed = _integer(args.trials, "--trials"), _integer(args.seed, "--seed")
    g = _read_graph(args.graph)
    delta = g.max_degree()
    if delta < 6:
        raise EligibilityError(f"pipeline needs max degree >= 6, got {delta}")
    y = main_bound(delta).ytilde if args.y is None else parse_rational(args.y)
    report = verify_theorem_initial(g, y, mode=args.mode, trials=trials, seed=seed)
    trace = report.trace
    if args.y is None:
        print(f"using y = ytilde({delta}) = {_show(y)}")
    for cond in report.conditions:
        print(f"condition {cond.name}: {'pass' if cond.ok else 'FAIL ' + cond.detail}")
    print(
        f"residual Reed weight {_show(report.rho_residual)} <= "
        f"{_show(report.rho_target)}: {'pass' if report.rho_residual <= report.rho_target else 'FAIL'}"
    )
    if not trace.exact:
        print(
            f"montecarlo run ({trials} trials/iteration): the certificate of the achieved "
            "weights verifies, which alone sets the exit code; the lines above are exact diagnostics"
        )
    print(f"iterations: {len(trace.iterations)}, total weight spent: {_show(trace.y_total)}")
    if args.emit_trace:
        _write_out(json.dumps(asdict(trace), indent=1, default=format_rational), args.emit_trace)
        print(f"trace written to {args.emit_trace}")
    if args.emit_cert:
        _write_out(certificate_to_json(g.n, trace.final_w, report.weighting), args.emit_cert)
        print(f"certificate written to {args.emit_cert}")
    return 0 if report.ok or not trace.exact else 1


def cmd_certify(args) -> int:
    g = _read_graph(args.graph)
    cert = certificate_from_json(_read_text(args.cert))
    if cert.n != g.n:
        raise GraphFormatError(f"certificate is for n={cert.n}, graph has n={g.n}")
    check = verify_certificate(g, cert.weighting, list(cert.w))
    if check.ok:
        print(f"PASS: certificate covers the weights with total {_show(cert.k)}")
        return 0
    print(f"FAIL: {check.reason}")
    return 1


def _parse_params(raw: str | None) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in raw.split(",") if raw else ():
        if "=" not in part:
            raise GraphFormatError(f"bad parameter {part!r}, expected name=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in out:
            raise GraphFormatError(f"parameter {key!r} is given twice")
        out[key] = _integer(value, "--params")
    return out


def cmd_gen(args) -> int:
    families = {  # the generator and the parameters it takes, in order
        **{name: (NAMED_GRAPHS[name], ()) for name in sorted(NAMED_GRAPHS)},
        "cycle-power": (cycle_power, ("n", "k")),
        "petersen": (generalized_petersen, ("n", "k")),
        "complete": (complete_graph, ("n",)),
    }
    family = args.family.lower()
    if family == "cycle_power":
        family = "cycle-power"
    params = _parse_params(args.params)
    if family not in families:
        raise GraphFormatError(f"unknown family {family!r}; known: {', '.join(families)}")
    build, names = families[family]
    extra = [key for key in params if key not in names]
    if extra:
        takes = ", ".join(names) or "no parameters"
        raise GraphFormatError(f"{family} does not take {', '.join(extra)}; it takes {takes}")
    missing = [key for key in names if key not in params]
    if missing:
        raise GraphFormatError(f"{family} needs {', '.join(missing)}")
    _write_out(write_edge_list(build(*(params[key] for key in names))), args.out)
    return 0


# ── parser ────────────────────────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdfree",
        description="Exact fractional-colouring toolkit for K_Delta-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="constants table as CSV")
    p.add_argument("--delta", required=True, help="comma-separated Delta list, e.g. 6,7,8")
    p.add_argument("--p-curve", action="store_true", help="emit the d -> p(Delta,d) curve instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("chif", help="exact chi_f^w with certificates")
    p.add_argument("--graph", default="-", help="edge-list file, or - for stdin")
    p.add_argument("--weights", default=None, help="one rational per vertex per line")
    p.add_argument("--emit-cert", default=None)
    p.add_argument("--emit-dual", default=None)
    p.set_defaults(func=cmd_chif)

    p = sub.add_parser("check", help="structure / eligibility report")
    p.add_argument("--graph", default="-")
    p.add_argument("--patterns", action="store_true", help="also run the near-clique detectors")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="seeded Monte Carlo estimates as CSV")
    p.add_argument("--graph", default="-")
    p.add_argument("--trials", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pipeline", help="initial-colouring run")
    p.add_argument("--graph", default="-")
    p.add_argument("--y", default=None, help='weight to spend, e.g. "3/2" (default ytilde(Delta))')
    p.add_argument("--mode", choices=("exact", "montecarlo"), default="exact")
    p.add_argument("--trials", default="10000")
    p.add_argument("--seed", default="0")
    p.add_argument("--emit-trace", default=None)
    p.add_argument("--emit-cert", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("certify", help="independently verify a certificate file")
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gen", help="write an edge list for a named graph family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None, help="comma-separated name=value, e.g. n=8,k=2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    vars(args).update({k: "--" for k, v in vars(args).items() if v == []})  # argparse reads =-- as []
    try:
        return args.func(args)
    except (BoundViolation, LpError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1
    except (EligibilityError, HypothesisViolated) as exc:
        print(f"ineligible input: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
