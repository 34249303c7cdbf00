"""CLI subcommands: outputs, formats, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_a, k5_chain, medium_instance, two_k75
import kdfree.cli
from kdfree.bounds import mu_values, p_curve
from kdfree.cli import main
from kdfree.errors import GraphFormatError
from kdfree.graphs import (
    NAMED_GRAPHS,
    Graph,
    block_graph,
    clique_structure,
    complete_graph,
    cycle_power,
    read_edge_list,
    write_edge_list,
)
from kdfree.intervals import certificate_from_json
from kdfree.rationals import RATIONAL_DIGIT_LIMIT, format_rational, parse_rational
from kdfree.sampling import SamplerCheck
from kdfree.structure import (
    NEAR_CLIQUE_EXHAUSTIVE_LIMIT,
    NEAR_CLIQUE_PATTERNS,
    find_near_clique,
    pipeline_eligibility,
)


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(write_edge_list(g))
        return str(path)

    return write


def test_gen_then_chif(tmp_path, capsys):
    el = tmp_path / "g.el"
    assert main(["gen", "--family", "c5xk2", "--out", str(el)]) == 0
    assert main(["chif", "--graph", str(el)]) == 0
    out = capsys.readouterr().out
    assert "chi_f = 5 " in out


def test_gen_parametric_families(tmp_path, capsys):
    el = tmp_path / "c8.el"
    assert main(["gen", "--family", "cycle-power", "--params", "n=8,k=2", "--out", str(el)]) == 0
    assert el.read_text().splitlines()[0] == "8 16"
    assert main(["gen", "--family", "petersen", "--params", "n=5,k=2", "--out", str(el)]) == 0
    assert el.read_text().splitlines()[0] == "10 15"
    assert main(["gen", "--family", "complete", "--params", "n=4", "--out", str(el)]) == 0
    assert el.read_text().splitlines()[0] == "4 6"


def test_gen_unknown_family_is_input_error(capsys):
    assert main(["gen", "--family", "mystery"]) == 2
    assert "unknown family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, params, reason",
    [
        ("c5xk2", "n=3", "c5xk2 does not take n; it takes no parameters"),
        ("complete", "n=8,k=2", "complete does not take k; it takes n"),
        ("complete", "n=8,n=9", "parameter 'n' is given twice"),
        ("cycle-power", "n=5", "cycle-power needs k"),
        ("petersen", None, "petersen needs n, k"),
    ],
)
def test_gen_rejects_parameters_the_family_does_not_take(capsys, family, params, reason):
    extra = [] if params is None else ["--params", params]
    assert main(["gen", "--family", family, *extra]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_bounds_table(capsys):
    assert main(["bounds", "--delta", "6,7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("delta,")
    assert lines[1].split(",")[0] == "6"
    assert len(lines) == 3


def test_bounds_p_curve(capsys):
    assert main(["bounds", "--delta", "7", "--p-curve"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "d,p,p_dec" and len(lines) == 9


def test_bounds_p_curve_at_the_cap(capsys):
    # the terms near d = Delta = 2000 have about 6,600 digits, past str()'s limit
    assert main(["bounds", "--delta", "2000", "--p-curve"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "d,p,p_dec" and len(lines) == 2002
    curve = p_curve(2000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for d in (0, mu_values(2000)[2], 1500, 2000):
            row, value, _ = lines[d + 1].split(",")
            assert int(row) == d and parse_rational(value) == curve[d]
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_delta_1000_needs_no_flag(capsys):
    assert main(["bounds", "--delta", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1000,")


def test_bounds_delta_above_cap_is_input_error(capsys):
    assert main(["bounds", "--delta", "2001"]) == 2
    assert "capped at Delta <= 2000" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--p-curve"]], ids=["table", "p-curve"])
def test_bounds_refusal_names_the_limit_it_hit(extra, capsys):
    # the constants table and the p-curve share one Delta cap; the message
    # names the p-curve only when one was asked for
    assert main(["bounds", "--delta", "2001", *extra]) == 2
    err = capsys.readouterr().err
    assert "is capped at Delta <= 2000, got 2001" in err
    assert ("p-curve" in err) == bool(extra)


def test_bounds_rejects_small_delta():
    assert main(["bounds", "--delta", "5"]) == 2


@pytest.mark.parametrize("deltas", ["6,,7", "6,", ",7", ",", ""])
def test_bounds_rejects_an_empty_delta_entry(deltas, capsys):
    # an empty entry is an input error like any other bad integer, not dropped
    assert main(["bounds", "--delta", deltas]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --delta takes ASCII integers without '_', got ''\n"


def test_check_exit_codes(graph_file, capsys):
    eligible = graph_file("a.el", instance_a())
    assert main(["check", "--graph", eligible]) == 0
    assert "eligibility: pass" in capsys.readouterr().out

    assert main(["gen", "--family", "c5xk2", "--out", eligible + ".bad"]) == 0
    capsys.readouterr()
    assert main(["check", "--graph", eligible + ".bad", "--patterns"]) == 1
    assert "eligibility: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_check_patterns_prints_each_search(name, graph_file, capsys):
    g = NAMED_GRAPHS[name]()
    main(["check", "--graph", graph_file("g.el", g), "--patterns"])
    out = capsys.readouterr().out.splitlines()
    printed = [line for line in out if line.startswith("near-clique")]
    want = []
    for pattern in NEAR_CLIQUE_PATTERNS:
        hit = find_near_clique(g, g.max_degree(), pattern)
        want.append(f"near-clique {pattern}: {'none' if hit is None else list(hit)}")
    assert printed == want


def test_check_patterns_skip_past_the_exhaustive_limit(graph_file, capsys):
    # C25^3 (n = 25, ineligible) is past the near-clique search's n <= 20
    # limit: each pattern is reported as skipped, and the check still ends
    g = cycle_power(25, 3)
    assert g.n > NEAR_CLIQUE_EXHAUSTIVE_LIMIT
    assert main(["check", "--graph", graph_file("c25.el", g), "--patterns"]) == 1
    out = capsys.readouterr().out.splitlines()
    reason = f"near-clique search is exhaustive only for n <= {NEAR_CLIQUE_EXHAUSTIVE_LIMIT}"
    assert [line for line in out if line.startswith("near-clique")] == [
        f"near-clique {pattern}: skipped ({reason})" for pattern in NEAR_CLIQUE_PATTERNS
    ]
    assert len(NEAR_CLIQUE_PATTERNS) == 4
    assert out[-1] == "eligibility: FAIL"


def test_chif_certificate_cycle(graph_file, tmp_path, capsys):
    el = graph_file("a.el", instance_a())
    cert = tmp_path / "cert.json"
    dual = tmp_path / "dual.txt"
    assert main(["chif", "--graph", el, "--emit-cert", str(cert), "--emit-dual", str(dual)]) == 0
    capsys.readouterr()
    parsed = certificate_from_json(cert.read_text())
    assert parsed.n == 11
    assert len(dual.read_text().splitlines()) == 11

    assert main(["certify", "--graph", el, "--cert", str(cert)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_closes_the_files_it_reads(graph_file, tmp_path, capsys):
    el = graph_file("a.el", instance_a())
    weights = tmp_path / "w.txt"
    weights.write_text("1\n" * 11)
    cert = tmp_path / "cert.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["chif", "--graph", el, "--weights", str(weights), "--emit-cert", str(cert)]) == 0
        assert main(["certify", "--graph", el, "--cert", str(cert)]) == 0
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_chif_with_weights_file(tmp_path, capsys):
    el = tmp_path / "c5.el"
    main(["gen", "--family", "cycle-power", "--params", "n=5,k=1", "--out", str(el)])
    weights = tmp_path / "w.txt"
    weights.write_text("\n".join(["1/2"] * 5) + "\n")
    capsys.readouterr()
    assert main(["chif", "--graph", str(el), "--weights", str(weights)]) == 0
    assert "chi_f = 5/4 " in capsys.readouterr().out  # half the unweighted 5/2

    weights.write_text("1\n2\n")
    assert main(["chif", "--graph", str(el), "--weights", str(weights)]) == 2


def test_certify_rejects_tampered_certificate(graph_file, tmp_path, capsys):
    el = graph_file("a.el", instance_a())
    cert = tmp_path / "cert.json"
    main(["chif", "--graph", el, "--emit-cert", str(cert)])
    payload = json.loads(cert.read_text())
    payload["columns"][0]["vertices"] = [0, 1]  # an edge inside a block
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", "--graph", el, "--cert", str(cert)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_reads_long_rationals_up_to_the_cap(graph_file, tmp_path, capsys):
    # k raised by 1/10**5000 has a 5,001-digit denominator, past the
    # interpreter's 4,300-digit conversion limit, and still bounds the
    # columns; lowered by as much, it fails, and the FAIL line prints both
    # rationals in full; a numerator past RATIONAL_DIGIT_LIMIT digits is an
    # input error
    el = graph_file("a.el", instance_a())
    cert = tmp_path / "cert.json"
    main(["chif", "--graph", el, "--emit-cert", str(cert)])
    payload = json.loads(cert.read_text())
    k = parse_rational(payload["k"])
    for value, code in (
        (format_rational(k + Fraction(1, 10**5000)), 0),
        (format_rational(k - Fraction(1, 10**5000)), 1),
        ("9" * (RATIONAL_DIGIT_LIMIT + 1) + "/7", 2),
    ):
        payload["k"] = value
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["certify", "--graph", el, "--cert", str(cert)]) == code
        if code == 1:
            fail = f"FAIL: column weights sum to {format_rational(k)} > claimed total {value}\n"
            assert capsys.readouterr().out == fail
    err = capsys.readouterr().err
    assert "malformed certificate" in err and f"at most {RATIONAL_DIGIT_LIMIT} digits" in err


def test_certify_mismatched_graph_is_input_error(graph_file, tmp_path):
    el = graph_file("a.el", instance_a())
    cert = tmp_path / "cert.json"
    main(["chif", "--graph", el, "--emit-cert", str(cert)])
    small = graph_file("k3.el", complete_graph(3))
    assert main(["certify", "--graph", small, "--cert", str(cert)]) == 2


def test_sample_csv_and_determinism(graph_file, tmp_path, capsys):
    el = graph_file("a.el", instance_a())
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sample", "--graph", el, "--trials", "800", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["sample", "--graph", el, "--trials", "800", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    header = out1.read_text().splitlines()[0]
    assert header == "vertex,class,empirical,paper_lower_bound,margin"
    assert len(out1.read_text().splitlines()) == 12


def test_sample_failure_line_is_true_on_either_side(graph_file, monkeypatch, capsys):
    # pr_s_omega is two-sided, so it can fail above its bound; a floor fails only below
    estimate = kdfree.cli.estimate

    def failing(g, trials, seed):
        checks = (
            SamplerCheck("pr_s_omega", 0, Fraction(1, 5), Fraction(1, 2), Fraction(1, 10), False),
            SamplerCheck("pr_s_outside", 10, Fraction(1, 5), Fraction(1, 20), Fraction(1, 10), False),
        )
        return dataclasses.replace(estimate(g, trials, seed), checks=checks)

    monkeypatch.setattr(kdfree.cli, "estimate", failing)
    el = graph_file("a.el", instance_a())
    assert main(["sample", "--graph", el, "--trials", "100", "--seed", "1", "--out", "-"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "check pr_s_omega failed at vertex 0: 1/2 (~0.500000) > 1/5 (~0.200000) + band 0.100000",
        "check pr_s_outside failed at vertex 10: 1/20 (~0.050000) < 1/5 (~0.200000) - band 0.100000",
    ]


def test_pipeline_run_with_artifacts(graph_file, tmp_path, capsys):
    el = graph_file("a.el", instance_a())
    trace = tmp_path / "trace.json"
    cert = tmp_path / "cert.json"
    code = main([
        "pipeline", "--graph", el, "--y", "1/10",
        "--emit-trace", str(trace), "--emit-cert", str(cert),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "condition block_weight: pass" in out
    payload = json.loads(trace.read_text())
    assert payload["y_total"] == "1/10" and payload["exact"] is True
    parsed = certificate_from_json(cert.read_text())
    assert parsed.k == parsed.weighting.total


def test_pipeline_default_y_and_montecarlo(graph_file, capsys):
    el = graph_file("a.el", instance_a())
    assert main(["pipeline", "--graph", el]) == 0
    assert "ytilde(6)" in capsys.readouterr().out
    assert main([
        "pipeline", "--graph", el, "--mode", "montecarlo", "--trials", "300", "--seed", "2",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("condition ")] == [
        "condition block_weight: FAIL violators [0, 1, 2, 3]",
        "condition outside_floor: pass",
        "condition clique_floor: pass",
        "condition large_clique_floor: pass",
        "condition closed_nb_weight: pass",
    ]
    assert [ln for ln in lines if ln.startswith("residual Reed weight ")] == [
        "residual Reed weight 238673/61758 (~3.864649) <= 45674/10293 (~4.437385): pass"
    ]


def test_pipeline_montecarlo_stdout(graph_file, capsys):
    # the conditions and the residual bound are checked exactly at the weight
    # spent in both modes; an estimated block marginal is never exactly
    # 1/omega, so block_weight fails, and only the certificate sets the exit
    el = graph_file("m.el", medium_instance())
    assert main([
        "pipeline", "--graph", el, "--mode", "montecarlo", "--trials", "10000", "--seed", "1",
    ]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "using y = ytilde(6) = 15625/10293 (~1.518022)",
        "condition block_weight: FAIL violators [0, 1, 2, 3]",
        "condition outside_floor: pass",
        "condition clique_floor: pass",
        "condition large_clique_floor: pass",
        "condition closed_nb_weight: pass",
        "residual Reed weight 689053/164688 (~4.183990) <= 45674/10293 (~4.437385): pass",
        "montecarlo run (10000 trials/iteration): the certificate of the achieved weights "
        "verifies, which alone sets the exit code; the lines above are exact diagnostics",
        "iterations: 1, total weight spent: 15625/10293 (~1.518022)",
    ]


def test_pipeline_montecarlo_file_bytes(graph_file, tmp_path, capsys):
    # sha256 of the trace and certificate files of a seeded Monte Carlo run
    # on the medium instance
    trace, cert = tmp_path / "trace.json", tmp_path / "cert.json"
    assert main([
        "pipeline", "--graph", graph_file("m.el", medium_instance()), "--mode", "montecarlo",
        "--trials", "2000", "--seed", "3", "--emit-trace", str(trace), "--emit-cert", str(cert),
    ]) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (trace, cert)]
    assert digests == [
        "b401816cff5d549cab5fcd2ffc79bd84d41cf5b2f97c6ece620261479d962161",
        "37eb6c3bcbb9d7192e2e3f28e52c29f14b377ed0a7b934063144a844e32884fc",
    ]


def test_pipeline_exact_trace_bytes_key_steps_by_vertex(graph_file, tmp_path, capsys):
    # sha256 of the exact trace of the medium instance relabelled v -> v + 4
    # mod 19: its outside vertices become 0-3 and `active` lists them last,
    # while each step's prob and w_step are keyed by vertex, ascending
    g = medium_instance()
    shifted = Graph(g.n, [((u + 4) % g.n, (v + 4) % g.n) for u, v in g.edges()])
    trace = tmp_path / "trace.json"
    assert main(["pipeline", "--graph", graph_file("s.el", shifted), "--emit-trace", str(trace)]) == 0
    step = json.loads(trace.read_text())["iterations"][0]
    assert step["active"] == [*range(4, 19), *range(4)]
    assert list(step["prob"]) == list(step["w_step"]) == [str(v) for v in range(19)]
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "6649daf292e2faf909c6fa2057bf17b3e303160806001b8d9d12e75c07d12537"
    )


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_pipeline_montecarlo_rejects_nonpositive_trials(graph_file, capsys, trials):
    el = graph_file("a.el", instance_a())
    assert main(["pipeline", "--graph", el, "--mode", "montecarlo", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert "trials must be >= 1" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "command, option",
    [
        (["chif"], "--emit-cert"),
        (["chif"], "--emit-dual"),
        (["pipeline"], "--emit-trace"),
        (["pipeline"], "--emit-cert"),
    ],
)
def test_emit_options_refuse_stdout(graph_file, capsys, command, option):
    # an --emit-* file written to stdout would land inside the report
    el = graph_file("a.el", instance_a())
    assert main([*command, "--graph", el, option, "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {option} takes a file path, not '-'\n"


def test_pipeline_ineligible_graph(tmp_path, capsys):
    el = tmp_path / "c8.el"
    assert main(["gen", "--family", "c8sq", "--out", str(el)]) == 0
    capsys.readouterr()
    assert main(["pipeline", "--graph", str(el)]) == 1
    assert "ineligible" in capsys.readouterr().err


def test_sample_failed_hypothesis_is_ineligible(graph_file, capsys):
    # vertex 0 has a cross neighbour in each other block, so a joint choice
    # holding all four has a 4-subset graph of degree 6 > 5
    g = block_graph(4, 4, cross_edges=[(0, 4), (0, 8), (0, 12)])
    assert main(["sample", "--graph", graph_file("over.el", g), "--trials", "5", "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err == "ineligible input: induced 4-subset graph has degree 6 > 5\n"


@pytest.mark.parametrize(
    "command", [["sample"], ["pipeline", "--mode", "montecarlo"]], ids=["sample", "pipeline"]
)
def test_sampler_runs_past_fifteen_blocks(graph_file, capsys, command):
    # 18 K5 blocks: their 4-subset graphs have 72 vertices, past the n <= 60
    # cap of the exact LP that once gave the pools
    el = graph_file("chain18.el", k5_chain(18))
    assert main([*command, "--graph", el, "--trials", "100", "--seed", "1"]) == 0
    assert "capped" not in capsys.readouterr().err


def test_missing_graph_file_is_input_error(capsys):
    assert main(["chif", "--graph", "/nonexistent/g.el"]) == 2


@pytest.mark.parametrize(
    "entry, reason", [("1/0", "zero denominator"), ("1e-4000000", "exponent notation")]
)
def test_chif_rejects_bad_rational_weight(tmp_path, entry, reason, capsys):
    el = tmp_path / "k2.el"
    el.write_text(write_edge_list(complete_graph(2)))
    weights = tmp_path / "w.txt"
    weights.write_text(f"1\n{entry}\n")
    assert main(["chif", "--graph", str(el), "--weights", str(weights)]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("token", ["\u0663", "1_0"], ids=["arabic-indic-digit", "underscore"])
@pytest.mark.parametrize(
    "reader", ["edge-list", "weights", "certificate", "delta", "params", "trials", "seed"]
)
def test_readers_take_only_ascii_numbers_without_separators(
    graph_file, tmp_path, capsys, reader, token
):
    # int() and Fraction() read both tokens as numbers (3 and 10)
    el = graph_file("k2.el", complete_graph(2))
    bad = tmp_path / "bad"
    if reader in ("trials", "seed"):
        numbers = {"trials": "10", "seed": "0", reader: token}
        argv = ["sample", "--graph", graph_file("a.el", instance_a())]
        argv += ["--trials", numbers["trials"], "--seed", numbers["seed"]]
    elif reader == "delta":
        argv = ["bounds", "--delta", f"6,{token}"]
    elif reader == "params":
        argv = ["gen", "--family", "complete", "--params", f"n={token}"]
    elif reader == "edge-list":
        bad.write_text(f"{token} 1\n0 1\n")
        argv = ["chif", "--graph", str(bad)]
    elif reader == "weights":
        bad.write_text(f"1\n{token}/3\n")
        argv = ["chif", "--graph", el, "--weights", str(bad)]
    else:
        main(["chif", "--graph", el, "--emit-cert", str(bad)])
        payload = json.loads(bad.read_text())
        payload["k"] = token
        bad.write_text(json.dumps(payload))
        argv = ["certify", "--graph", el, "--cert", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ASCII" in err
    if reader not in ("edge-list", "weights", "certificate"):
        assert f"--{reader}" in err and repr(token) in err


@pytest.mark.parametrize(
    "edit",
    [
        {"k": 1},  # a JSON number where a rational string belongs
        {"columns": [{"vertices": [0.9, True], "weight": "1"}]},  # not vertex ids
    ],
    ids=["numeric-k", "non-integer-vertices"],
)
def test_certify_rejects_malformed_fields(graph_file, tmp_path, edit, capsys):
    el = graph_file("empty3.el", Graph(3))
    cert = tmp_path / "cert.json"
    main(["chif", "--graph", el, "--emit-cert", str(cert)])
    payload = json.loads(cert.read_text())
    payload.update(edit)
    payload["w"] = ["0"] * 3
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", "--graph", el, "--cert", str(cert)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 3, "k": "1", "w": "000", "columns": []},
        {"n": 3, "k": "0", "w": ["0", "0", "0"], "columns": {}},
        {"n": 3, "k": "1", "w": ["1"] * 3, "columns": [{"vertices": "", "weight": "1"}]},
        {
            "n": 3, "k": "1", "w": ["1"] * 3,
            "columns": [{"vertices": [0, 0, 1, 2], "weight": "1"}],
        },
    ],
    ids=["string-w", "object-columns", "string-vertices", "repeated-vertex"],
)
def test_certify_rejects_coerced_fields(graph_file, tmp_path, payload, capsys):
    # each of these used to be iterated or de-duplicated into a passing certificate
    el = graph_file("empty3.el", Graph(3))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    assert main(["certify", "--graph", el, "--cert", str(cert)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


def test_certify_rejects_deeply_nested_certificate(graph_file, tmp_path, capsys):
    el = graph_file("empty3.el", Graph(3))
    cert = tmp_path / "cert.json"
    cert.write_text("[" * 100_000)
    assert main(["certify", "--graph", el, "--cert", str(cert)]) == 2
    err = capsys.readouterr().err
    assert "malformed certificate" in err and "Traceback" not in err


def test_chif_over_vertex_cap_is_input_error(graph_file, capsys):
    el = graph_file("big.el", Graph(61))
    assert main(["chif", "--graph", el]) == 2
    assert "capped at n <= 60" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chif", "check", "sample", "pipeline"])
def test_edge_list_over_vertex_cap_is_input_error(tmp_path, capsys, command):
    el = tmp_path / "huge.el"
    el.write_text("100000000 0\n")
    extra = ["--trials", "1", "--seed", "0"] if command == "sample" else []
    assert main([command, "--graph", str(el), *extra]) == 2
    assert "capped at n <= 1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["sample"], ["pipeline", "--mode", "montecarlo"]], ids=["sample", "pipeline"]
)
def test_sampler_runs_on_75_vertex_blocks(graph_file, capsys, command):
    # no 4-subset is listed: each trial unranks its blocks' 4-subsets
    el = graph_file("two-k75.el", two_k75())
    assert main([*command, "--graph", el, "--trials", "2000", "--seed", "1"]) == 0
    if command == ["sample"]:
        assert len(capsys.readouterr().out.splitlines()) == 153


def test_pipeline_on_k80_is_ineligible(graph_file, capsys):
    # omega = Delta + 1, read off the structural report before any draw
    assert main(["pipeline", "--graph", graph_file("k80.el", complete_graph(80))]) == 1
    assert "omega == Delta - 1: FAIL" in capsys.readouterr().err


def test_option_value_of_two_dashes_is_input_error(graph_file, capsys):
    # argparse reads "--trials=--" as [], not "--": still an input error
    el = graph_file("a.el", instance_a())
    assert main(["sample", "--graph", el, "--trials=--", "--seed=1"]) == 2
    assert "--trials takes ASCII integers without '_', got '--'" in capsys.readouterr().err
    assert main(["sample", "--graph=--", "--trials=1", "--seed=1"]) == 2
    assert main(["bounds", "--delta=--"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_pipeline_exact_over_outside_cap_is_input_error(graph_file, capsys):
    # an eligible graph with 9 outside vertices, one past exact enumeration
    g = block_graph(3, 5, [(0, 5), (5, 10)], [[1], [6], [11], [2, 7], [3], [8], [13], [4], [9]])
    cs = clique_structure(g)
    assert pipeline_eligibility(g, cs).passed and g.n - len(cs.v_omega) == 9
    assert main(["pipeline", "--graph", graph_file("nine.el", g), "--mode", "exact"]) == 2
    assert "handles at most 8 outside vertices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, params",
    [
        ("cycle-power", "n=100000000,k=2"),
        ("complete", "n=100000"),
        ("complete", "n=1000000000000"),  # past what itertools can copy
        ("petersen", "n=501,k=2"),
    ],
)
def test_gen_over_vertex_cap_is_input_error(capsys, family, params):
    assert main(["gen", "--family", family, "--params", params]) == 2
    assert "capped at n <= 1000" in capsys.readouterr().err


# text near the edge-list format: a header and edge lines of small integers,
# some out of range, repeated or reversed
_EDGE_LIST_LIKE = st.builds(
    lambda rows: "\n".join(" ".join(map(str, row)) for row in rows),
    st.lists(st.lists(st.integers(-1, 9), min_size=1, max_size=3), max_size=12),
)


# text for a graph file: anything, number-like, or edge-list-like
_GRAPH_TEXT = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="0123456789 \n\t-+_/.e\u0663", max_size=60),
    _EDGE_LIST_LIKE,
)


def exit_code(argv: list[str]) -> int:
    """main(argv)'s exit code; fails on a traceback or a code other than 0, 1, 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


@given(_GRAPH_TEXT)
@settings(max_examples=200, deadline=None)
def test_chif_on_any_text_ends_with_an_exit_code(tmp_path_factory, text):
    # exit 0, 1 or 2, never a traceback, whatever the graph file holds
    path = tmp_path_factory.mktemp("chif") / "g.el"
    path.write_text(text, encoding="utf-8")
    exit_code(["chif", "--graph", str(path)])


@pytest.mark.parametrize(
    "command",
    [["check", "--patterns"], ["sample", "--trials", "20", "--seed", "1"], ["pipeline"]],
    ids=["check", "sample", "pipeline"],
)
@given(text=_GRAPH_TEXT)
@settings(max_examples=200, deadline=None)
def test_graph_commands_on_any_text_end_with_an_exit_code(tmp_path_factory, command, text):
    path = tmp_path_factory.mktemp(command[0]) / "g.el"
    path.write_text(text, encoding="utf-8")
    exit_code([command[0], "--graph", str(path), *command[1:]])


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _mostly(good, bad=_JSON):
    """Values of `good` about three times in four, of `bad` otherwise."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


_RATIONAL = _mostly(
    st.sampled_from(["0", "1", "1/2", "3", "2/4"]),
    st.one_of(st.sampled_from(["-1", "1/0", "x", ""]), _JSON),
)
# certificate-shaped payloads for Graph(3, [(0, 1)]): each field is mostly
# well formed, so many reach the check and pass or fail it
_CERTIFICATE_LIKE = st.fixed_dictionaries(
    {
        "n": _mostly(st.just(3), st.one_of(st.integers(-1, 4), _JSON)),
        "k": _RATIONAL,
        "w": _mostly(st.lists(_RATIONAL, min_size=3, max_size=3), st.lists(_RATIONAL, max_size=4)),
        "columns": _mostly(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "vertices": _mostly(
                            st.lists(st.integers(0, 2), max_size=2, unique=True),
                            st.one_of(st.lists(st.integers(-1, 3), max_size=3), _JSON),
                        ),
                        "weight": _RATIONAL,
                    }
                ),
                max_size=3,
            )
        ),
    }
).map(json.dumps)


@given(text=st.one_of(st.text(max_size=200), _JSON.map(json.dumps), _CERTIFICATE_LIKE))
@settings(max_examples=150, deadline=None)
def test_certify_on_any_certificate_text_ends_with_an_exit_code(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("certify")
    graph, cert = folder / "g.el", folder / "cert.json"
    graph.write_text(write_edge_list(Graph(3, [(0, 1)])))
    cert.write_text(text, encoding="utf-8")
    exit_code(["certify", "--graph", str(graph), "--cert", str(cert)])


def _int_text(lo: int, hi: int):
    """An integer in [lo, hi] as text, text with no ASCII digit in it, or a
    near miss; no example can ask for more than hi."""
    return st.one_of(
        st.integers(lo, hi).map(str),
        st.text(alphabet=st.characters(blacklist_characters="0123456789"), max_size=12),
        st.sampled_from(["", "1_0", "+3", " 4 ", "\u0663", "1e3", "0x10", "-0", "2.0"]),
    )


_RATIONAL_TEXT = st.one_of(
    st.fractions(min_value=-2, max_value=20, max_denominator=60).map(str),
    st.decimals(min_value=-2, max_value=20, places=3, allow_nan=False).map(str),
    st.text(max_size=12),
    st.sampled_from(["1/0", "1e-4000000", "nan", "inf", "3/-2", " 1/2 ", "0.5e1"]),
)


@given(text=st.one_of(st.text(max_size=60), st.lists(_RATIONAL_TEXT, max_size=4).map("\n".join)))
@settings(max_examples=150, deadline=None)
def test_chif_weights_file_ends_with_an_exit_code(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("weights")
    graph, weights = folder / "g.el", folder / "w.txt"
    graph.write_text(write_edge_list(Graph(3, [(0, 1)])))
    weights.write_text(text, encoding="utf-8")
    exit_code(["chif", "--graph", str(graph), f"--weights={weights}"])


@pytest.fixture(scope="module")
def tiny_a_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "a.el"
    path.write_text(write_edge_list(instance_a()))
    return str(path)


@given(y=_RATIONAL_TEXT, mode=st.sampled_from(["exact", "montecarlo"]))
@settings(max_examples=100, deadline=None)
def test_pipeline_y_ends_with_an_exit_code(tiny_a_file, y, mode):
    # --option=value, so that argparse hands over a value such as "-1" as it is
    exit_code(["pipeline", "--graph", tiny_a_file, f"--y={y}", "--mode", mode, "--trials", "50"])


@given(trials=_int_text(-3, 200), seed=st.one_of(_int_text(-5, 10**30), st.text(max_size=8)))
@settings(max_examples=100, deadline=None)
def test_sample_trials_and_seed_end_with_an_exit_code(tiny_a_file, trials, seed):
    exit_code(["sample", "--graph", tiny_a_file, f"--trials={trials}", f"--seed={seed}"])
    exit_code([
        "pipeline", "--graph", tiny_a_file, "--mode", "montecarlo", "--y", "1/2",
        f"--trials={trials}", f"--seed={seed}",
    ])


@given(
    token=st.one_of(
        st.text(alphabet="0123456789+-_ \t\u0663\u00b2x", max_size=8),
        st.integers(-(10**12), 10**12).map(str),
    )
)
@settings(max_examples=200, deadline=None)
def test_integer_tokens_are_read_alike(tiny_a_file, token):
    # one integer rule: `--trials`, an edge-list header's edge count and
    # parse_rational accept the same tokens (no '.' or '/' here, which make
    # a rational of a non-integer), the last two as the same integer
    try:
        want = parse_rational(token)
    except ValueError:
        want = None
    # --trials is read before --seed, so the bad seed ends every run
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["sample", "--graph", tiny_a_file, f"--trials={token}", "--seed=x"]) == 2
    assert ("--trials takes ASCII integers without '_'" in err.getvalue()) == (want is None)
    try:
        got = read_edge_list(f"1 {token}\n").num_edges()  # no edge lines follow
    except GraphFormatError as exc:
        counted = re.fullmatch(r"expected (-?\d+) edge lines, found 0", str(exc))
        got = counted and int(counted[1])
    assert got == want


@given(deltas=st.lists(_int_text(-3, 60), max_size=3).map(",".join), curve=st.booleans())
@settings(max_examples=150, deadline=None)
def test_bounds_delta_ends_with_an_exit_code(deltas, curve):
    exit_code(["bounds", f"--delta={deltas}", *(["--p-curve"] if curve else [])])


_PARAM = st.tuples(
    st.sampled_from(["n", "k", "m", " n", "n "]),
    st.one_of(_int_text(-3, 30), st.integers(1001, 10**15).map(str)),
).map("=".join)


@given(
    family=st.sampled_from(["cycle-power", "cycle_power", "petersen", "complete", "c5xk2", "nope"]),
    params=st.one_of(st.lists(_PARAM, max_size=3).map(",".join), st.text(max_size=20)),
)
@settings(max_examples=150, deadline=None)
def test_gen_params_end_with_an_exit_code(tmp_path_factory, family, params):
    # values past the vertex cap are refused before anything is built
    out = tmp_path_factory.mktemp("gen") / "g.el"
    exit_code(["gen", "--family", family, f"--params={params}", "--out", str(out)])
