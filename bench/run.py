"""Run one kdfree benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload chif --seed 1 --seconds 10 --trace 0

Run from the repository root; kdfree is imported from `src/`.  With
`--trace 0` the last line of standard output carries the end-to-end metrics,
with `--trace 1` the per-layer metrics.  Progress and any problems found by
the checks go to standard error.  The exit code is 0 when every output
checked correct, 1 when a check failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACE_DIR = os.path.join(HERE, "traces")

# setup_s is the median of IMPORT_REPEATS imports of kdfree plus the median
# of SETUP_REPEATS builds of the workload's inputs.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3


class Timing(NamedTuple):
    op: object
    seconds: float
    result: object
    error: Exception | None


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def run_round(ops, refs, tracer=None) -> list[Timing]:
    """Time every operation once.

    The reference computation (speed.py) runs right before and right after
    each regular operation, for a share of its time; its run times are
    appended to `refs`.  With a tracer, kdfree is traced for the round,
    except for the known-fault operations (sorted last), which run after it
    is uninstalled so that their spans do not swamp the layer figures.
    """
    out = []
    if tracer is not None:
        tracer.install()
        root = tracer.open("round")
    for op in ops:
        if op.fault and tracer is not None and tracer.installed:
            tracer.close(root)
            tracer.uninstall()
        if not op.fault:
            refs += speed.gauge(speed.SHARE * op.last_s)
        span = tracer.open("op") if tracer is not None and tracer.installed else None
        start = perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, exc
        seconds = perf_counter() - start
        if span is not None:
            tracer.close(span)
        op.last_s = seconds
        if not op.fault:
            refs += speed.gauge(speed.SHARE * seconds)
        out.append(Timing(op, seconds, result, error))
    if tracer is not None and tracer.installed:
        tracer.close(root)
        tracer.uninstall()
    return out


def check_round(results: list[Timing]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one round's outputs."""
    failed = 0
    problems = []
    for t in results:
        if t.error is not None:
            failed += 1
            if t.op.fault and not isinstance(t.error, RecursionError):
                problems.append(f"{t.op.label}: expected RecursionError, got {t.error!r}")
            elif not t.op.fault:
                log(f"FAILED {t.op.label}: {t.error!r}")
            continue
        problems += [f"{t.op.label}: {p}" for p in t.op.check(t.result)]
    return len(results), failed, problems


def figures(results: list[Timing]) -> dict[str, float]:
    """Each operation's median time over every pass in `results`, summed.

    round_s is one pass over the workload's regular operations; part figures
    split it (or give trials/s); the known faults are timed apart and counted
    in no other figure.
    """
    times: dict[int, list[float]] = {}
    ops = {}
    for t in results:
        times.setdefault(id(t.op), []).append(t.seconds)
        ops[id(t.op)] = t.op
    medians = {key: statistics.median(ts) for key, ts in times.items()}
    regular = [t for key, t in medians.items() if not ops[key].fault]
    out = {"round_s": sum(regular)}
    trials: dict[str, int] = {}
    for key, t in medians.items():
        part = ops[key].part
        out[part] = out.get(part, 0.0) + t
        trials[part] = trials.get(part, 0) + ops[key].trials
    for part, n in trials.items():
        if n:
            out[part + "_trials_per_s"] = n / out.pop(part)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kdfree", "__init__.py")):
        log(f"kdfree sources not found under {SRC}; run from a full checkout")
        return 2

    sys.path.insert(0, SRC)
    imports = []
    for _ in range(IMPORT_REPEATS):  # each a full import of the package
        for name in [m for m in sys.modules if m == "kdfree" or m.startswith("kdfree.")]:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("kdfree")
        imports.append(perf_counter() - start)

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None

    setups = []
    for repeat in range(SETUP_REPEATS):
        traced = tracer is not None and repeat == SETUP_REPEATS - 1
        if traced:
            tracer.install()
            setup_root = tracer.open("round")
        t0 = perf_counter()
        ops = workload.setup(args.seed)
        setups.append(perf_counter() - t0)
        if traced:
            tracer.close(setup_root)
            tracer.uninstall()
    setup_spans = len(tracer.names) if tracer else 0
    # One round: the regular operations `passes` times, then each known fault once.
    regular = [op for op in ops if not op.fault]
    round_ops = regular * workload.passes + [op for op in ops if op.fault]

    attempted = failed = 0
    problems: list[str] = []
    plain, traced_results, traced_rounds = [], [], []
    refs: list[float] = []
    peak_rss_mb = None
    begin = perf_counter()
    while True:
        results = run_round(round_ops, refs)
        if peak_rss_mb is None:  # before any checking code has run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            import selftest

            problems += [f"self-test: {p}" for p in selftest.run()]
        plain += results
        batches = [results]
        if tracer is not None:
            first = len(tracer.names)
            batches.append(run_round(round_ops, [], tracer))
            traced_rounds.append((first, len(tracer.names)))
            traced_results += batches[-1]
        for batch in batches:
            a, f, p = check_round(batch)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        log(f"round done at {perf_counter() - begin:.1f}s")
        if perf_counter() - begin >= args.seconds:
            break

    for p in problems:
        log("PROBLEM", p)
    untraced = figures(plain)
    log(f"one pass {untraced['round_s']:.3f} s as measured; reference {statistics.mean(refs):.4f} s")
    if tracer is None:
        scale = speed.NOMINAL_S / statistics.mean(refs)  # to the reference speed
        metrics = {
            "setup_s": ((statistics.median(imports) + statistics.median(setups)) * scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (untraced["round_s"] * scale, "s"),
        }
    else:
        passes = len(traced_rounds) * workload.passes
        metrics = layer_metrics(
            tracer, setup_spans, traced_rounds, passes,
            untraced, figures(traced_results),
        )
        metrics["speed.reference_s"] = (statistics.mean(refs), "s")
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(
            os.path.join(TRACE_DIR, f"{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed, "passes": passes,
             "self_s": tracer.self_times(setup_spans, len(tracer.names))},
        )
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if not problems else 1


def layer_metrics(tracer, setup_spans, traced_rounds, passes, untraced, traced):
    """Per-layer figures as measured (not scaled), per pass over the regular
    operations; part figures and the untraced round come from the untraced
    rounds of the same run."""
    import workloads

    first, last = traced_rounds[0][0], traced_rounds[-1][1]
    per_layer = tracer.layer_metrics(first, last, passes)
    setup = tracer.layer_metrics(0, setup_spans, 1)
    # samplers built in the set-up and the untraced rounds are not in the list
    cached = sum(len(getattr(s, "_pools", ())) for s in tracer.samplers) / passes
    m = {}
    for part in workloads.PART_TIMES:
        m[part] = (untraced.get(part, 0.0), "s")
    for part in workloads.PART_RATES:
        key = part + "_trials_per_s"
        m[key] = (untraced.get(key, 0.0), "trials/s")
    m["setup.clique_structure_s"] = (setup["graphs.clique_structure_s"], "s")
    m["setup.clique_structure_calls"] = (setup["graphs.clique_structure_calls"], "count")
    for key, value in per_layer.items():
        m[key] = (value, unit_of(key))
    m["sampling.cached_pools"] = (cached, "count")
    m["trace.untraced_round_s"] = (untraced["round_s"], "s")
    m["trace.traced_round_s"] = (traced["round_s"], "s")
    m["trace.overhead_s"] = (traced["round_s"] - untraced["round_s"], "s")
    m["trace.glue_s"] = (traced["round_s"] - per_layer["trace.layer_self_s"], "s")
    return m


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
