"""The traced benchmark (bench/spans.py) wraps kdfree functions and
StableSetSampler methods by name: a removed or renamed one fails here."""

from __future__ import annotations

import sys
from pathlib import Path

import kdfree.lp as lp
from kdfree.sampling import StableSetSampler

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings() -> dict:
    modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.split(".")[0] == "kdfree"}
    return {"modules": modules, "sampler": dict(vars(StableSetSampler))}


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.installed
        assert lp.chi_f is not before["modules"]["kdfree.lp"]["chi_f"]
    finally:
        tracer.uninstall()
    assert _bindings() == before
