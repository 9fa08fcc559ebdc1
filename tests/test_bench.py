"""The benchmark's self-test, so that a change to `src/` that breaks the
benchmark's output checks fails the suite, and its tracer on one closure
and one `compress`, so that a closure or a search that stops calling the
engine's layers through the module fails the suite instead of zeroing the
benchmark's layer metrics."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from bracketc import ExpansionLimits, SearchConfig

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    run = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "all cases ok" in run.stdout


def traced(call):
    """The benchmark tracer's layer metrics for `call(bc)`, where `bc` holds
    the bracketc modules as the benchmark passes them."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bc = SimpleNamespace(**{m: sys.modules[f"bracketc.{m}"] for m in (
        "engine", "syntax", "encoders", "corpus", "compress", "metrics")})
    tracer = spans.Tracer()
    tracer.install(bc)
    try:
        call(bc)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


def test_traced_closure_counts_the_layers_it_calls(addition_program):
    metrics = traced(lambda bc: bc.engine.closure(
        addition_program, ExpansionLimits(100, 100_000, 7)))
    assert metrics["engine.expand_statement.calls"] > 0
    assert metrics["engine.expand_statement.produced"] > 0
    assert metrics["engine.match_endings.probes"] > 0
    assert metrics["engine.retained_per_produced"] > 0.1


def test_traced_compress_counts_the_layers_it_calls(templated_corpus):
    # the search must close and score through the modules, or the
    # compress-search workload's layer metrics would read 0
    metrics = traced(lambda bc: bc.compress.compress(
        templated_corpus, SearchConfig(budget_chars=170)))
    assert metrics["engine.closure.calls"] > 0
    assert metrics["engine.expand_statement.produced"] > 0
    assert metrics["metrics.evaluate.calls"] > 0
