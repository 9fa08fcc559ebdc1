"""The bracketc benchmark.

    python3 bench/run.py                     # every workload, one process each
    python3 bench/run.py --trace 1           # the traced run: per-layer metrics
    python3 bench/run.py --repeat 10         # ten seeds per workload: medians, quartiles
    python3 bench/run.py --workload closure-fanout --seed 3 --trace 0

With --workload, the workload runs in this process: whole passes for the
run_seconds of BENCHMARK.json, each of which sets the workload up and calls
every operation once, each call checked.  --seconds may be given, as the
benchmark's calling convention does, but must equal run_seconds, so that
every run measures for the same time.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end-to-end
ones named in BENCHMARK.json, or with --trace 1 the per-layer ones.
Full results go to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from checks import CheckFailed
from reference import naive_closure
from spans import Tracer
from workloads import WORKLOADS, addition_text, vocabulary

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_PASSES = 5
# Calibration: the naive evaluator on a fixed addition program.  Times are
# scaled to the speed at which it takes CALIBRATION_REF_S: the median of 150
# back-to-back calibrations on the reference host of README.md.
CALIBRATION_PROGRAM = addition_text(vocabulary(random.Random(0), 6), 5).splitlines()
CALIBRATION_REF_S = 0.033
# Units of the figures only the report and the results file carry.  The
# metrics BENCHMARK.json declares take their units from it, layers from the
# tracer.
REPORT_UNITS = {
    "closure_s": "s", "sample_s": "s", "compress_s": "s", "frontier_s": "s",
    "compress_objective": "objective", "measured calibration_s": "s",
    "measured setup_s": "s", "measured pass_s": "s",
}
CHILD_TIMEOUT_S = 600


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_bracketc() -> SimpleNamespace:
    """A fresh import of bracketc from this checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "bracketc" / "__init__.py").is_file():
        sys.exit(f"bench: no bracketc package in {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "bracketc"]:
        del sys.modules[name]
    package = importlib.import_module("bracketc")
    if not Path(package.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: bracketc was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: sys.modules[f"bracketc.{m}"] for m in (
        "engine", "syntax", "encoders", "corpus", "compress", "metrics")})


class Tally:
    """Operations attempted and failed; a failed check also makes the run
    incorrect, a call that raised does not."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def fail(self, op, reason: str, wrong_output: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong_output
        if len(self.errors) < 20:
            self.errors.append(f"{op.name}: {reason}")


def calibrate() -> float:
    """Seconds for one fixed computation in the benchmark's own code."""
    t0 = perf_counter()
    naive_closure(CALIBRATION_PROGRAM, 100, 7)
    return perf_counter() - t0


def scale(seconds: float, calibration: float) -> float:
    """`seconds` measured while the calibration took `calibration`, as
    seconds at the reference speed."""
    return seconds * CALIBRATION_REF_S / calibration


def run_pass(ops, tally: Tally, tracer: Tracer | None) -> dict:
    """One call of every operation, each checked, with a calibration before
    the first call and after each call.  Returns the calibrations, each
    call's seconds as measured and scaled by the mean of the calibrations
    on either side of it, and values the outputs report.  A call that
    raised is timed up to the exception; every value a call returns is
    checked, so a call that returns None fails its check."""
    calibrations = [calibrate()]
    raw: dict[str, float] = {}
    scaled: dict[str, float] = {}
    values = {}
    for op in ops:
        tally.attempted += 1
        raised = False
        t0 = perf_counter()
        try:
            with tracer.span(f"bench.{op.kind}") if tracer else nullcontext():
                out = op.call()
        except Exception as exc:  # a failing call is counted, the run goes on
            raised = True
            error = f"{type(exc).__name__}: {exc}"
        raw[op.name] = perf_counter() - t0
        if raised:
            tally.fail(op, error, wrong_output=False)
        else:
            try:
                op.check(out)
                if op.kind == "compress":
                    values["compress_objective"] = out.objective
            except CheckFailed as exc:
                tally.fail(op, str(exc), wrong_output=True)
            except Exception as exc:  # an output the check cannot even read
                tally.fail(op, f"check raised {type(exc).__name__}: {exc}",
                           wrong_output=True)
            del out  # so that the calibration runs without it in memory
        calibrations.append(calibrate())
        scaled[op.name] = scale(raw[op.name], (calibrations[-2] + calibrations[-1]) / 2)
    return {"calibrations": calibrations, "raw": raw, "scaled": scaled, "values": values}


def median_of(rows: list[dict]) -> dict[str, float]:
    """Each key's median over the rows that hold it."""
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row[k] for row in rows if k in row) for k in keys}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole passes for `seconds`, at least SETUP_PASSES.  Each pass sets the
    workload up (inputs, parsing, encoding) and then calls every operation
    once, so set-up and call times are sampled across the whole run.  The
    first SETUP_PASSES passes also import bracketc afresh as part of their
    set-up.  Peak memory is read after them: each import leaves some memory
    behind, and later passes raise the peak by a megabyte now and then as
    the heap fragments, so a fixed number of passes keeps it independent of
    the run's length.  In a traced run, traced and untraced passes
    alternate."""
    build = WORKLOADS[name]
    tracer = Tracer() if trace else None
    tally = Tally()
    setups_raw, setups, plain, traced, layer_rows = [], [], [], [], []
    spans_file = None
    start, longest = perf_counter(), 0.0
    while len(plain) + len(traced) < SETUP_PASSES or \
            perf_counter() - start + longest <= seconds:
        use = tracer if tracer and len(plain) > len(traced) else None
        t0 = perf_counter()
        fresh = len(plain) + len(traced) < SETUP_PASSES
        if fresh:
            bc = import_bracketc()
        if use:
            use.install(bc)
        try:
            with use.span("bench.setup") if use else nullcontext():
                ops = build(bc, seed)
            setup = perf_counter() - t0
            done = run_pass(ops, tally, use)
        finally:
            if use:
                use.uninstall()
        longest = max(longest, perf_counter() - t0)
        if use:
            traced.append(done)
            speed = scale(1.0, statistics.median(done["calibrations"]))
            layer_rows.append(use.layer_metrics(time_scale=speed))
            if spans_file is None:
                RESULTS.mkdir(exist_ok=True)
                spans_file = RESULTS / f"{name}-seed{seed}-spans.json.gz"
                use.write(spans_file)
            use.clear()
        else:
            plain.append(done)
            if fresh:
                setups_raw.append(setup)
                setups.append(scale(setup, done["calibrations"][0]))
        if len(plain) + len(traced) == SETUP_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_op = median_of([p["scaled"] for p in plain])
    kinds: Counter[str] = Counter()
    for op in ops:
        kinds[f"{op.kind}_s"] += per_op[op.name]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed, "errors": tally.errors,
        "passes": len(plain),
        "call_seconds": per_op,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "pass_s": sum(per_op.values()),
            "peak_rss_mb": peak_rss_mb,
        },
        "per_kind": {**kinds, **plain[-1]["values"]},
        "measured": {
            "calibration_s": statistics.median(
                c for p in plain for c in p["calibrations"]),
            "setup_s": statistics.median(setups_raw),
            "pass_s": sum(median_of([p["raw"] for p in plain]).values()),
        },
    }
    if trace:
        traced_s = sum(median_of([p["scaled"] for p in traced]).values())
        result["traced_passes"] = len(traced)
        result["trace_overhead"] = traced_s / result["end_to_end"]["pass_s"] - 1
        result["layers"] = median_of(layer_rows)
        result["layer_units"] = tracer.units
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    return result


def print_report(result: dict, spec: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {str(result['correct']).lower()}")
    for err in result["errors"]:
        print(f"  FAILED {err}")
    rows = {**result["end_to_end"], **result["per_kind"],
            **{f"measured {k}": v for k, v in result["measured"].items()}}
    if "layers" in result:
        rows = {**rows, **result["layers"]}
    units = {**REPORT_UNITS, **result.get("layer_units", {}),
             **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    for key, value in rows.items():
        print(f"  {key:40s} {value:14.6f} {units[key]}")
    if "trace_overhead" in result:
        print(f"  tracing overhead: traced passes take {result['trace_overhead']:+.1%} "
              f"against untraced ones ({result['traced_passes']} traced, "
              f"{result['passes']} untraced)")


def result_line(result: dict, spec: dict) -> dict:
    """The last output line: counts plus the metrics BENCHMARK.json names;
    a layer that was not called reads 0."""
    found = {**result["end_to_end"], **result.get("layers", {})}
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }


def run_child(workload: str, seed: int, trace: bool) -> tuple[str, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.stdout, None
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def run_all(names: list[str], seed: int, trace: bool) -> int:
    summary = {}
    for w in names:
        text, line = run_child(w, seed, trace)
        print(text, flush=True)
        summary[w] = line
        if line is None:
            print(f"  {w}: run failed", flush=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"summary-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    return 0 if all(summary.values()) else 1


def run_repeat(names: list[str], seed: int, trace: bool, repeat: int) -> int:
    """`repeat` runs per workload with seeds seed, seed+1, ...; prints each
    metric's median, quartiles and quartile spread as a share of the median."""
    report, status = {}, 0
    for w in names:
        lines = []
        for i in range(repeat):
            _, line = run_child(w, seed + i, trace)
            if line is None:
                print(f"{w} seed {seed + i}: run failed", flush=True)
                status = 1
                continue
            lines.append(line)
        if len(lines) < 2:
            continue
        print(f"{w}: {len(lines)} runs, seeds {seed}..{seed + repeat - 1}, "
              f"failed/attempted {sorted({(l['failed'], l['attempted']) for l in lines})}, "
              f"correct {all(l['correct'] for l in lines)}")
        report[w] = {}
        for metric in lines[0]["metrics"]:
            vals = [l["metrics"][metric]["value"] for l in lines]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            report[w][metric] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                 "spread": spread}
            print(f"  {metric:40s} median {med:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
                  f"spread {spread:7.2%}", flush=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"repeat-seed{seed}-n{repeat}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    return status


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="must equal run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="runs per workload, one seed each (at least 2)")
    args = ap.parse_args()
    if args.seconds != spec["run_seconds"]:
        ap.error(f"--seconds must equal run_seconds in BENCHMARK.json "
                 f"({spec['run_seconds']})")
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        if args.repeat < 2:
            ap.error("--repeat needs at least 2 runs")
        return run_repeat(workloads, args.seed, trace, args.repeat)
    if not args.workload:
        return run_all(workloads, args.seed, trace)

    result = run_workload(args.workload, args.seed, spec["run_seconds"], trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result, spec)
    print(json.dumps(result_line(result, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
