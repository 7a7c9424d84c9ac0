#!/usr/bin/env python3
"""Benchmark for rdsymm, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload named in BENCHMARK.json, each in its
own process so that one workload's peak memory cannot show up in another's.

With ``--trace 0`` the workload runs whole passes until ``--seconds`` have
gone by and the end-to-end metrics are printed.  With ``--trace 1`` it runs
one untraced pass, then builds its inputs and runs one pass again with spans
around the calls into each layer, and prints the per-layer metrics; the
spans are written to ``perfbench/out``.  Either way every verdict is checked
against its known answer, and the last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything runs in one process and one thread.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import workloads
from pace import Pace
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")

# set up at least this often, and until this much time has gone by
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MODULES = ("expr", "parser", "numeric", "equality", "jets", "fields",
           "systems", "corpus", "verify")
# rows whose residuals reach the expansion layer, holds and fails mixed;
# expr.expand_us.residual is the median expand time over them (m = 1)
RESIDUAL_ROWS = ("T3.1*", "T4.3", "T10.10", "T10.12")
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
PATHS = ("normalize_equal", "expand_equal", "numeric_equal",
         "numeric_different", "undecided")
FAILURE_REPORT = ("verify.minimal_failing_monomial", "verify.to_text")


def import_rdsymm() -> SimpleNamespace:
    """Import rdsymm afresh from the checkout, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "rdsymm" or n.startswith("rdsymm.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"rdsymm.{m}")
                             for m in MODULES})
    if not os.path.abspath(api.expr.__file__).startswith(SRC + os.sep):
        sys.exit(f"rdsymm was imported from {api.expr.__file__}, not {SRC}")
    return api


def setup(workload, seed: int):
    """Import, load the corpus and build the inputs several times; the last
    copy is the one measured, and setup_s is the median scaled time."""
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_REPEATS
           or time.perf_counter() - start < SETUP_SECONDS):
        # free the previous copy first, so that copies do not pile up in
        # peak_rss_mb
        api = inputs = None
        gc.collect()
        pace = Pace().begin()
        api = import_rdsymm()
        inputs = workload.build(api, seed)
        times.append(pace.end().wall_ns / 1e9)
    return api, inputs, statistics.median(times)


def timed_pass(workload, inputs):
    pace = Pace().begin()
    result = workload.run_pass(inputs, pace.record)
    pace.end()
    result.times_ns = pace.times_ns
    return result, pace


def tail(times_ns, per_pass: int):
    """The highest percentile of the ladder with at least ten samples beyond
    it, chosen from the size of one pass so that it does not change with the
    number of passes a run makes."""
    pct = next((p for p in TAIL_LADDER if per_pass * (1 - p / 100) >= 10),
               TAIL_LADDER[-1])
    ordered = sorted(times_ns)
    index = min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)
    return pct, ordered[index], len(ordered) - 1 - index


def end_to_end(workload, seed: int, seconds: int):
    _, inputs, setup_s = setup(workload, seed)
    passes, wall_ns, raw_ns = [], 0, 0
    while raw_ns < seconds * 1e9:
        result, pace = timed_pass(workload, inputs)
        passes.append(result)
        wall_ns += pace.wall_ns
        raw_ns += pace.raw_wall_ns
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = workload.finish(inputs, passes)
    times = [t for p in passes for t in p.times_ns]
    checks = sum(p.checks for p in passes)
    pct, tail_ns, beyond = tail(times, passes[0].checks)
    print(f"{len(passes)} pass(es) of {passes[0].checks} claim checks in "
          f"{raw_ns / 1e9:.3f} s, {wall_ns / 1e9:.3f} s at reference speed; "
          f"verdict_tail_ms is p{pct:g} of "
          f"{len(times)} timed checks ({beyond} beyond it)")
    metrics = {
        "verdicts_per_s": checks / (wall_ns / 1e9),
        "verdict_p50_ms": statistics.median(times) / 1e6,
        "verdict_tail_ms": tail_ns / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, passes, problems


def terms(api, e) -> int:
    if isinstance(e, api.expr.Add):
        return len(e.terms)
    return 0 if api.expr.is_zero(e) else 1


def decision_tag(d):
    key = "undecided" if d.verdict == "undecided" else f"{d.path}_{d.verdict}"
    return key, d.samples


def install_spans(tracer: Tracer, api) -> None:
    eq, verify, systems = api.equality, api.verify, api.systems
    wrap = tracer.wrap
    wrap("verify.instantiate_row", verify, "instantiate_row")
    wrap("verify.numeric_residual_check", verify, "numeric_residual_check")
    wrap("parser.parse", api.parser, "parse")
    wrap("systems.is_symmetry", systems, "is_symmetry")
    wrap("systems.symmetry_residual", systems, "symmetry_residual",
         tag=lambda rs: sum(terms(api, r) for r in rs))
    wrap("systems.evolution_reduce", systems, "evolution_reduce")
    wrap("fields.apply_to", api.fields.ProlongedGenerator, "apply_to",
         everywhere=False)
    wrap("jets.total_derivative", api.jets, "total_derivative")
    wrap("equality.decide_equivalence", eq, "decide_equivalence",
         tag=decision_tag)
    # expansion inside the equality decision only; the failure report's own
    # expansion stays inside its span
    wrap("equality.expand", eq, "expand", tag=lambda e: terms(api, e),
         everywhere=False)
    wrap("numeric.eval_at", api.numeric, "eval_at")
    wrap("verify.minimal_failing_monomial", verify, "minimal_failing_monomial")
    wrap("verify.to_text", verify, "to_text", everywhere=False)


def span_metrics(tracer: Tracer, window: int, traced: Pace) -> dict:
    """Per-layer counts and times over every span, times scaled by the
    traced pass's mean machine speed; the remainder covers the traced pass
    (spans from index ``window`` on)."""
    spans = tracer.spans
    own = tracer.self_ns()
    calls, total, self_total = Counter(), Counter(), Counter()
    paths, path_ns = Counter(), Counter()
    samples = residual_terms = expand_terms = failure_ns = 0
    for (name, start, end, parent, tag), own_ns in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own_ns
        if tag is None:
            continue
        if name == "equality.decide_equivalence":
            paths[tag[0]] += 1
            path_ns[tag[0]] += end - start
            samples += tag[1]
        elif name == "systems.symmetry_residual":
            residual_terms += tag
        elif name == "equality.expand":
            expand_terms += tag
    for name, start, end, parent, _ in spans:
        if name in FAILURE_REPORT and (
                parent < 0 or spans[parent][0] not in FAILURE_REPORT):
            failure_ns += end - start

    scale = traced.wall_ns / traced.raw_wall_ns

    def s(ns):
        return ns * scale / 1e9

    m = {}
    for layer, times, kind in (
            ("verify.instantiate_row", self_total, "self_s"),
            ("verify.numeric_residual_check", self_total, "self_s"),
            ("parser.parse", total, "s"),
            ("systems.is_symmetry", self_total, "self_s"),
            ("systems.symmetry_residual", self_total, "self_s"),
            ("systems.evolution_reduce", self_total, "self_s"),
            ("fields.apply_to", self_total, "self_s"),
            ("jets.total_derivative", total, "s")):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.{kind}"] = s(times[layer])
    m["systems.residual_terms"] = residual_terms
    decide = "equality.decide_equivalence"
    m["equality.decide.calls"] = calls[decide]
    m["equality.decide.self_s"] = s(self_total[decide])
    for p in PATHS:
        m[f"equality.path.{p}"] = paths[p]
        m[f"equality.path.{p}.s"] = s(path_ns[p])
    expands = calls["equality.expand"]
    m["equality.expand.calls"] = expands
    m["equality.expand.s"] = s(total["equality.expand"])
    m["equality.expand.terms_out"] = expand_terms
    m["equality.expand.useful_ratio"] = (paths["expand_equal"] / expands
                                         if expands else 0.0)
    m["equality.numeric.samples"] = samples
    m["verify.failure_report.calls"] = calls["verify.minimal_failing_monomial"]
    m["verify.failure_report.s"] = s(failure_ns)
    m["numeric.eval_at.calls"] = calls["numeric.eval_at"]
    m["numeric.eval_at.s"] = s(total["numeric.eval_at"])
    raw = traced.raw_wall_ns
    m["trace.remainder_frac"] = (raw - sum(own[window:])) / raw
    unknown = set(paths) - set(PATHS)
    if unknown:
        print(f"decision paths outside the metric list: {sorted(unknown)}")
    return m


def per_call_us(fn, batch_ns: float = 2e7, repeats: int = 7) -> float:
    """Median over batches of the scaled time of one call; a batch repeats
    the call until it takes ``batch_ns``."""
    n = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(n):
            fn()
        if time.perf_counter_ns() - start >= batch_ns:
            break
        n *= 2
    runs = []
    for _ in range(repeats):
        pace = Pace().begin()
        for _ in range(n):
            fn()
        runs.append(pace.end().wall_ns / n)
    return statistics.median(runs) / 1e3


def core_metrics(api, seed: int) -> dict:
    """Expression-core micro-timings on fixed inputs, and expand on
    residuals that corpus rows hand to the equality layer."""
    ex = api.expr
    a = api.parser.parse("lam*u^(mu+1)*exp(nu*v/u)")
    b = api.parser.parse("u_x1*v_x1 + 3*u + x1^2*t")
    u = ex.jet("u")
    abb = ex.mul(a, b, b)
    m = {
        "expr.mul_us": per_call_us(lambda: ex.mul(a, b)),
        "expr.add_us": per_call_us(lambda: ex.add(a, b)),
        "expr.differentiate_us": per_call_us(lambda: ex.differentiate(a, u)),
        "expr.expand_us": per_call_us(lambda: ex.expand(abb)),
        "expr.substitute_us": per_call_us(lambda: ex.substitute(a, {u: b})),
    }
    rows = {r.key: r for r in api.corpus.load_rows()}
    pace = Pace().begin()
    with workloads.CallTimer(api.equality, "expand", pace.record):
        for key in RESIDUAL_ROWS:
            row = rows[key]
            api.verify.verify_row(row, seeds=(seed, seed + 1, seed + 2),
                                  m_values=row.m_list[:1])
    pace.end()
    m["expr.expand_us.residual"] = statistics.median(pace.times_ns) / 1e3
    return m


def per_layer(workload, seed: int):
    api, inputs, _ = setup(workload, seed)
    untraced, untraced_pace = timed_pass(workload, inputs)
    tracer = Tracer()
    install_spans(tracer, api)
    try:
        inputs = workload.build(api, seed)
        window = len(tracer.spans)
        traced, traced_pace = timed_pass(workload, inputs)
    finally:
        tracer.uninstall()
    passes = [untraced, traced]
    problems = workload.finish(inputs, passes)
    metrics = span_metrics(tracer, window, traced_pace)
    metrics.update(core_metrics(api, seed))
    metrics["trace.overhead_frac"] = (traced_pace.wall_ns
                                      / untraced_pace.wall_ns - 1)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl.gz")
    tracer.write(path)
    print(f"traced pass {traced_pace.wall_ns / 1e9:.3f} s, untraced pass "
          f"{untraced_pace.wall_ns / 1e9:.3f} s at reference speed; "
          f"{len(tracer.spans)} spans in "
          f"{os.path.relpath(path, ROOT)}")
    return metrics, passes, problems


def emit(config_metrics, values: dict, passes, problems) -> dict:
    names = [c["name"] for c in config_metrics]
    if set(names) != set(values):
        sys.exit(f"metrics {sorted(set(values) ^ set(names))} differ "
                 f"between the benchmark and BENCHMARK.json")
    attempted = sum(p.checks for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems:
        print(f"problem: {problem}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    out = {}
    for c in config_metrics:
        value = values[c["name"]]
        out[c["name"]] = {"value": value, "unit": c["unit"]}
        print(f"  {c['name']:<40} {value:>14.6g} {c['unit']}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": out}


def run_all(args, config) -> int:
    """Every workload in its own process; prints their lines and one JSON
    object whose metric names are prefixed by the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in config["workloads"]:
        name = w["name"]
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with code {proc.returncode}")
            summary["correct"] = False
            status = 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "rdsymm", "__init__.py")):
        print(f"no rdsymm sources under {SRC}", file=sys.stderr)
        return 2
    with open(CONFIG, encoding="utf-8") as fh:
        config = json.load(fh)
    if args.workload == "all":
        return run_all(args, config)
    if args.workload not in [w["name"] for w in config["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, SRC)
    workload = workloads.make(args.workload, OUT, SRC)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
          flush=True)
    if args.trace:
        values, passes, problems = per_layer(workload, args.seed)
        result = emit(config["per_layer"], values, passes, problems)
    else:
        values, passes, problems = end_to_end(workload, args.seed,
                                              args.seconds)
        result = emit(config["end_to_end"], values, passes, problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
