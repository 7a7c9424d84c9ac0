#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit against the working tree,
written to ``BENCH_<pr>.json``.  Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent COMMIT --pr N --run 0:10 --run 7:3 \\
        --seconds 10 --claim kernel_sweep.verdicts_per_s --change "..." [--trace]

The parent is unpacked with ``git archive`` into a temporary directory,
which is removed afterwards; the working tree is run where it is, with its
uncommitted changes.  ``--run SEED:PAIRS`` runs PAIRS pairs of
``perfbench/run.py --workload all --seed SEED --seconds S``, one run at a
time; the parent goes first in even-numbered pairs (0, 2, ...) and the
change first in odd-numbered ones.  For each end-to-end metric the file
gives each side's runs, median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the change's wins per
pair (a tie counts for neither side), whether the difference of the
medians exceeds the parent's interquartile range, and whether the change
stays within the metric's bound in ``BENCHMARK.json``.  ``--trace`` adds one
``--trace 1`` run per side at the first seed, with every per-layer metric.
``source_lines`` gives each side's line count of ``src/rdsymm/*.py`` and
``src/rdsymm/corpus/*.py``.  A ``--claim`` that names no workload and
end-to-end metric of ``BENCHMARK.json`` is refused before anything runs.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ORDER = ("alternating: parent first in even-numbered pairs (0, 2, ...), "
         "change first in odd-numbered ones")


def spread(runs: Sequence[float]) -> dict:
    """Median and quartiles of one side's runs, with the runs."""
    runs = list(runs)
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> dict:
    """One metric over the pairs: which side wins each pair (ties count for
    neither), the ratio of the medians, whether the medians differ by more
    than the parent's interquartile range, and whether the change stays
    within ``bound`` of the parent in the worse direction."""
    sign = 1 if better == "higher" else -1
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    worse = -sign * (c["median"] - p["median"])
    return {"parent": p, "change": c, "change_over_parent": ratio,
            "change_wins": f"{wins}/{len(parent)}",
            "median_diff_exceeds_parent_iqr":
                abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "within_bound": worse <= bound * abs(p["median"])}


def summarize(config: dict, pairs: List[Tuple[dict, dict]]) -> dict:
    """The section of one seed: ``pairs`` holds the (parent, change) result
    of each pair, each the JSON object that ``perfbench/run.py --workload
    all`` prints last."""
    section = {"pairs": len(pairs), "order": ORDER}
    for key in ("correct", "failed", "attempted"):
        fold = all if key == "correct" else sum
        section[key] = {side: fold(pair[i][key] for pair in pairs)
                        for i, side in enumerate(SIDES)}
    section["workloads"] = {}
    for w in config["workloads"]:
        out = section["workloads"][w["name"]] = {}
        for m in config["end_to_end"]:
            name = f"{w['name']}.{m['name']}"
            parent, change = ([pair[i]["metrics"][name]["value"]
                               for pair in pairs] for i in range(2))
            out[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              "bound": m["bound"],
                              **compare(parent, change, m["better"],
                                        m["bound"])}
    return section


def claim_result(section: dict, metric: str) -> str:
    """Whether ``metric`` (workload.metric) met the claim: the change wins
    at least nine pairs in ten and the medians differ by more than the
    parent's interquartile range, in the better direction."""
    workload, name = metric.split(".", 1)
    c = section["workloads"][workload][name]
    n = section["pairs"]
    wins = int(c["change_wins"].split("/")[0])
    better = (c["change"]["median"] > c["parent"]["median"]
              if c["better"] == "higher"
              else c["change"]["median"] < c["parent"]["median"])
    met = (better and wins * 10 >= 9 * n
           and c["median_diff_exceeds_parent_iqr"])
    return (f"{'met' if met else 'not met'}: median "
            f"{c['parent']['median']:.4g} -> {c['change']['median']:.4g} "
            f"(x{c['change_over_parent']:.3f}), change wins "
            f"{c['change_wins']}, parent IQR {c['parent']['q1']:.4g}-"
            f"{c['parent']['q3']:.4g}")


def run_bench(checkout: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py --workload all`` run in ``checkout``; its last
    line of output, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        if "corpus report sha256" in line:
            print(f"  {line.strip()}", flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited with "
                 f"{proc.returncode}")
    return json.loads(lines[-1])


def run_pairs(dirs: Dict[str, str], seed: int, pairs: int,
              seconds: int) -> List[Tuple[dict, dict]]:
    out = []
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        result = {}
        for side in order:
            result[side] = run_bench(dirs[side], seed, seconds, 0)
            print(f"seed {seed} pair {k} {side}: correct "
                  f"{result[side]['correct']}, failed "
                  f"{result[side]['failed']}", flush=True)
        out.append((result["parent"], result["change"]))
    return out


def trace_section(config: dict, dirs: Dict[str, str], seed: int,
                  seconds: int) -> dict:
    results = {side: run_bench(dirs[side], seed, seconds, 1)
               for side in SIDES}
    metrics = {}
    for w in config["workloads"]:
        metrics[w["name"]] = {
            m["name"]: {side: results[side]["metrics"][
                f"{w['name']}.{m['name']}"]["value"] for side in SIDES}
            for m in config["per_layer"]}
    return {"command": f"python3 perfbench/run.py --workload all --seed "
                       f"{seed} --seconds {seconds} --trace 1, one run per "
                       "side after the timed pairs",
            **{key: {side: results[side][key] for side in SIDES}
               for key in ("correct", "failed")},
            "metrics": metrics}


def source_lines(checkout: str) -> int:
    """The lines of ``src/rdsymm/*.py`` and ``src/rdsymm/corpus/*.py`` in
    ``checkout``."""
    total = 0
    for pattern in ("src/rdsymm/*.py", "src/rdsymm/corpus/*.py"):
        for path in glob.glob(os.path.join(checkout, pattern)):
            with open(path, "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def unpack(commit: str, into: str) -> None:
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(os.path.join(into, "parent"), filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    ap.add_argument("--run", action="append", required=True,
                    metavar="SEED:PAIRS")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--claim", help="workload.metric the change claims")
    ap.add_argument("--change", default="", help="what the change does")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    runs = [tuple(int(n) for n in r.split(":")) for r in args.run]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    if args.claim is not None:
        workload, _, name = args.claim.partition(".")
        if (workload not in {w["name"] for w in config["workloads"]}
                or name not in {m["name"] for m in config["end_to_end"]}):
            ap.error(f"--claim {args.claim!r} is no workload.metric of "
                     "BENCHMARK.json's workloads and end_to_end")
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            check=True).stdout.strip()
    bench = {"change": args.change, "parent_commit": commit,
             "command": "python3 perfbench/run.py --workload all "
                        f"--seed SEED --seconds {args.seconds}",
             "host": f"{platform.machine()} {platform.system()}, "
                     f"{os.cpu_count()} cores, Python "
                     f"{platform.python_version()}; times scaled to "
                     "reference speed by perfbench/pace.py",
             "method": "the parent unpacked by git archive into a temporary "
                       "directory, the change run from the working tree; "
                       "one run at a time; quartiles are statistics."
                       "quantiles(n=4, method='inclusive'); a tied pair "
                       "counts for neither side"}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        unpack(commit, tmp)
        dirs = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        bench["source_lines"] = {side: source_lines(dirs[side])
                                 for side in SIDES}
        for seed, pairs in runs:
            bench[f"seed_{seed}"] = summarize(
                config, run_pairs(dirs, seed, pairs, args.seconds))
        if args.trace:
            bench[f"trace_seed_{runs[0][0]}"] = trace_section(
                config, dirs, runs[0][0], args.seconds)
    if args.claim:
        bench["claim"] = {
            "metric": args.claim,
            "target": "change wins >= 9/10 pairs and the median difference "
                      "exceeds the parent's IQR",
            **{f"result_seed_{seed}": claim_result(bench[f"seed_{seed}"],
                                                   args.claim)
               for seed, _ in runs}}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
