"""The four rdsymm workloads.

Each workload builds its inputs from the seed (``build``), runs one pass of
claim checks (``run_pass``) and judges every verdict against an answer that
does not come from the code under test: which rows the paper's tables
annotate as slips, which table is blocked, and that shifts and rotations are
always symmetries.  ``finish`` runs, after the timed passes, the checks that
are too slow or too global to repeat inside every pass; it adds what it
finds to the passes' failure counts and returns the problems that are not
about one claim check.  The reasons for choosing each workload are in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, List, Optional

HOLDS = "holds"

# One claim check is timed in the thread's CPU time: a shared host that
# takes the CPU away for a few milliseconds during one check would
# otherwise put that check in the tail.
check_clock = time.thread_time_ns


@dataclass
class PassResult:
    checks: int = 0              # claim checks attempted
    failed: int = 0              # raised, undecided or wrong
    times_ns: List[float] = field(default_factory=list)  # one per check
    outcomes: list = field(default_factory=list)
    digest: Optional[str] = None


class CallTimer:
    """Hands the time of each call ``module`` makes through its binding
    ``name`` to ``record``."""

    def __init__(self, module, name: str, record: Callable[[int], None]):
        self.module = module
        self.name = name
        self.record = record
        self.calls = 0

    def __enter__(self):
        fn = self.original = getattr(self.module, self.name)
        record, clock = self.record, check_clock

        def timed(*args, **kwargs):
            self.calls += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(clock() - start)

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)


def _report_failure(what: str) -> None:
    print(f"check raised in {what}:", flush=True)
    traceback.print_exc()


def _claim_entries(run) -> list:
    return [e for e in run.results if "verdict" in e]


# ---------------------------------------------------------------------------


class CorpusSuite:
    """``run_suite(seed)``: every row of Tables 2-10, symbolic and witness."""

    name = "corpus_suite"

    def __init__(self, state_dir: str, source_dir: str):
        self.state_dir = state_dir
        self.source_dir = source_dir

    def build(self, api, seed: int):
        expected = {}
        for row in api.corpus.load_rows():
            if row.table == 6:      # stated through an operator never defined
                expected[row.key] = "blocked"
            else:
                expected[row.key] = "fail" if row.annotation else "pass"
        return SimpleNamespace(api=api, seed=seed, expected=expected)

    def run_pass(self, inp, record) -> PassResult:
        verify = inp.api.verify
        res = PassResult()
        with CallTimer(verify, "is_symmetry", record) as timer:
            try:
                report = verify.run_suite(seed=inp.seed)
            except Exception:
                _report_failure(f"run_suite(seed={inp.seed})")
                res.checks = res.failed = timer.calls or 1
                return res
        seen = set()
        for run in report.runs:
            seen.add(run.row_key)
            entries = _claim_entries(run)
            want = inp.expected.get(run.row_key)
            res.checks += len(entries)
            if run.status != want:
                print(f"{run.row_key}: status {run.status}, expected {want}")
                res.failed += max(1, len(entries))
                continue
            if want == "pass":
                res.failed += sum(e["verdict"] != HOLDS for e in entries)
            else:
                res.failed += sum(e["verdict"] == "undecided" for e in entries)
        missing = set(inp.expected) - seen
        if missing:
            print(f"rows missing from the report: {sorted(missing)}")
            res.checks += len(missing)
            res.failed += len(missing)
        text = json.dumps(report.to_json(), sort_keys=True)
        res.digest = hashlib.sha256(text.encode()).hexdigest()
        return res

    def finish(self, inp, passes) -> List[str]:
        """The report must be byte-identical for one seed: across the passes
        of this run, and across runs of the same source tree, recorded in a
        file under the state directory keyed by a hash of the sources."""
        digests = {p.digest for p in passes if p.digest}
        problems = []
        if len(digests) > 1:
            problems.append(f"corpus report differs between passes: {digests}")
        if len(digests) != 1:
            return problems
        digest = digests.pop()
        print(f"corpus report sha256 (seed {inp.seed}): {digest}")
        key = f"{_tree_hash(self.source_dir)}:{inp.seed}"
        path = os.path.join(self.state_dir, "corpus_digests.json")
        record = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        if record.get(key, digest) != digest:
            problems.append(f"corpus report differs from an earlier run of "
                            f"the same sources: {record[key]} != {digest}")
        elif key not in record:
            record[key] = digest
            os.makedirs(self.state_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        return problems


def _tree_hash(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


class Corrections:
    """``verify_row(apply_correction(row))`` over the annotated rows."""

    name = "corrections"

    def build(self, api, seed: int):
        rows = [api.verify.apply_correction(r) for r in api.corpus.load_rows()
                if r.annotation]
        return SimpleNamespace(api=api, seed=seed, rows=rows)

    def run_pass(self, inp, record) -> PassResult:
        verify = inp.api.verify
        seeds = (inp.seed, inp.seed + 1, inp.seed + 2)
        res = PassResult()
        with CallTimer(verify, "is_symmetry", record) as timer:
            for row in inp.rows:
                before = timer.calls
                try:
                    run = verify.verify_row(row, seeds=seeds)
                except Exception:
                    _report_failure(f"verify_row({row.key})")
                    bad = timer.calls - before or 1
                    res.checks += bad
                    res.failed += bad
                    continue
                entries = _claim_entries(run)
                res.checks += len(entries)
                bad = sum(e["verdict"] != HOLDS for e in entries)
                if run.status != "pass":
                    print(f"corrected {row.key}: status {run.status}")
                    bad = max(bad, 1)
                res.failed += bad
        return res

    def finish(self, inp, passes) -> List[str]:
        return []


class KernelSweep:
    """Random polynomial nonlinearities against every shift and rotation,
    for the three families and m = 1, 2, 3 (100 systems each)."""

    name = "kernel_sweep"
    TRIALS = 100

    def build(self, api, seed: int):
        ex, fields, systems = api.expr, api.fields, api.systems
        rng = random.Random(seed)
        u, v = ex.jet("u"), ex.jet("v")

        def poly():
            terms = []
            for _ in range(rng.randint(1, 3)):
                c = ex.rat(rng.randint(-3, 3))
                pu, pv = rng.randint(0, 2), rng.randint(0, 2)
                terms.append(ex.mul(c, ex.powe(u, ex.rat(pu)),
                                    ex.powe(v, ex.rat(pv))))
            return ex.add(*terms)

        checks = []
        for m in (1, 2, 3):
            for family in ("a_nonzero", "a_zero", "drift"):
                gens = [fields.named_operator("P0", m)]
                gens += [fields.named_operator("P", m, index=i)
                         for i in range(1, m + 1)]
                # the drift axis breaks isotropy: rotations of x1..x(m-1) only
                top = m if family != "drift" else m - 1
                gens += [fields.named_operator("J", m, index=i, index2=j)
                         for i in range(1, top + 1)
                         for j in range(i + 1, top + 1)]
                for _ in range(self.TRIALS):
                    f1, f2 = poly(), poly()
                    if family == "a_nonzero":
                        a = ex.rat(rng.choice([1, 2, -1, 3]))
                        system = systems.triangular(m, a, f1, f2)
                    elif family == "a_zero":
                        system = systems.triangular(m, 0, f1, f2)
                    else:
                        system = systems.drift(m, 1, f1, f2)
                    checks += [(system, g) for g in gens]
        return SimpleNamespace(api=api, seed=seed, checks=checks)

    def run_pass(self, inp, record) -> PassResult:
        is_symmetry = inp.api.systems.is_symmetry
        clock = check_clock
        res = PassResult(checks=len(inp.checks))
        for system, gen in inp.checks:
            start = clock()
            try:
                verdict = is_symmetry(system, gen).verdict
            except Exception:
                _report_failure("kernel_sweep is_symmetry")
                verdict = None
            record(clock() - start)
            res.failed += verdict != HOLDS
        return res

    def finish(self, inp, passes) -> List[str]:
        return []


@dataclass
class _NumericClaim:
    row_key: str
    annotated: bool
    system: object
    generator: object


class NumericCrosscheck:
    """``numeric_residual_check(points=20)`` on every witness-mode claim of
    every non-blocked row for every m."""

    name = "numeric_crosscheck"
    POINTS = 20

    def build(self, api, seed: int):
        verify = api.verify
        claims, unsatisfiable = [], 0
        for row in api.corpus.load_rows():
            if row.status == "blocked":
                continue
            for m in row.m_list:
                try:
                    inst = verify.instantiate_row(row, seed, m, "witness")
                except verify.UnsatisfiableConstraints:
                    unsatisfiable += 1
                    continue
                claims += [_NumericClaim(row.key, row.annotation is not None,
                                         ci.system, ci.generator)
                           for ci in inst.claims]
        return SimpleNamespace(api=api, seed=seed, claims=claims,
                               unsatisfiable=unsatisfiable)

    def run_pass(self, inp, record) -> PassResult:
        check = inp.api.verify.numeric_residual_check
        clock = check_clock
        res = PassResult(checks=len(inp.claims) + inp.unsatisfiable,
                         failed=inp.unsatisfiable)
        for c in inp.claims:
            start = clock()
            try:
                ok = check(c.system, c.generator, points=self.POINTS,
                           seed=inp.seed)[0]
            except Exception:
                _report_failure(f"numeric_residual_check({c.row_key})")
                ok = None
            record(clock() - start)
            res.outcomes.append(ok)
            # rows without an annotation hold as printed
            res.failed += ok is None or (not c.annotated and not ok)
        return res

    def finish(self, inp, passes) -> List[str]:
        """Each numeric verdict must match the exact verdict for the same
        claim; run once, after the timed passes."""
        is_symmetry = inp.api.systems.is_symmetry
        for i, c in enumerate(inp.claims):
            try:
                verdict = is_symmetry(c.system, c.generator,
                                      seed=inp.seed).verdict
            except Exception:
                _report_failure(f"is_symmetry({c.row_key})")
                verdict = None
            for p in passes:
                ok = p.outcomes[i]
                if ok is None or (verdict in (HOLDS, "fails")
                                  and ok == (verdict == HOLDS)):
                    continue
                print(f"{c.row_key}: numeric ok={ok}, exact {verdict}")
                if c.annotated or ok:       # else run_pass counted it
                    p.failed += 1
        return []


def make(name: str, state_dir: str, source_dir: str):
    if name == CorpusSuite.name:
        return CorpusSuite(state_dir, source_dir)
    for cls in (Corrections, KernelSweep, NumericCrosscheck):
        if cls.name == name:
            return cls()
    raise KeyError(name)
