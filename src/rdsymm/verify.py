"""Corpus verification harness.

``instantiate_row`` turns a table row into a concrete system plus claimed
generators: parameters are either left symbolic (the claim is then checked
as stated, with arbitrary functions opaque) or sampled as small rationals
satisfying the row constraints, with arbitrary functions replaced by
concrete witnesses.  ``verify_row`` runs every claim through the
prolongation decision over every applicable dimension and mode;
``run_suite`` aggregates a deterministic report.

Failures are data: a row that fails and carries a known-typo annotation is
excluded from the pass-rate gate; an unannotated failure makes the suite
exit nonzero.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import (TABLES, CorpusRow, build_generator, build_rules,
                     kernel_infos, load_rows, parse_in_row, witness_menu)
from .expr import (Add, DomainError, Expr, Jet, KernelWitness, Sym, ZERO, add,
                   apply_rules, is_zero, jet, jets_in, mul, rat, substitute,
                   sym, free_symbols)
from .fields import Generator
from .numeric import Sampler, eval_at, magnitude, random_fraction
from .parser import parse, to_text
from .systems import (RDSystem, drift, is_symmetry, prolonged_equations,
                      tjet_replacements, triangular)

_SAMPLE_POOL = [Fraction(n, d) for n in (1, 2, 3, 5, -1, -2, -3, 4)
                for d in (1, 2, 3)]


@dataclass
class ClaimInstance:
    label: str
    generator: Generator
    system: RDSystem


@dataclass
class RowInstance:
    row: CorpusRow
    m: int
    mode: str                      # symbolic | witness
    seed: int
    binding: Dict
    system: RDSystem
    claims: List[ClaimInstance]


class UnsatisfiableConstraints(Exception):
    pass


def _bind_derived(row: CorpusRow, binding: Dict) -> Dict:
    """Bind the row's derived parameters, in order, from ``binding``."""
    for dname, dexpr in row.derive.items():
        binding[sym(dname)] = substitute(parse(dexpr), binding)
    return binding


def _sample_params(row: CorpusRow, rng: random.Random):
    """Draw parameter values satisfying the row constraints."""
    names = sorted(row.params)
    zero = [parse(c) for c in row.zero]
    nonzero = [parse(c) for c in row.nonzero]
    for _ in range(200):
        binding = {}
        for name in names:
            flags = row.params[name]
            if flags.get("pm1"):
                binding[sym(name)] = rat(rng.choice([-1, 1]))
            elif flags.get("square"):
                k = rng.choice([1, 2, 3, Fraction(1, 2)])
                binding[sym(name)] = rat(Fraction(k) ** 2)
            else:
                pool = _SAMPLE_POOL + ([Fraction(0)] if not flags.get("nonzero") else [])
                binding[sym(name)] = rat(rng.choice(pool))
        _bind_derived(row, binding)
        ok = True
        for c in zero:
            if not is_zero(substitute(c, binding)):
                # force one participating parameter to zero and retry the check
                syms = [s for s in sorted(free_symbols(c), key=Expr.key)
                        if isinstance(s, Sym) and s.name in row.params
                        and not row.params[s.name].get("nonzero")]
                if not syms:
                    ok = False
                    break
                binding[rng.choice(syms)] = ZERO
                _bind_derived(row, binding)
                if not is_zero(substitute(c, binding)):
                    ok = False
                    break
        if ok and not any(is_zero(substitute(c, binding)) for c in nonzero):
            return binding
    raise UnsatisfiableConstraints(f"{row.key}: no sample found")


def symbolic_branches(row: CorpusRow) -> List[Dict]:
    """Bindings realizing the row's product-type zero constraints (one per
    choice of vanishing factor) and its +-1-valued parameters."""
    branches = [dict()]
    for name, flags in sorted(row.params.items()):
        if flags.get("pm1"):
            branches = [{**b, sym(name): val} for b in branches
                        for val in (rat(1), rat(-1))]
    for c in row.zero:
        expr = parse(c)
        factors = sorted({s.name for s in free_symbols(expr)
                          if isinstance(s, Sym) and s.name in row.params})
        new = []
        for b in branches:
            for f in factors:
                nb = dict(b)
                nb[sym(f)] = ZERO
                if is_zero(substitute(expr, nb)):
                    new.append(nb)
        branches = new or branches
    seen = []
    out = []
    for b in branches:
        key = tuple(sorted((k.name, str(v)) for k, v in b.items()))
        if key not in seen:
            seen.append(key)
            out.append(b)
    return out


def apply_correction(row: CorpusRow) -> CorpusRow:
    """The row with its annotation's corrected fields substituted in
    (used to confirm that the suspected transcription fix verifies)."""
    if not row.annotation or "corrected" not in row.annotation:
        return row
    fixed = copy.deepcopy(row)
    for field_name, value in row.annotation["corrected"].items():
        setattr(fixed, field_name, copy.deepcopy(value))
    fixed.annotation = None
    return fixed


def _a_value(row: CorpusRow, rng: Optional[random.Random], mode: str) -> Expr:
    if row.family == "a_zero":
        return ZERO
    if row.family == "drift":
        return ZERO
    if mode == "symbolic":
        return sym("a")
    if row.family == "a_any":
        return rat(rng.choice([0, 1, 2, -1, Fraction(1, 2)]))
    return rat(rng.choice([1, 2, -1, 3, Fraction(1, 2), -2]))


def _claim_condition_binding(claim: dict, infos, m, base_binding):
    """Apply a claim's side conditions on top of the row binding."""
    binding = dict(base_binding)
    when = claim.get("when", {})
    for name in when.get("zero", []):
        binding[sym(name)] = ZERO
    for name, val in when.get("set", {}).items():
        e = parse_in_row(val, m, infos)
        binding[sym(name)] = substitute(e, binding)
    return binding


def instantiate_row(row: CorpusRow, seed: int, m: int,
                    mode: str = "witness",
                    branch: Optional[Dict] = None) -> RowInstance:
    """Concrete system + claimed generators for one dimension and mode."""
    if m not in row.m_list:
        raise ValueError(f"m={m} not applicable for {row.key}")
    rng = random.Random((seed * 1009 + row.table * 101
                         + sum(map(ord, row.item))) % (2 ** 31))
    infos = kernel_infos(row, m)
    params_of = {ki.name: ki.params for ki in infos}
    f1_row = parse_in_row(row.f1, m, infos)
    f2_row = parse_in_row(row.f2, m, infos)
    if mode == "symbolic":
        binding = _bind_derived(row, dict(branch or {}))
    else:
        binding = _sample_params(row, rng)
    a_expr = _a_value(row, rng, mode)
    binding[sym("a")] = a_expr

    def make_system(bind, kernel_sets=None):
        a_val = bind.get(sym("a"), a_expr)
        f1 = substitute(f1_row, bind)
        f2 = substitute(f2_row, bind)
        overrides = {
            kname: KernelWitness(params_of[kname], substitute(
                parse_in_row(body_text, m, infos), bind))
            for kname, body_text in (kernel_sets or {}).items()}
        wits = {}
        if mode == "witness":
            wits = witness_menu(infos, m, a_val, bind, rng, skip=overrides)
        for repl in (overrides, wits):
            if repl:
                f1 = substitute(f1, repl)
                f2 = substitute(f2, repl)
        wits.update(overrides)
        rules = build_rules(infos, m, a_val, f1, f2, bind)
        if row.family == "drift":
            system = drift(m, 1, f1, f2, rules)
        else:
            system = triangular(m, a_val, f1, f2, rules)
        return system, wits

    system, wits = make_system(binding)
    claims = []
    for idx, claim in enumerate(row.claims):
        when = claim.get("when", {})
        if "m" in when and m not in when["m"]:
            continue
        cb = _claim_condition_binding(claim, infos, m, binding)
        kernel_sets = when.get("set_kernel")
        if cb == binding and not kernel_sets:
            csystem, cwits = system, wits
        else:
            csystem, cwits = make_system(cb, kernel_sets)
        label = claim.get("name", f"claim{idx+1}")
        dirs = range(1, m + 1) if claim.get("per_direction") else [None]
        for d in dirs:
            gen = build_generator(claim["gen"], m, infos, cb,
                                  cb.get(sym("a"), a_expr), direction=d)
            gen = gen.map(lambda c: apply_rules(c, csystem.rules))
            if cwits:
                gen = gen.map(lambda c: substitute(c, cwits))
            claims.append(ClaimInstance(
                label if d is None else f"{label}[x{d}]", gen, csystem))
    return RowInstance(row, m, mode, seed, binding, system, claims)


# ---------------------------------------------------------------------------


@dataclass
class VerificationRun:
    row_key: str
    status: str                     # pass | fail | blocked | undecided
    annotated: bool
    results: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"row": self.row_key, "status": self.status,
                "annotated": self.annotated, "results": self.results}


def minimal_failing_monomial(sampled: Expr) -> str:
    """The canonical-first monomial of a failing decision's sampled
    expression, which is the residual as the decision expanded it."""
    term = sampled.terms[0] if isinstance(sampled, Add) else sampled
    return to_text(term)


def verify_row(row: CorpusRow, seeds: Sequence[int] = (0, 1, 2),
               m_values: Optional[Sequence[int]] = None,
               modes: Sequence[str] = ("symbolic", "witness")) -> VerificationRun:
    if row.status == "blocked":
        return VerificationRun(row.key, "blocked", row.annotation is not None,
                               [{"note": row.notes or "blocked row"}])
    m_list = [m for m in (m_values or row.m_list) if m in row.m_list]
    results = []
    any_fail = False
    any_undecided = False
    branches = symbolic_branches(row)
    for m in m_list:
        plans = []
        if "symbolic" in modes:
            plans += [("symbolic", seeds[0], br) for br in branches]
        if "witness" in modes:
            plans += [("witness", s, None) for s in seeds]
        for mode, seed, br in plans:
            try:
                inst = instantiate_row(row, seed, m, mode, branch=br)
            except UnsatisfiableConstraints as exc:
                results.append({"m": m, "mode": mode, "seed": seed,
                                "verdict": "undecided", "note": str(exc)})
                any_undecided = True
                continue
            for ci in inst.claims:
                rep = is_symmetry(ci.system, ci.generator, seed=seed)
                entry = {"m": m, "mode": mode, "seed": seed,
                         "claim": ci.label, "verdict": rep.verdict,
                         "path": rep.decision_path}
                failing = rep.failing
                if failing:
                    any_fail = True
                    bad, decision = failing
                    entry["residual"] = to_text(bad)[:400]
                    entry["failing_monomial"] = minimal_failing_monomial(
                        decision.sampled)
                elif rep.verdict == "undecided":
                    any_undecided = True
                results.append(entry)
    status = "fail" if any_fail else ("undecided" if any_undecided else "pass")
    return VerificationRun(row.key, status, row.annotation is not None, results)


@dataclass
class SuiteReport:
    runs: List[VerificationRun]
    counts: Dict[str, int]
    gate_pass_fraction: float
    unannotated_failures: List[str]

    def to_json(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "gate_pass_fraction": round(self.gate_pass_fraction, 6),
            "unannotated_failures": list(self.unannotated_failures),
            "rows": [r.to_json() for r in self.runs],
        }

    @property
    def exit_code(self) -> int:
        return 1 if self.unannotated_failures else 0


def run_suite(tables: Sequence[int] = TABLES,
              items: Optional[Sequence[str]] = None,
              m_values: Optional[Sequence[int]] = None,
              seed: int = 0,
              modes: Sequence[str] = ("symbolic", "witness")) -> SuiteReport:
    rows = load_rows(tables)
    if items:
        rows = [r for r in rows if r.item in items]
    runs = []
    counts = {"pass": 0, "fail": 0, "blocked": 0, "undecided": 0}
    unannotated = []
    gate_total = 0
    gate_pass = 0
    for row in sorted(rows, key=lambda r: (r.table, r.item)):
        run = verify_row(row, seeds=(seed, seed + 1, seed + 2),
                         m_values=m_values, modes=modes)
        counts[run.status] += 1
        # blocked rows and annotated typo rows sit outside the gate
        if run.status != "blocked" and not (run.annotated
                                            and run.status == "fail"):
            gate_total += 1
            if run.status == "pass":
                gate_pass += 1
            else:
                unannotated.append(row.key)
        runs.append(run)
    frac = (gate_pass / gate_total) if gate_total else 1.0
    return SuiteReport(runs, counts, frac, unannotated)


# ---------------------------------------------------------------------------
# corpus sensitivity and numeric cross-checks


def negative_control(row: CorpusRow, m: int, seed: int = 0) -> bool:
    """Adding a fresh parameter times u^3 to f2 must break at least one
    passing non-kernel claim."""
    inst = instantiate_row(row, seed, m, "witness")
    q = sym("_qneg")
    u = jet("u")
    for ci in inst.claims:
        if is_symmetry(ci.system, ci.generator, seed=seed).verdict != "holds":
            continue
        mutated = replace(ci.system, f2=add(ci.system.f2, mul(q, u, u, u)))
        if is_symmetry(mutated, ci.generator, seed=seed).verdict == "fails":
            return True
    return False


def numeric_residual_check(system: RDSystem, x: Generator, points: int = 20,
                           seed: int = 0, tol: float = 1e-20) -> Tuple[bool, float]:
    """Evaluate the pre-reduction residuals at random points, substituting
    the t-jets numerically through the system; returns (ok, worst)."""
    raws, rhs = prolonged_equations(system, x)
    # t-jets of lower order first: the replacements of jets with nt >= 2
    # mention them, so they must be valued before those are evaluated
    tjets = sorted({j for raw in raws for j in jets_in(raw) if j.nt >= 1},
                   key=lambda j: (j.nt, len(j.xs), (j.dep, j.nt, j.xs)))
    tjet_exprs = tjet_replacements(system, tjets, rhs)
    worst = 0.0
    free = set()
    for e in (*raws, *tjet_exprs.values()):
        free |= {s for s in free_symbols(e)
                 if not (isinstance(s, Jet) and s.nt >= 1)}
    free = sorted(free, key=Expr.key)

    # coordinates near 1 keep nested exponentials well inside working
    # precision (the witnesses may compose exp with power arguments); points
    # whose intermediate values blow past the scale cap are resampled with
    # progressively tighter coordinates
    SCALE_CAP = 1e25
    sampler = Sampler(random.Random(seed))
    for _ in range(points):
        for try_ in range(16):
            span = (2, 5) if try_ < 8 else (5, 8)
            full = sampler.point(free, lambda rng, s: random_fraction(
                rng, isinstance(s, Jet) and s.order == 0, span, span))
            try:
                ok_scale = True
                for j, repl in tjet_exprs.items():
                    val = eval_at(repl, full, kernel_values=sampler)
                    if magnitude(val) > SCALE_CAP:
                        ok_scale = False
                        break
                    full[j] = val
                if not ok_scale:
                    continue
                vals = [eval_at(raw, full, kernel_values=sampler) for raw in raws]
            except DomainError:
                continue
            mags = [magnitude(v) for v in vals]
            if any(math.isinf(x) or math.isnan(x) for x in mags):
                continue
            worst = max(worst, *mags)
            break
        else:
            return False, worst
    return worst <= tol, worst
