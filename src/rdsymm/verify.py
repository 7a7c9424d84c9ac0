"""Corpus verification harness.

``instantiate_row`` turns a table row into a concrete system plus claimed
generators by substitution into the row's template at m, which is parsed
once: parameters are either left symbolic (the claim is then checked as
stated, with arbitrary functions opaque) or sampled as small rationals
satisfying the row constraints, with arbitrary functions replaced by
concrete witnesses (definitions: kernel rules of order 0).  ``verify_row`` runs every claim through the
prolongation decision over every applicable dimension and mode;
``run_suite`` aggregates a deterministic report.

Failures are data: a row that fails and carries a known-typo annotation is
excluded from the pass-rate gate; an unannotated failure makes the suite
exit nonzero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import (TABLES, CorpusRow, RowTemplate, build_rules, load_rows,
                     witness_menu)
from .expr import (Add, DomainError, Expr, KernelRule, RuleSet, Sym, ZERO,
                   add, apply_rules, collector_paused, is_zero, jet, jets_in,
                   mul, rat, shared_derivations, substitute, sym,
                   free_symbols)
from .fields import Generator
from .numeric import Program, Sampler, magnitude
from .parser import to_text
from .systems import (RDSystem, drift, is_symmetry, prolonged_equations,
                      tjet_replacements, triangular)

# the largest residual magnitude the numeric cross-check accepts
RESIDUAL_TOL = 1e-20

_SAMPLE_POOL = [Fraction(n, d) for n in (1, 2, 3, 5, -1, -2, -3, 4)
                for d in (1, 2, 3)]


@dataclass
class ClaimInstance:
    label: str
    generator: Generator
    system: RDSystem


@dataclass
class RowInstance:
    system: RDSystem
    claims: List[ClaimInstance]


class UnsatisfiableConstraints(Exception):
    pass


def _bind(pairs: Sequence[Tuple[Expr, Expr]], binding: Dict) -> Dict:
    """Bind each (name, value) pair in order, each value read under
    ``binding`` and the pairs before it; returns ``binding``."""
    for name, value in pairs:
        binding[name] = substitute(value, binding)
    return binding


def _zeroable(row: CorpusRow, expr: Expr) -> List[Sym]:
    """The parameters of ``expr`` a zero constraint may set to 0: declared
    in ``row.params`` and not flagged ``nonzero``, in name order."""
    return [s for s in sorted(free_symbols(expr), key=Expr.key)
            if type(s) is Sym and s.name in row.params
            and not row.params[s.name].get("nonzero")]


def _breaks_nonzero(tpl: RowTemplate, binding: Dict) -> bool:
    """True when a ``nonzero`` constraint of the row is 0 under binding."""
    return any(is_zero(substitute(c, binding)) for c in tpl.nonzero)


def _sample_params(row: CorpusRow, tpl: RowTemplate, rng: random.Random):
    """Draw parameter values satisfying the row constraints."""
    names = sorted(row.params)
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
        _bind(tpl.derive, binding)
        for c in tpl.zero:
            if is_zero(substitute(c, binding)):
                continue
            # force one participating parameter to zero and retry the check
            syms = _zeroable(row, c)
            if syms:
                binding[rng.choice(syms)] = ZERO
                _bind(tpl.derive, binding)
            if not is_zero(substitute(c, binding)):
                break
        else:
            if not _breaks_nonzero(tpl, binding):
                return binding
    raise UnsatisfiableConstraints(f"{row.key}: no sample found")


def symbolic_branches(row: CorpusRow, m: int) -> List[Dict]:
    """Bindings realizing the row's product-type zero constraints (one per
    choice of vanishing factor) and its +-1-valued parameters, read from
    the row compiled at m; no parameter flagged ``nonzero`` vanishes, and
    no ``nonzero`` constraint is 0.  A zero constraint that no single
    vanishing parameter satisfies, or no branch left, raises
    ``UnsatisfiableConstraints``."""
    tpl = row.template(m)
    branches = [dict()]
    for name, flags in sorted(row.params.items()):
        if flags.get("pm1"):
            branches = [{**b, sym(name): val} for b in branches
                        for val in (rat(1), rat(-1))]
    for expr in tpl.zero:
        factors = _zeroable(row, expr)
        new = []
        for b in branches:
            for f in factors:
                nb = {**b, f: ZERO}
                if is_zero(substitute(expr, nb)):
                    new.append(nb)
        if not new:
            raise UnsatisfiableConstraints(
                f"{row.key}: no vanishing parameter makes "
                f"{to_text(expr)} zero")
        branches = new
    # one branch per distinct binding, in order of first appearance
    distinct = {}
    for b in branches:
        if not _breaks_nonzero(tpl, _bind(tpl.derive, dict(b))):
            distinct.setdefault(tuple(sorted((k.name, str(v))
                                             for k, v in b.items())), b)
    if not distinct:
        raise UnsatisfiableConstraints(
            f"{row.key}: every branch makes a nonzero constraint zero")
    return list(distinct.values())


def apply_correction(row: CorpusRow) -> CorpusRow:
    """The row with its annotation's corrected fields substituted in
    (used to confirm that the suspected transcription fix verifies)."""
    if not row.annotation or "corrected" not in row.annotation:
        return row
    return replace(row, **row.annotation["corrected"], annotation=None)


def _a_value(row: CorpusRow, rng: Optional[random.Random], mode: str) -> Expr:
    if row.family in ("a_zero", "drift"):
        return ZERO
    if mode == "symbolic":
        return sym("a")
    if row.family == "a_any":
        return rat(rng.choice([0, 1, 2, -1, Fraction(1, 2)]))
    return rat(rng.choice([1, 2, -1, 3, Fraction(1, 2), -2]))


def instantiate_row(row: CorpusRow, seed: int, m: int,
                    mode: str = "witness",
                    branch: Optional[Dict] = None) -> RowInstance:
    """Concrete system + claimed generators for one dimension and mode: the
    row's template at m with its parameters bound, then the kernels'
    defining relations applied, then their definitions (the claim's kernel
    bodies and, in witness mode, the witnesses), which the systems never
    see."""
    if m not in row.m_list:
        raise ValueError(f"m={m} not applicable for {row.key}")
    rng = random.Random((seed * 1009 + row.table * 101
                         + sum(map(ord, row.item))) % (2 ** 31))
    tpl = row.template(m)
    if mode == "symbolic":
        binding = _bind(tpl.derive, dict(branch or {}))
    else:
        binding = _sample_params(row, tpl, rng)
    binding[sym("a")] = _a_value(row, rng, mode)

    def make_system(bind, kernel_sets):
        a_val = bind[sym("a")]
        defs = [KernelRule(r.name, 0, 0, r.params,
                           substitute(r.template, bind)) for r in kernel_sets]
        if mode == "witness":
            defs += witness_menu(tpl.infos, m, a_val, bind, rng,
                                 skip={r.name for r in defs})
        defs = RuleSet(defs)
        f1, f2 = (apply_rules(substitute(f, bind), defs)
                  for f in (tpl.f1, tpl.f2))
        rules = build_rules(tpl.infos, m, a_val, f1, f2, bind)
        if row.family == "drift":
            system = drift(m, 1, f1, f2, rules)
        else:
            system = triangular(m, a_val, f1, f2, rules)
        return system, defs

    system, defs = make_system(binding, [])
    claims = []
    for ct in tpl.claims:
        cb = _bind(ct.conditions, dict(binding))
        if cb == binding and not ct.kernel_sets:
            csystem, cdefs = system, defs
        else:
            csystem, cdefs = make_system(cb, ct.kernel_sets)
        for label, gen in ct.generators:
            gen = gen.map(lambda c: apply_rules(apply_rules(
                substitute(c, cb), csystem.rules), cdefs))
            claims.append(ClaimInstance(label, gen, csystem))
    return RowInstance(system, claims)


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
    term = sampled.terms[0] if type(sampled) is Add else sampled
    return to_text(term)


def _unsatisfied(m: int, mode: str, seed: int,
                 exc: UnsatisfiableConstraints) -> dict:
    """The one undecided entry of a plan whose constraints have no
    solution."""
    return {"m": m, "mode": mode, "seed": seed, "verdict": "undecided",
            "note": str(exc)}


MODES = ("symbolic", "witness")


def _check_request(modes: Sequence[str], **filters) -> None:
    """Refuse an empty or unknown mode, and an empty filter: a filter left
    out selects everything, an empty one nothing to check."""
    bad = [m for m in modes if m not in MODES]
    if not modes or bad:
        raise ValueError(f"modes must be a nonempty choice of {MODES}, "
                         f"got {tuple(modes)!r}")
    for name, value in filters.items():
        if value is not None and not value:
            raise ValueError(f"an empty {name} selects nothing; leave it "
                             f"out for all")


def verify_row(row: CorpusRow, seeds: Sequence[int] = (0, 1, 2),
               m_values: Optional[Sequence[int]] = None,
               modes: Sequence[str] = MODES) -> VerificationRun:
    _check_request(modes, m_values=m_values)
    if not seeds:
        raise ValueError("verify_row needs at least one seed")
    # each requested seed and m once, in the order given
    seeds = tuple(dict.fromkeys(seeds))
    m_list = [m for m in dict.fromkeys(row.m_list if m_values is None
                                       else m_values)
              if m in row.m_list]
    if not m_list:
        raise ValueError(f"no requested m is applicable for {row.key}")
    if row.status == "blocked":
        return VerificationRun(row.key, "blocked", row.annotation is not None,
                               [{"note": row.notes or "blocked row"}])
    results = []
    any_fail = False
    any_undecided = False
    # the row's checks share most of their derivations: prolong, replace
    # each t-jet, differentiate and expand each once per row
    with shared_derivations():
        for m in m_list:
            plans = []
            if "symbolic" in modes:
                try:
                    plans += [("symbolic", seeds[0], br)
                              for br in symbolic_branches(row, m)]
                except UnsatisfiableConstraints as exc:
                    results.append(_unsatisfied(m, "symbolic", seeds[0], exc))
                    any_undecided = True
            if "witness" in modes:
                plans += [("witness", s, None) for s in seeds]
            for mode, seed, br in plans:
                try:
                    inst = instantiate_row(row, seed, m, mode, branch=br)
                except UnsatisfiableConstraints as exc:
                    results.append(_unsatisfied(m, mode, seed, exc))
                    any_undecided = True
                    continue
                for ci in inst.claims:
                    rep = is_symmetry(ci.system, ci.generator, seed=seed)
                    entry = {"m": m, "mode": mode, "seed": seed,
                             "claim": ci.label, "verdict": rep.verdict,
                             "path": rep.decision_path}
                    if rep.failing:
                        any_fail = True
                        bad, decision = rep.failing
                        entry["residual"] = to_text(bad)[:400]
                        entry["failing_monomial"] = (
                            minimal_failing_monomial(decision.sampled))
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


# one collector pause for the whole suite, loading and the gaps between
# rows included (see the expr module docstring); each row still opens its
# own derivation table
@collector_paused()
def run_suite(tables: Sequence[int] = TABLES,
              items: Optional[Sequence[str]] = None,
              m_values: Optional[Sequence[int]] = None,
              seed: int = 0,
              modes: Sequence[str] = MODES) -> SuiteReport:
    _check_request(modes, tables=tables, items=items, m_values=m_values)
    rows = [r for r in load_rows(tables) if (items is None or r.item in items)
            and (m_values is None or set(m_values) & set(r.m_list))]
    runs = []
    counts = {"pass": 0, "fail": 0, "blocked": 0, "undecided": 0}
    unannotated = []
    gate_pass = 0
    for row in sorted(rows, key=lambda r: (r.table, r.item)):
        run = verify_row(row, seeds=(seed, seed + 1, seed + 2),
                         m_values=m_values, modes=modes)
        counts[run.status] += 1
        # blocked rows and annotated typo rows sit outside the gate
        if run.status == "pass":
            gate_pass += 1
        elif run.status != "blocked" and not (run.annotated
                                              and run.status == "fail"):
            unannotated.append(row.key)
        runs.append(run)
    gate_total = gate_pass + len(unannotated)
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
                           seed: int = 0) -> Tuple[bool, float]:
    """Evaluate the pre-reduction residuals at random points, substituting
    the t-jets numerically through the system; returns (ok, worst), ok when
    worst is at most ``RESIDUAL_TOL``."""
    if points < 1:
        raise ValueError("a residual check needs at least one point")
    raws = prolonged_equations(system, x)
    tjet_exprs = tjet_replacements(
        system, {j for raw in raws for j in jets_in(raw) if j.nt >= 1})
    program = Program(raws, tjet_exprs)
    worst = 0.0

    # coordinates near 1 keep nested exponentials well inside working
    # precision (the witnesses may compose exp with power arguments); points
    # whose intermediate values blow past the scale cap are resampled with
    # progressively tighter coordinates
    SCALE_CAP = 1e25
    sampler = Sampler(random.Random(seed))
    for _ in range(points):
        for try_ in range(16):
            span = (2, 5) if try_ < 8 else (5, 8)
            run = program.run(sampler.point(program.atoms, span, span),
                              sampler)
            try:
                if any(magnitude(next(run)) > SCALE_CAP for _ in tjet_exprs):
                    continue
                mags = [magnitude(v) for v in run]
            except DomainError:
                continue
            if any(math.isinf(x) or math.isnan(x) for x in mags):
                continue
            worst = max(worst, *mags)
            break
        else:
            return False, worst
    return worst <= RESIDUAL_TOL, worst
