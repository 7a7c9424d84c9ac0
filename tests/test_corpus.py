import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from dataclasses import replace

import pytest

import rdsymm

from rdsymm import expr
from rdsymm.corpus import TABLES, load_rows, load_table
from rdsymm.equality import decide_equivalence
from rdsymm.expr import ZERO, exp_, jet, ker, powe, rat, sym
from rdsymm.fields import ProlongedGenerator, generator
from rdsymm.jets import total_derivatives
from rdsymm.parser import parse, to_text
from rdsymm.systems import classifying_residual_main, is_symmetry, triangular
from rdsymm.verify import (apply_correction, instantiate_row,
                           negative_control, numeric_residual_check,
                           run_suite, symbolic_branches, verify_row,
                           UnsatisfiableConstraints)

u, v = jet("u"), jet("v")


def test_loader_covers_all_tables():
    rows = load_rows()
    tables = {r.table for r in rows}
    assert tables == set(TABLES)
    # every row parses structurally at every applicable m
    for row in rows:
        assert row.family in ("a_nonzero", "a_zero", "a_any", "drift")
        assert row.f1 and row.f2
        assert row.status in ("ok", "blocked")


def test_every_declared_symbol_resolves():
    for row in load_rows():
        if row.status == "blocked":
            continue
        for m in row.m_list[:1]:
            inst = instantiate_row(row, 0, m, "symbolic")
            assert inst.system is not None
            assert inst.claims, f"{row.key} produced no claims at m={m}"


def test_instantiate_table4_item3_example():
    row = [r for r in load_table(4) if r.item == "3"][0]
    inst = instantiate_row(row, 0, 2, "witness")
    labels = [c.label for c in inst.claims]
    assert any("mu D" in l for l in labels)
    assert any("nu D" in l for l in labels)
    # the conditional Galilei branch instantiates conforming parameters
    gal = [c for c in inst.claims if "G_alpha" in c.label]
    assert gal, "side-condition sub-claims must be instantiated"


def test_instantiate_table2_item3_with_heat_witness():
    row = [r for r in load_table(2) if r.item == "3"][0]
    inst = instantiate_row(row, 0, 1, "witness")
    (claim,) = inst.claims
    assert is_symmetry(claim.system, claim.generator).holds


def test_table8_item6_passes_for_harmonic_witnesses():
    row = [r for r in load_table(8) if r.item == "6"][0]
    for seed in (0, 1):
        inst = instantiate_row(row, seed, 2, "witness")
        for claim in inst.claims:
            assert is_symmetry(claim.system, claim.generator).holds


def test_table6_blocked():
    for row in load_table(6):
        assert row.status == "blocked"
        assert verify_row(row).status == "blocked"


def test_a_zero_constraint_no_vanishing_parameter_meets_is_refused():
    # mu - nu = 0 holds neither at mu = 0 nor at nu = 0
    row = replace(next(r for r in load_table(5) if r.item == "1"),
                  zero=["mu - nu"])
    with pytest.raises(UnsatisfiableConstraints, match="mu - nu"):
        symbolic_branches(row, 1)
    run = verify_row(row, m_values=[1], modes=("symbolic",))
    assert run.status == "undecided"
    (entry,) = run.results
    assert entry["verdict"] == "undecided" and entry["mode"] == "symbolic"
    assert "mu - nu" in entry["note"]


def _t5_1(**changes):
    return replace(next(r for r in load_table(5) if r.item == "1"), **changes)


def _branches(row, m=1):
    return [{k.name: str(v) for k, v in b.items()}
            for b in symbolic_branches(row, m)]


def test_a_zero_constraint_sets_no_nonzero_flagged_parameter_to_zero():
    row = _t5_1(params={"lam": {}, "mu": {"nonzero": True}, "nu": {}},
                zero=["mu*nu"])
    assert _branches(row) == [{"nu": "0"}]
    with pytest.raises(UnsatisfiableConstraints, match="mu"):
        symbolic_branches(replace(row, zero=["mu"]), 1)


def test_a_branch_that_zeroes_a_nonzero_constraint_is_dropped():
    row = _t5_1(zero=["mu*nu"], nonzero=["nu"])
    assert _branches(row) == [{"mu": "0"}]
    # the same for a +-1 parameter: lam = -1 makes lam + 1 zero
    row = _t5_1(params={"lam": {"pm1": True}, "mu": {}, "nu": {}},
                nonzero=["lam + 1"])
    assert _branches(row) == [{"lam": "1"}]


def test_no_branch_left_by_the_nonzero_constraints_is_refused():
    row = _t5_1(zero=["mu*nu"], nonzero=["mu", "nu"])
    with pytest.raises(UnsatisfiableConstraints, match="nonzero"):
        symbolic_branches(row, 1)
    run = verify_row(row, m_values=[1], modes=("symbolic",))
    assert run.status == "undecided"
    (entry,) = run.results
    assert entry["verdict"] == "undecided" and entry["mode"] == "symbolic"


def test_determinism_byte_identical_reports():
    r1 = run_suite(tables=[3], seed=7)
    r2 = run_suite(tables=[3], seed=7)
    assert json.dumps(r1.to_json(), sort_keys=True) == \
        json.dumps(r2.to_json(), sort_keys=True)


def test_negative_controls():
    # mutating a passing row's f2 by a fresh parameter times u^3 must break
    # at least one claimed non-kernel symmetry
    for table, item in [(3, "3*"), (4, "4"), (7, "3"), (8, "4")]:
        row = [r for r in load_table(table) if r.item == item][0]
        assert negative_control(row, row.m_list[0]), f"T{table}.{item} not sensitive"


def test_reinstantiating_a_compiled_row_parses_nothing(monkeypatch):
    """Rows with per-direction claims, kernel bodies, side conditions and
    derived parameters: once a row is compiled at m, instantiating it again
    at m, in another seed or mode, is substitution only."""
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return parse(*args, **kw)

    rows = {r.key: r for r in load_rows()}
    keys = ("T3.2*", "T3.5", "T9.1", "T7.7")
    for key in keys:
        row = rows[key]
        instantiate_row(row, 0, row.m_list[0], "witness")
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "rdsymm":
            for attr, value in list(vars(module).items()):
                if value is parse:
                    monkeypatch.setattr(module, attr, counting)
    for key in keys:
        row = rows[key]
        m = row.m_list[0]
        instantiate_row(row, 1, m, "witness")
        for br in symbolic_branches(row, m):
            instantiate_row(row, 0, m, "symbolic", branch=br)
    assert not calls, f"{len(calls)} parse calls, first {calls[0]}"


def test_a_run_at_one_m_compiles_each_row_at_that_m_only(monkeypatch):
    compiled = []
    compile_row = rdsymm.corpus.compile_row

    def counting(row, m):
        compiled.append((row.key, m))
        return compile_row(row, m)

    monkeypatch.setattr(rdsymm.corpus, "compile_row", counting)
    run_suite(tables=[2, 3], m_values=(2,))
    assert len(compiled) == 16 and {m for _, m in compiled} == {2}


def test_two_path_agreement_on_main_symmetries():
    """Rows whose main symmetry has the dilation shape: the classifying
    residual path and the prolongation path agree."""
    lam, mu, nu, sig, a = (sym("lam"), sym("mu"), sym("nu"), sym("sig"),
                           sym("a"))
    t, x1 = sym("t"), sym("x1")
    cases = []
    # T3.3: mu D - u du - v dv  -> C1 = 1
    F1, F2 = ker("F1", v / u), ker("F2", v / u)
    S = triangular(
        1, a, powe(u, mu + 1) * F1, powe(u, mu + 1) * F2)
    X = generator(1, eta=mu * t, xi=[mu * x1 / 2], phi_u=-u, phi_v=-v)
    cases.append((S, X, (rat(1), ZERO, ZERO, ZERO, mu)))
    # T2.8*: nu D - dv -> B2 = 1
    F1b, F2b = ker("F1", u), ker("F2", u)
    S2 = triangular(
        1, a, exp_(nu * v) * F1b, exp_(nu * v) * F2b)
    X2 = generator(1, eta=nu * t, xi=[nu * x1 / 2], phi_v=rat(-1))
    cases.append((S2, X2, (ZERO, ZERO, ZERO, rat(1), nu)))
    for S, X, data in cases:
        rep = is_symmetry(S, X)
        r1, r2 = classifying_residual_main(S, *data)
        classifying_holds = (bool(decide_equivalence(r1, ZERO))
                             and bool(decide_equivalence(r2, ZERO)))
        assert rep.holds == classifying_holds


def test_annotated_rows_fail_and_their_corrections_pass():
    rows = [r for r in load_rows() if r.annotation and r.status != "blocked"]
    assert rows, "corpus should carry its known-typo annotations"
    # spot-check a representative subset end to end
    spot = [r for r in rows if r.key in
            ("T2.10*", "T3.1*", "T5.4", "T7.1", "T8.12", "T10.12")]
    for row in spot:
        assert verify_row(row, seeds=(0,), m_values=row.m_list[:1]).status == "fail"
        fixed = apply_correction(row)
        assert verify_row(fixed, seeds=(0,), m_values=row.m_list[:1]).status == "pass"


def test_suite_gate(suite_report):
    rep = suite_report
    assert rep.exit_code == 0
    assert not rep.unannotated_failures
    assert rep.counts["blocked"] == 5
    assert rep.gate_pass_fraction >= 0.9


def test_suite_report_is_byte_identical(suite_report):
    """The seed-0 corpus report is pinned: counts, decision paths, residual
    texts and failing monomials all feed this digest."""
    text = json.dumps(suite_report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "89a60c5eb4302fa73d3b993cd3fc9161976e6ed2b23f6b1827891a27c8c85204")


def test_second_seed_report_is_pinned():
    """A second seed guards the report digest: seed 7 over Tables 3, 4 and
    10 draws other witnesses and other sample points."""
    text = json.dumps(run_suite(tables=[3, 4, 10], seed=7).to_json(),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6579135cbc1635d6c7e1e94552c346818375f86b6226b660e3b16386d167d96d")


def test_a_row_shares_one_expansion_table_and_drops_it(monkeypatch):
    row = next(r for r in load_rows() if r.key == "T4.3")
    tables = []

    def recording(*args, **kw):
        tables.append(expr._SHARED)
        return is_symmetry(*args, **kw)

    monkeypatch.setattr(rdsymm.verify, "is_symmetry", recording)
    for _ in range(2):
        verify_row(row, m_values=row.m_list[:1])
        assert expr._SHARED is None
    # every check of one call reads one table; the next call opens its own
    half = len(tables) // 2
    assert half > 1 and tables[0] and tables[half] is not tables[0]
    assert all(t is tables[0] for t in tables[:half])
    assert all(t is tables[half] for t in tables[half:])

    def failing(*args, **kw):
        raise RuntimeError("a check that raises")

    monkeypatch.setattr(rdsymm.verify, "is_symmetry", failing)
    with pytest.raises(RuntimeError):
        verify_row(row, m_values=row.m_list[:1])
    assert expr._SHARED is None


def test_a_row_table_keeps_each_kind_of_derivation(monkeypatch):
    row = next(r for r in load_rows() if r.key == "T4.3")
    tables = []

    def recording(*args, **kw):
        tables.append(expr._SHARED)
        return is_symmetry(*args, **kw)

    monkeypatch.setattr(rdsymm.verify, "is_symmetry", recording)
    verify_row(row, m_values=row.m_list[:1])
    assert expr._SHARED is None
    builds = {key[0] for key in tables[0] if type(key) is tuple
              and callable(key[0])}
    assert builds == {expr._derivative, ProlongedGenerator, total_derivatives}
    # the expansion walk's entries: the terms of nodes and of powers
    assert any(isinstance(key, expr.Expr) for key in tables[0])


def test_decision_sequence_is_pinned(monkeypatch):
    """Every claim check of the seed-0 suite keeps its verdict, decision
    path, sample counts and counterexamples: the numeric layer draws the
    same values in the same order."""
    checks = []

    def recording(*args, **kw):
        rep = is_symmetry(*args, **kw)
        checks.append((rep.verdict, rep.decision_path, [
            (d.samples, sorted((k, str(v)) for k, v in
                               (d.counterexample or {}).items()))
            for d in rep.decisions]))
        return rep

    monkeypatch.setattr(rdsymm.verify, "is_symmetry", recording)
    run_suite(seed=0)
    assert hashlib.sha256(json.dumps(checks).encode()).hexdigest() == (
        "a9aa044fbd7fe8e63fb957db714087d7d91f38e240410aa3ab0081a918dc764a")


def _instantiation_digest() -> str:
    """sha256 over every instantiated row: each non-blocked row at each
    applicable m, symbolic mode on every branch (seed 0) and witness mode at
    seeds 0-2; the systems (f1, f2, a, kernel rules) and the claims (label,
    generator coefficients, the claim's own system)."""
    h = hashlib.sha256()

    def put(*parts):
        h.update(("|".join(parts) + "\n").encode())

    def put_system(s):
        put(s.family, to_text(s.f1), to_text(s.f2), to_text(s.a))
        for r in s.rules:
            put(r.name, str(r.slot), str(r.order),
                *map(to_text, r.params), to_text(r.template))

    for row in load_rows():
        if row.status == "blocked":
            continue
        for m in row.m_list:
            plans = [("symbolic", 0, br) for br in symbolic_branches(row, m)]
            plans += [("witness", s, None) for s in (0, 1, 2)]
            for mode, seed, br in plans:
                inst = instantiate_row(row, seed, m, mode, branch=br)
                put(row.key, str(m), mode, str(seed))
                put_system(inst.system)
                for ci in inst.claims:
                    put(ci.label, *map(to_text, ci.generator.coeffs()))
                    put_system(ci.system)
    return h.hexdigest()


def test_instantiation_digest():
    """Row instantiation is pinned: the report digest only sees the
    residuals of failing claims, this one sees every system and generator."""
    assert _instantiation_digest() == (
        "ee20adbecedbf17a7b174b60bd100bf8577bdd96889347f4ce8140769002b723")


def test_numeric_crosscheck_is_pinned():
    """``numeric_residual_check`` keeps its verdict and its worst residual,
    to the last digit, on every witness claim of every non-blocked row at
    its first m: the points, the kernel values drawn at them and every
    evaluated value stay the same."""
    h = hashlib.sha256()
    for row in load_rows():
        if row.status == "blocked":
            continue
        m = row.m_list[0]
        for ci in instantiate_row(row, 0, m, "witness").claims:
            ok, worst = numeric_residual_check(ci.system, ci.generator,
                                               points=20, seed=0)
            h.update(f"{row.key}|{m}|{ci.label}|{ok}|{worst!r}\n".encode())
    assert h.hexdigest() == (
        "76c4508abdfbce0b2d598c40193f4588e4a3223b49cab722c7e0645a2d8eb5c0")


# rows whose residuals hand the equality layer the most terms to order
RESIDUAL_ROWS = ("T3.1*", "T4.3", "T10.10", "T10.12")

_RESIDUAL_REPORT = """if True:
    import json, sys
    from rdsymm.corpus import load_rows
    from rdsymm.verify import verify_row
    rows = {r.key: r for r in load_rows()}
    print(json.dumps([verify_row(rows[k], m_values=rows[k].m_list[:1])
                      .to_json() for k in sys.argv[1:]], sort_keys=True))
"""


def test_term_order_does_not_depend_on_ids_or_hash_seed():
    """Residual texts and failing monomials come out the same in this
    process, where the nodes have other ids, and in fresh processes under
    two hash seeds: term order is structural."""
    rows = {r.key: r for r in load_rows()}
    want = json.dumps([verify_row(rows[k], m_values=rows[k].m_list[:1])
                       .to_json() for k in RESIDUAL_ROWS], sort_keys=True)
    src = Path(rdsymm.__file__).resolve().parent.parent
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", _RESIDUAL_REPORT, *RESIDUAL_ROWS],
            env=env, check=True, capture_output=True, text=True).stdout
        assert out.strip() == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_corrected_t8_8_holds_exactly(m):
    row = apply_correction(next(r for r in load_table(8) if r.item == "8"))
    inst = instantiate_row(row, 0, m, "symbolic",
                           branch=symbolic_branches(row, m)[0])
    (ci,) = inst.claims
    # its residuals cancel only over the common denominator mu - 1
    rep = is_symmetry(ci.system, ci.generator)
    assert rep.holds, (rep.verdict, rep.decision_path)


def test_a_row_run_with_no_seed_is_refused():
    row = next(r for r in load_rows() if r.key == "T2.2")
    with pytest.raises(ValueError):
        verify_row(row, seeds=())


def test_a_repeated_m_is_checked_once():
    row = next(r for r in load_rows() if r.key == "T2.2")
    once = verify_row(row, m_values=[1])
    assert len(once.results) == 4
    assert verify_row(row, m_values=[1, 1]).results == once.results
    # in the order given
    both = verify_row(row, m_values=[2, 1, 2]).results
    assert [e["m"] for e in both] == sorted((e["m"] for e in both),
                                            reverse=True)


def test_a_repeated_seed_is_checked_once():
    row = next(r for r in load_rows() if r.key == "T2.2")
    once = verify_row(row, seeds=(0,))
    assert len(once.results) == 6
    assert verify_row(row, seeds=(0, 0)).results == once.results
    # in the order given: the first seed also drives the symbolic mode
    results = verify_row(row, seeds=(2, 0, 2), m_values=[1]).results
    assert [(e["mode"], e["seed"]) for e in results] == [
        ("symbolic", 2), ("witness", 2), ("witness", 0)]


@pytest.mark.parametrize("modes", [(), ("witnes",), ("symbolic", "x"),
                                   "symbolic"])
@pytest.mark.parametrize("key", ["T2.2", "T6.1"])
def test_an_empty_or_unknown_mode_is_refused(modes, key):
    # a blocked row (T6.1) is refused too, before it reports blocked
    row = next(r for r in load_rows() if r.key == key)
    with pytest.raises(ValueError, match="modes"):
        verify_row(row, modes=modes)
    with pytest.raises(ValueError, match="modes"):
        run_suite(tables=[row.table], modes=modes)


@pytest.mark.parametrize("filters", [{"m_values": ()}, {"items": []},
                                     {"items": ["1"], "m_values": []}])
def test_an_empty_filter_is_refused(filters):
    row = next(r for r in load_rows() if r.key == "T6.1")
    if "items" not in filters:
        with pytest.raises(ValueError, match="empty m_values"):
            verify_row(row, **filters)
    with pytest.raises(ValueError, match="empty"):
        run_suite(tables=[2], **filters)


@pytest.mark.parametrize("n", [1, 11, "2"])
def test_an_unknown_table_is_refused(n):
    with pytest.raises(ValueError, match="the tables are"):
        load_table(n)
    with pytest.raises(ValueError, match="the tables are"):
        load_rows([2, n])
    with pytest.raises(ValueError, match="the tables are"):
        run_suite(tables=[n])


def test_an_empty_tables_is_refused():
    with pytest.raises(ValueError, match="empty tables"):
        run_suite(tables=[])
    with pytest.raises(ValueError, match="empty tables"):
        run_suite(tables=(), items=["1"])


@pytest.mark.parametrize("n", [2.0, True, Fraction(2)])
def test_a_table_number_that_is_no_int_is_refused(n):
    # 2.0 == 2, but only an int names a table
    with pytest.raises(ValueError, match="the tables are"):
        load_table(n)
    with pytest.raises(ValueError, match="the tables are"):
        run_suite(tables=[n])


def test_one_load_parses_each_text_once(monkeypatch):
    """The rows of one load share one text table, so compiling every row
    at every m parses each distinct text once, into the nodes a fresh
    table per row gives."""
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(rdsymm.corpus, "parse", counting)
    rows = load_rows()
    assert all(r.texts is rows[0].texts for r in rows)
    fixed = apply_correction(next(r for r in rows if r.key == "T8.8"))
    assert fixed.texts is rows[0].texts
    templates = [(r, m, r.template(m)) for r in rows for m in r.m_list]
    assert parsed and len(parsed) == len(set(parsed))
    assert len(parsed) == len(rows[0].texts)

    def nodes(t):
        out = [t.f1, t.f2, *t.zero, *t.nonzero]
        out += [e for pair in t.derive for e in pair]
        out += [c for claim in t.claims for e in claim.conditions for c in e]
        out += [k.template for claim in t.claims for k in claim.kernel_sets]
        out += [c for claim in t.claims for _, g in claim.generators
                for c in g.coeffs()]
        return out

    for row, m, t in templates:
        fresh = rdsymm.corpus.compile_row(replace(row, texts={}), m)
        got, want = nodes(t), nodes(fresh)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want)), (row.key, m)


def test_a_suite_pauses_the_collector_once(monkeypatch):
    """``run_suite`` pauses the cyclic collector around its whole body
    (between rows too), each row opens its own derivation table, and the
    collector is back in its earlier state afterwards, also when a check
    raises."""
    seen = []
    check, row_run, load = (rdsymm.verify.is_symmetry,
                            rdsymm.verify.verify_row,
                            rdsymm.verify.load_rows)

    def loading(*args, **kw):
        seen.append(("load", gc.isenabled(), expr._SHARED))
        return load(*args, **kw)

    def running(*args, **kw):
        seen.append(("row", gc.isenabled(), expr._SHARED))
        return row_run(*args, **kw)

    def checking(*args, **kw):
        seen.append(("check", gc.isenabled(), expr._SHARED))
        return check(*args, **kw)

    monkeypatch.setattr(rdsymm.verify, "load_rows", loading)
    monkeypatch.setattr(rdsymm.verify, "verify_row", running)
    monkeypatch.setattr(rdsymm.verify, "is_symmetry", checking)
    n_rows = sum(1 in r.m_list for r in load_rows([2, 4]))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            run_suite(tables=[2, 4], m_values=(1,))
            assert gc.isenabled() is enabled
            kinds = [kind for kind, _, _ in seen]
            assert kinds[0] == "load" and kinds.count("row") == n_rows
            assert not any(paused for _, paused, _ in seen)
            # no table is open between rows; each row's checks read one
            assert all(table is None for kind, _, table in seen
                       if kind != "check")
            row_tables = []
            for kind, _, table in seen:
                if kind == "row":
                    row_tables.append([])
                elif kind == "check":
                    row_tables[-1].append(table)
            firsts = [ts[0] for ts in row_tables if ts]
            assert len(firsts) > 1
            assert all(t is ts[0] for ts in row_tables for t in ts)
            assert all(a is not b for a, b in zip(firsts, firsts[1:]))

        def failing(*args, **kw):
            raise RuntimeError("a check that raises")

        monkeypatch.setattr(rdsymm.verify, "is_symmetry", failing)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(RuntimeError):
                run_suite(tables=[2], m_values=(1,))
            assert gc.isenabled() is enabled and expr._SHARED is None
    finally:
        (gc.enable if was else gc.disable)()
