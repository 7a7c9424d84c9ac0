"""Acceptance criteria, one test per criterion, one printed verdict line
per criterion. All tolerances are pinned here: exact (zero residual through
the exact decision layers) unless stated, 1e-20 for the 60-digit numeric
cross-check."""

import random
from fractions import Fraction

from rdsymm.expr import (ZERO, add, exp_, is_zero, jet, ker, mul, powe, rat,
                         sym)
from rdsymm.equality import EQUAL, decide_equivalence
from rdsymm.fields import Generator, commutator, generator, named_operator
from rdsymm.nmatrix import (algebra_catalog, as_nmatrix, canonical_form,
                            closure_check, conjugate, fundamental_pair,
                            mat_commutator, nmatrix, pair_residuals,
                            realized_basis, wronskian_at_zero)
from rdsymm.systems import drift, extension_check, is_symmetry, triangular
from rdsymm.transforms import (LinearEquiv, VShift, aet, apply_equiv,
                               check_eqv3_admissible, preserves_class,
                               pushforward)
from rdsymm.verify import (apply_correction, instantiate_row,
                           numeric_residual_check, verify_row)
from rdsymm.corpus import load_rows

u, v, t = jet("u"), jet("v"), sym("t")
a, lam, mu, nu, sig = sym("a"), sym("lam"), sym("mu"), sym("nu"), sym("sig")

_numeric_recheck = []  # (label, system, generator) of symbolic holds


def _report(criterion, ok, detail=""):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def _random_polynomial(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = rat(rng.randint(-3, 3))
        pu, pv = rng.randint(0, 2), rng.randint(0, 2)
        terms.append(mul(c, powe(u, rat(pu)), powe(v, rat(pv))))
    return add(*terms)


def _kernel_generators(m, family="a_nonzero"):
    """Shifts and rotations; the drift family breaks isotropy along its
    preferred axis, so its rotations act on the first m-1 directions only."""
    gens = [("P0", named_operator("P0", m))]
    for i in range(1, m + 1):
        gens.append((f"P{i}", named_operator("P", m, index=i)))
    top = m if family != "drift" else m - 1
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            gens.append((f"J{i}{j}", named_operator("J", m, index=i, index2=j)))
    return gens


def test_criterion_1_kernel_symmetries():
    """100 randomized systems per family and m in {1,2,3}: every shift and
    rotation verifies, zero failures."""
    rng = random.Random(42)
    failures = 0
    checked = 0
    for m in (1, 2, 3):
        for fam in ("a_nonzero", "a_zero", "drift"):
            gens = _kernel_generators(m, fam)
            for trial in range(100):
                f1 = _random_polynomial(rng)
                f2 = _random_polynomial(rng)
                if fam == "a_nonzero":
                    S = triangular(m, rat(rng.choice([1, 2, -1, 3])), f1, f2)
                elif fam == "a_zero":
                    S = triangular(m, 0, f1, f2)
                else:
                    S = drift(m, 1, f1, f2)
                for name, g in gens:
                    rep = is_symmetry(S, g)
                    checked += 1
                    if not rep.holds:
                        failures += 1
                if trial == 0:
                    _numeric_recheck.append((f"c1-{fam}-m{m}", S, gens[0][1]))
    _report(1, failures == 0,
            f"{checked} kernel-generator checks, {failures} failures")


def test_criterion_2_table1_algebras():
    """A3,1..A3,4 and A4 structure constants exact at matrix level and at
    realized vector-field level."""
    ok = True
    for name in ("A3,1", "A3,2", "A3,3", "A3,4", "A4"):
        ap = algebra_catalog(name)
        fields = [realized_basis(g, 1) for g in ap.basis]
        ok &= closure_check(ap.basis, ap.brackets)
        ok &= closure_check(fields, ap.brackets)
        n = len(fields)
        # homomorphism check on the realized basis (matrix vs field bracket)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                lhs = commutator(fields[i], fields[j])
                rhs = realized_basis(as_nmatrix(mat_commutator(
                    ap.basis[i].matrix(), ap.basis[j].matrix())), 1)
                for x, y in [(lhs.pi1, rhs.pi1), (lhs.pi2, rhs.pi2)]:
                    if not decide_equivalence(x, y):
                        ok = False
    _report(2, ok, "matrix and realized structure constants exact")


def test_criterion_3_canonicalization():
    """1000 random rational matrices: label invariant under random
    conjugation + scaling; witness identity holds exactly."""
    rng = random.Random(7)
    bad = 0
    for _ in range(1000):
        g = nmatrix(*[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(4)])
        cf = canonical_form(g)
        got = conjugate(g, cf.witness).scale(cf.scale)
        for x, y in [(got.nu1, cf.canonical.nu1), (got.nu2, cf.canonical.nu2),
                     (got.mu1, cf.canonical.mu1), (got.mu2, cf.canonical.mu2)]:
            if not is_zero(add(x, mul(rat(-1), y))):
                bad += 1
        un = LinearEquiv(b1=rat(rng.randint(-4, 4)),
                         b2=rat(rng.randint(-4, 4)),
                         K1=rat(rng.choice([1, 2, 3, -1, -2])),
                         K2=rat(rng.randint(-4, 4)))
        g2c = conjugate(g, un).scale(Fraction(rng.choice([1, 2, -1, -3])))
        cf2 = canonical_form(g2c)
        if cf.label != cf2.label:
            bad += 1
        elif cf.label == "g4" and not is_zero(
                add(cf.invariant, mul(rat(-1), cf2.invariant))):
            bad += 1
    _report(3, bad == 0, f"1000 matrices, {bad} violations")


def _n03(m, muv, nuv, aval=a):
    f1 = lam * powe(u, muv + 1) * exp_(nuv * v / u)
    f2 = exp_(nuv * v / u) * (lam * v + sig * u) * powe(u, muv)
    return triangular(m, aval, f1, f2)


def test_criterion_4_worked_example_chain():
    """The worked-example chain: the scaling symmetry on the F1/F2 family,
    both main symmetries on the exponential family, and the Galilei boosts
    on the specialization, with the boost coefficient form resolved by
    direct prolongation. Residuals must vanish through the exact layers."""
    x1 = sym("x1")
    ok = True
    details = []
    F1 = ker("F1", u / v)
    F2 = ker("F2", u / v)
    S1 = triangular(1, a, powe(u, mu + 1) * F1, powe(v, mu + 1) * F2)
    X1 = generator(1, eta=mu * t, xi=[mu * x1 / 2], phi_u=-u, phi_v=-v)
    rep = is_symmetry(S1, X1)
    ok &= rep.holds
    _numeric_recheck.append(("c4-n01-X1", S1, X1))

    S3 = _n03(1, mu, nu)
    X2 = generator(1, eta=nu * t, xi=[nu * x1 / 2], phi_v=-u)
    for X in (X1, X2):
        rep = is_symmetry(S3, X)
        ok &= rep.holds
        _numeric_recheck.append(("c4-n03", S3, X))

    # Galilei: the admissibility condition resolved by direct check is
    # (exp coefficient) = a * (power coefficient); the printed mu = -a*nu
    # fails for every candidate boost form, which the suite records
    G = named_operator("G", 1, a=a)
    S6 = _n03(1, mu, a * mu)
    rep = is_symmetry(S6, G)
    ok &= rep.holds
    _numeric_recheck.append(("c4-n06-G", S6, G))
    details.append("corrected condition nu = a*mu passes exactly")

    S6_paper = _n03(1, mul(rat(-1), a, nu), nu)
    paper_fails = is_symmetry(S6_paper, G).verdict == "fails"
    flipped = Generator(G.eta, G.xi, mul(rat(-1), G.pi1), mul(rat(-1), G.pi2))
    flipped_fails = is_symmetry(S6_paper, flipped).verdict == "fails"
    ok &= paper_fails and flipped_fails
    details.append("printed mu = -a*nu fails under both boost orientations")

    ext = extension_check(S6)
    ok &= ext.galilei
    _report(4, ok, "; ".join(details))


def test_criterion_5_corpus_gate(suite_report):
    """Corpus gate: all unannotated rows pass with exact zero residual over
    >= 3 instantiations; every non-passing row carries a typo annotation
    with its minimal failing monomial; Table 6 reports blocked; annotated
    corrections verify."""
    rep = suite_report
    ok = rep.exit_code == 0 and not rep.unannotated_failures
    ok &= rep.gate_pass_fraction >= 0.90
    ok &= rep.counts["blocked"] == 5
    ok &= rep.counts["undecided"] == 0
    rows = {r.key: r for r in load_rows()}
    n_fail = 0
    for run in rep.runs:
        if run.status == "fail":
            n_fail += 1
            row = rows[run.row_key]
            ok &= row.annotation is not None
            ok &= any(e.get("failing_monomial") for e in run.results)
    # exactness: passing verdicts never leaned on the randomized layer
    for run in rep.runs:
        if run.status == "pass":
            for e in run.results:
                if e.get("verdict") == "holds":
                    ok &= "numeric" not in e["path"]
    # every annotated failing row's suspected correction verifies
    for run in rep.runs:
        if run.status == "fail":
            row = rows[run.row_key]
            if "corrected" in (row.annotation or {}):
                fixed = apply_correction(row)
                ok &= verify_row(fixed, seeds=(0,),
                                 m_values=fixed.m_list[:1]).status == "pass"
    _report(5, ok,
            f"pass {rep.counts['pass']}, annotated-fail {n_fail}, "
            f"blocked {rep.counts['blocked']}; gate fraction "
            f"{rep.gate_pass_fraction:.2f} over unannotated rows")


def test_criterion_6_fundamental_pairs():
    """200 random parameter quadruples over all three eigenvalue cases:
    back-substitution residuals exactly zero, Wronskian nonzero at t=0."""
    rng = random.Random(11)
    bad = 0
    count = {1: 0, 0: 0, -1: 0}
    for i in range(200):
        mode = i % 3
        if mode == 0:
            args = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                         for _ in range(4))
        elif mode == 1:  # repeated eigenvalue
            lamv = Fraction(rng.randint(-3, 3))
            if rng.random() < 0.5:
                args = (lamv, Fraction(0), Fraction(rng.randint(-3, 3)), lamv)
            else:
                args = (lamv, Fraction(rng.randint(1, 3)), Fraction(0), lamv)
        else:  # complex pair
            p = Fraction(rng.randint(-2, 2))
            q = rng.randint(1, 3)
            args = (p, Fraction(1), Fraction(-q * q), p)
        lamv, alpv, sigv, gamv = args
        disc = (lamv - gamv) ** 2 + 4 * alpv * sigv
        count[(disc > 0) - (disc < 0)] += 1
        fp = fundamental_pair(*args)
        for r in pair_residuals(fp, *args):
            if decide_equivalence(r, ZERO).verdict != EQUAL:
                bad += 1
        w = wronskian_at_zero(fp)
        if decide_equivalence(w, ZERO).verdict != "different":
            bad += 1
    all_cases = all(count[k] > 0 for k in count)
    _report(6, bad == 0 and all_cases,
            f"cases pos/zero/neg discriminant: {count[1]}/{count[0]}/{count[-1]}, "
            f"{bad} violations")


def test_criterion_7_equivalence_group():
    """Linear transforms compose and invert exactly; symmetry transport on
    20 corpus samples; AET rows preserve class on their cited systems; the
    admissibility system separates the three v-shift examples."""
    ok = True
    # compose and invert exactly
    rng = random.Random(3)
    S = triangular(1, a, powe(u, rat(2)), u * v)
    for _ in range(5):
        L = LinearEquiv(K1=rat(rng.choice([1, 2, 3, -2])),
                        K2=rat(rng.randint(-3, 3)),
                        b1=rat(rng.randint(-2, 2)), b2=rat(rng.randint(-2, 2)),
                        lam=rat(rng.choice([1, 2, -1])))
        out = apply_equiv(apply_equiv(S, L), L.inverse())
        for x, y in [(out.f1, S.f1), (out.f2, S.f2)]:
            ok &= bool(decide_equivalence(x, y))

    # symmetry transport on 20 corpus samples
    transported = 0
    rows = [r for r in load_rows() if r.status == "ok"
            and r.family in ("a_nonzero", "a_any", "a_zero")
            and not r.annotation]
    for row in rows:
        if transported >= 20:
            break
        m = row.m_list[0]
        inst = instantiate_row(row, 0, m, "witness")
        for ci in inst.claims:
            if transported >= 20:
                break
            if not is_symmetry(ci.system, ci.generator).holds:
                continue
            L = LinearEquiv(K1=rat(2), K2=rat(1), lam=rat(1))
            try:
                S2 = apply_equiv(ci.system, L)
            except Exception:
                continue
            ok &= is_symmetry(S2, pushforward(ci.generator, L)).holds
            transported += 1
    ok &= transported >= 20

    # AET rows preserve class on cited systems (exercised in the suite; a
    # representative sample re-run here)
    F1k, F2k = ker("F1", u), ker("F2", u)
    S51 = triangular(2, a, lam * powe(v, nu + 1), mu * powe(v, nu + 1))
    ok &= preserves_class(S51, aet(2, omega=sym("om"), mu=sym("k"), m=2))
    S41 = triangular(1, a, lam * u, sig * powe(u, mu))
    ok &= preserves_class(S41, aet(3, rho=sym("om"), mu=sym("k"), m=1))
    S34 = triangular(1, a, F1k * u, F1k * v + F2k)
    ok &= preserves_class(S34, aet(5, rho=sym("om")))
    Sz = triangular(1, 0, F1k, F2k)
    ok &= preserves_class(Sz, VShift(u * u))

    # admissibility separates the three v-shift examples
    okc, _ = check_eqv3_admissible(Sz, rat(5))
    okt, _ = check_eqv3_admissible(Sz, t)
    okt2, _ = check_eqv3_admissible(Sz, t * t)
    ok &= okc and okt and (not okt2)
    _report(7, ok, f"{transported} transported symmetries; eqv3 examples "
            "separate as constant/t admissible, t^2 inadmissible")


def test_criterion_8_numeric_cross_check():
    """For symbolic holds verdicts from criteria 1-5: the pre-reduction
    residual evaluated at 20 random points stays within 1e-20 in 60-digit
    arithmetic. Covers the worked-example chain, kernel-suite samples, and
    every passing corpus row's first claim."""
    checks = list(_numeric_recheck)
    rows = [r for r in load_rows() if r.status == "ok" and not r.annotation]
    for row in rows:
        m = row.m_list[0]
        inst = instantiate_row(row, 0, m, "witness")
        if inst.claims:
            ci = inst.claims[0]
            checks.append((row.key, ci.system, ci.generator))
    assert checks, "criterion 8 needs the earlier criteria to register checks"
    worst_overall = 0.0
    bad = []
    for label, S, g in checks:
        ok, worst = numeric_residual_check(S, g, points=20, seed=0)
        worst_overall = max(worst_overall, worst)
        if not ok:
            bad.append(label)
    _report(8, not bad,
            f"{len(checks)} residuals x 20 points, worst |residual| = "
            f"{worst_overall:.2e}" + (f"; failed: {bad[:5]}" if bad else ""))
