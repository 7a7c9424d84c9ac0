import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rdsymm import fields, systems
from rdsymm.equality import decide_equivalence
from rdsymm.expr import (ZERO, add, exp_, expand, is_zero, jet, jets_in, ker,
                         ln_, mul, powe, rat, shared_derivations, substitute,
                         sym, Add, Jet, RuleSet, term_parts, _from_parts)
from rdsymm.fields import Generator, generator, named_operator
from rdsymm.jets import JetOrderError, coords, total_derivative
from rdsymm.parser import parse, to_text
from rdsymm.systems import (FullSymmetryData, RDSystem,
                            classifying_residual_a0,
                            classifying_residual_drift,
                            classifying_residual_full,
                            classifying_residual_main, drift, drift_normalize,
                            evolution_reduce, extension_check,
                            heat_kernel_rule, is_symmetry,
                            prolonged_equations, symmetry_residual,
                            tjet_replacements, triangular)
from rdsymm.verify import minimal_failing_monomial

u, v, t = jet("u"), jet("v"), sym("t")
x1 = sym("x1")
a, lam, mu, nu, sig = sym("a"), sym("lam"), sym("mu"), sym("nu"), sym("sig")


def n03_system(m, muv, nuv, aval=a):
    f1 = lam * powe(u, muv + 1) * exp_(nuv * v / u)
    f2 = exp_(nuv * v / u) * (lam * v + sig * u) * powe(u, muv)
    return triangular(m, aval, f1, f2)


# -- spec operation examples -------------------------------------------------

def test_p0_always_symmetry():
    S = triangular(2, a, parse("u^2"), parse("u*v"))
    assert is_symmetry(S, named_operator("P0", 2)).holds


def test_table2_item5_symmetry():
    F = ker("F", u)
    S = triangular(1, rat(1), parse("u^2"), u * v + F)
    assert is_symmetry(S, generator(1, phi_v=u)).holds


def test_du_fails_with_linearization_oracle():
    S = triangular(1, rat(1), parse("u^2"), parse("u*v"))
    rep = is_symmetry(S, generator(1, phi_u=rat(1)))
    assert rep.verdict == "fails"
    # independent linearized-condition oracle with Q = (1, 0):
    # r1 = D_t(1) - a*Lap(1) - f1_u*1 = -2u
    assert bool(decide_equivalence(rep.residuals[0], -2 * u))


def test_failing_side_and_its_sampled_expansion():
    S = triangular(1, rat(1), parse("u^2"), parse("u*v"))
    rep = is_symmetry(S, generator(1, phi_v=v * v))
    assert [d.verdict for d in rep.decisions] == ["equal", "different"]
    bad, decision = rep.failing
    assert bad is rep.residuals[1] and decision is rep.decisions[1]
    assert rep.counterexample and rep.counterexample == decision.counterexample
    # the failure report reads the decision's expansion instead of
    # expanding the residual again
    expanded = expand(bad)
    assert decision.sampled == expanded and decision.sampled != bad
    first = expanded.terms[0] if isinstance(expanded, Add) else expanded
    assert minimal_failing_monomial(decision.sampled) == to_text(first)


def test_undecided_when_every_sample_leaves_the_domain():
    # ln(-1 - u^2) has no real value anywhere: the numeric layer gets no
    # sample, and a claim neither shown equal nor different is undecided
    S = triangular(1, 1, ln_(-1 - u * u), ZERO)
    rep = is_symmetry(S, generator(1, phi_u=-u, phi_v=-v))
    assert rep.verdict == "undecided" and not rep.holds
    assert rep.decision_path == "numeric+normalize"
    assert rep.decisions[0].note == "all 32 points hit domain errors"


def test_failing_is_none_when_the_claim_holds():
    S = triangular(2, a, parse("u^2"), parse("u*v"))
    rep = is_symmetry(S, named_operator("P0", 2))
    assert rep.holds and rep.failing is None and rep.counterexample is None


def test_one_rhs_build_per_system(monkeypatch):
    # the system keeps its rhs: checking it against its shifts, a rotation
    # and a dilation, whose prolonged equations hold t-jets, builds the
    # linear part once
    builds = []
    linear = RDSystem.linear
    monkeypatch.setattr(RDSystem, "linear",
                        lambda self: builds.append(self) or linear(self))
    S = triangular(2, a, parse("u^2"), parse("u*v"))
    gens = [named_operator("P0", 2), named_operator("P", 2, index=1),
            named_operator("P", 2, index=2),
            named_operator("J", 2, index=1, index2=2)]
    assert all(is_symmetry(S, g).holds for g in gens)
    D = named_operator("D", 2)
    assert all(any(j.nt for j in jets_in(r))
               for r in prolonged_equations(S, D))
    assert is_symmetry(S, D).verdict == "fails"
    assert builds == [S]


def test_a_replaced_system_builds_its_own_rhs():
    S = triangular(1, a, parse("u^2"), parse("u*v"))
    kept = S.rhs()
    assert S.rhs() is kept
    other = replace(S, f2=parse("v^2"))
    assert other.rhs() == triangular(1, a, parse("u^2"), parse("v^2")).rhs()
    assert other.rhs()[1] is not kept[1]


def test_the_kept_rhs_is_not_part_of_the_value():
    S, twin = (triangular(1, a, parse("u^2"), parse("u*v")) for _ in range(2))
    before = hash(S), repr(S)
    S.rhs()
    assert (hash(S), repr(S)) == before
    assert S == twin and hash(S) == hash(twin) and repr(S) == repr(twin)
    assert "_rhs" not in repr(S)


def test_rotations_hold_for_any_point_nonlinearity():
    F1 = ker("F1", u, v)
    F2 = ker("F2", u, v)
    S = triangular(2, a, F1, F2)
    J = named_operator("J", 2, index=1, index2=2)
    assert is_symmetry(S, J).holds


def _fresh(x: Generator) -> Generator:
    """An equal generator that has not been prolonged yet."""
    return Generator(x.eta, x.xi, x.pi1, x.pi2)


def test_one_generator_against_systems_with_other_rules():
    params = [t, *coords(2)]
    psi = ker("psi", *params)
    f1, f2 = parse("u^2"), mul(psi, v)
    A = triangular(2, a, f1, f2)
    B = triangular(2, a, f1, f2,
                   rules=RuleSet([heat_kernel_rule("psi", params, a, nu)]))
    X = generator(2, eta=psi, xi=[mul(x1, psi), t], phi_u=mul(psi, u))
    got = {}
    for S in (A, B, A):
        r = symmetry_residual(S, X)
        assert r == symmetry_residual(S, _fresh(X))
        got.setdefault(S.rules, r)
        assert got[S.rules] == r
    assert got[A.rules] != got[B.rules]


def _rhs_polynomials(m):
    atoms = [u, v, t, *coords(m), jet("u", 0, (1,)), jet("v", 0, (m,)),
             jet("u", 0, (1, m)), ker("psi", t, *coords(m))]
    monomials = st.builds(
        lambda c, fs: mul(rat(c), *fs), st.integers(-3, 3),
        st.lists(st.sampled_from(atoms), max_size=3))
    return st.lists(monomials, max_size=3).map(lambda ts: add(*ts))


@st.composite
def _systems(draw):
    """A system whose heat-kernel rules are built afresh on every draw."""
    m = draw(st.integers(1, 2))
    p = _rhs_polynomials(m)
    rules = RuleSet([heat_kernel_rule("psi", [t, *coords(m)], a, nu)])
    family = triangular if draw(st.booleans()) else drift
    return family(m, draw(st.sampled_from([a, rat(2)])), draw(p), draw(p),
                  rules)


def _replacements_or_errors(system):
    out = []
    for j in (Jet(dep, nt, xs) for dep in "uv" for nt in (1, 2, 4)
              for xs in ((), (1,), (1, system.m))):
        try:
            out.append(tjet_replacements(system, [j])[j])
        except JetOrderError as exc:
            out.append(type(exc))
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(_systems(), max_size=2), _systems())
def test_a_shared_tjet_replacement_is_the_one_a_fresh_call_gives(warm,
                                                                 system):
    # a table warmed with other systems and with an equal system built
    # apart gives each t-jet the very replacement (or the error) that a
    # call outside any block gives
    want = _replacements_or_errors(system)
    with shared_derivations():
        for w in [*warm, replace(system, rules=RuleSet(system.rules))]:
            _replacements_or_errors(w)
        got = _replacements_or_errors(system)
    assert all(x is y for x, y in zip(got, want))


def test_a_second_system_with_the_same_rules_prolongs_nothing(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return total_derivative(*args)

    monkeypatch.setattr(fields, "total_derivative", counting)
    J = named_operator("J", 3, index=1, index2=3)
    first = triangular(3, a, parse("u^2*x2"), parse("u*v"))
    second = drift(3, rat(2), parse("u*v^3"), ker("F", u, v))
    symmetry_residual(first, J)
    assert calls
    calls.clear()
    r = symmetry_residual(second, J)
    assert calls == []
    assert r == symmetry_residual(second, _fresh(J))


def test_tjet_replacements_is_a_closed_schedule_lowest_order_first():
    # D_t(u_xx + uv) mentions u_txx, u_t and v_t: all three are scheduled
    # before u_tt, and v_tx1, asked for, between them
    S = triangular(1, 1, u * v, u)
    want = [jet("u", 1), jet("v", 1), jet("v", 1, (1,)), jet("u", 1, (1, 1)),
            jet("u", 2)]
    for seed in range(4):
        tjets = [jet("u", 2), jet("v", 1, (1,)), jet("u", 1)]
        random.Random(seed).shuffle(tjets)
        schedule = tjet_replacements(S, tjets)
        assert list(schedule) == want
        before = set()
        for j, r in schedule.items():
            assert {k for k in jets_in(r) if k.nt} <= before
            before.add(j)


@pytest.mark.parametrize("f1, f2", [
    (jet("u", 1), v), (u, mul(v, jet("u", 1, (1,)))),
    (ker("F", jet("v", 2)), u)], ids=["u_t", "u_tx1", "v_tt_in_a_kernel"])
def test_a_right_hand_side_with_a_t_jet_is_rejected(f1, f2):
    for build in (lambda: triangular(1, a, f1, f2),
                  lambda: drift(1, rat(1), f1, f2),
                  lambda: RDSystem(1, "triangular", f2, f1)):
        with pytest.raises(ValueError, match="t-derivative"):
            build()


@pytest.mark.parametrize("field", ["f1", "f2", "a", "p"])
def test_a_coordinate_outside_the_dimension_is_rejected(field):
    # x2 at m = 1 is refused as u_x2 is, not read as a constant
    def build(m, x):
        parts = {"f1": u, "f2": v, "a": a, "p": rat(1), field: x * u}
        return RDSystem(m, "drift" if field == "p" else "triangular",
                        parts["f1"], parts["f2"], a=parts["a"], p=parts["p"])

    for m, name in ((1, "x2"), (2, "x3"), (2, "x0")):
        with pytest.raises(ValueError, match=f"coordinate {name} outside"):
            build(m, sym(name))
    assert build(2, sym("x2")).m == 2


def test_an_unknown_family_is_refused_when_the_system_is_built():
    with pytest.raises(ValueError, match="unknown family 'diagonal'"):
        RDSystem(1, "diagonal", u, v)
    S = RDSystem(1, "drift", u, v)
    with pytest.raises(ValueError, match="unknown family 'diagonal'"):
        replace(S, family="diagonal")


@pytest.mark.parametrize("tjet, passes", [
    (jet("u", 2), 2), (jet("u", 1, (1,)), 1)], ids=["u_tt", "u_tx1"])
def test_evolution_reduce_takes_one_pass_per_t_order(monkeypatch, tjet,
                                                     passes):
    # a replacement of a jet with nt = k holds t-jets of order k - 1 at most
    S = triangular(1, a, u * u * v, u * v * v + exp_(u))
    calls = []

    def counting(e, binding):
        calls.append(e)
        return substitute(e, binding)

    monkeypatch.setattr(systems, "substitute", counting)
    out = evolution_reduce(tjet * v + u, S)
    assert not any(j.nt for j in jets_in(out))
    assert len(calls) == passes


# -- drift normalization -----------------------------------------------------

def test_drift_normalize_examples():
    dn = drift_normalize([0, 1])
    assert not dn.degenerate and dn.p_norm == rat(1)
    dn2 = drift_normalize([3, 4])
    assert dn2.p_norm == rat(5)
    # rotation maps p to (0, |p|): verify numerically
    p = [rat(3), rat(4)]
    rotated = [add(*[mul(dn2.rotation[i][j], p[j]) for j in range(2)])
               for i in range(2)]
    assert is_zero(rotated[0]) and rotated[1] == rat(5)
    # orthogonality
    rt_r = [[add(*[mul(dn2.rotation[k][i], dn2.rotation[k][j])
                   for k in range(2)]) for j in range(2)] for i in range(2)]
    assert rt_r[0][0] == rat(1) and rt_r[1][1] == rat(1)
    assert is_zero(rt_r[0][1])
    dn3 = drift_normalize([0, 0])
    assert dn3.degenerate


# -- worked-example chain ----------------------------------------------------

def test_n01_main_symmetry():
    F1 = ker("F1", u / v)
    F2 = ker("F2", u / v)
    S = triangular(1, a, powe(u, mu + 1) * F1, powe(v, mu + 1) * F2)
    X1 = generator(1, eta=mu * t, xi=[x1 / 2 * mu], phi_u=-u, phi_v=-v)
    assert is_symmetry(S, X1).holds
    r1, r2 = classifying_residual_main(S, rat(1), ZERO, ZERO, ZERO, mu)
    assert bool(decide_equivalence(r1, ZERO))
    assert bool(decide_equivalence(r2, ZERO))


def test_n03_x1_x2():
    S = n03_system(1, mu, nu)
    X1 = generator(1, eta=mu * t, xi=[mu * x1 / 2], phi_u=-u, phi_v=-v)
    X2 = generator(1, eta=nu * t, xi=[nu * x1 / 2], phi_v=-u)
    assert is_symmetry(S, X1).holds
    assert is_symmetry(S, X2).holds
    # the classifying route for X2 reproduces the worked display
    r1, r2 = classifying_residual_main(S, ZERO, rat(1), ZERO, ZERO, nu)
    assert bool(decide_equivalence(r1, ZERO))
    assert bool(decide_equivalence(r2, ZERO))


def test_galilei_condition_resolved_by_direct_check():
    """The boost form and its admissibility condition, resolved by direct
    prolongation: nu = a*mu passes, the printed mu = -a*nu fails."""
    G = named_operator("G", 1, a=a)
    S_good = n03_system(1, mu, a * mu)
    assert is_symmetry(S_good, G).holds
    S_paper = n03_system(1, mul(rat(-1), a, nu), nu)
    assert is_symmetry(S_paper, G).verdict == "fails"
    # the sign-flipped weight (as printed) fails even on the consistent family
    wrong = Generator(ZERO, (t,), G.pi1.scale if False else mul(rat(-1), G.pi1),
                      mul(rat(-1), G.pi2))
    assert is_symmetry(S_good, wrong).verdict == "fails"


def test_conformal_condition_mu_equals_4_over_m():
    for m in (1, 2):
        K = named_operator("K", m, a=a)
        S = n03_system(m, rat(4, m), a * rat(4, m))
        assert is_symmetry(S, K).holds
        S_bad = n03_system(m, rat(4, m) + 1, a * (rat(4, m) + 1))
        assert is_symmetry(S_bad, K).verdict == "fails"


def test_extension_check_chain():
    assert extension_check(n03_system(1, mu, a * mu)).galilei
    assert extension_check(n03_system(2, rat(2), 2 * a)).conformal
    ext = extension_check(n03_system(1, mu, nu))
    assert not ext.galilei and not ext.conformal and not ext.exp_galilei
    # linear case: all three condition systems are satisfiable
    ext0 = extension_check(triangular(1, a, ZERO, ZERO))
    assert ext0.galilei and ext0.conformal and ext0.exp_galilei


def test_exp_galilei_gamma_detection():
    F1 = ker("F1", u * exp_(v / u))
    F2 = ker("F2", u * exp_(v / u))
    f1 = u * F1 - nu * v
    f2 = u * F2 + v * F1 + nu * (v - v * v / u)
    S = triangular(1, rat(1), f1, f2)
    ext = extension_check(S)
    assert ext.exp_galilei and bool(decide_equivalence(ext.gamma, nu))
    Gh = named_operator("Ghat", 1, a=rat(1), gamma=nu)
    assert is_symmetry(S, Gh).holds


@pytest.mark.parametrize("p, admitted", [("nu", True), ("xnu", True),
                                         ("x1", False)])
def test_exp_galilei_rate_is_any_symbol_but_a_coordinate(p, admitted):
    # a parameter whose name starts with x is not the coordinate x1
    S = triangular(1, a, parse(f"{p}*u*ln(u)"),
                   parse(f"{p}*v*ln(u) - {p}*u*ln(u)/a"))
    ext = extension_check(S)
    assert ext.exp_galilei is admitted
    assert ext.gamma == (sym(p) if admitted else None)


# -- classifying equations ---------------------------------------------------

def test_full_reduces_to_main():
    F1 = ker("F1", u / v)
    F2 = ker("F2", u / v)
    S = triangular(2, a, powe(u, mu + 1) * F1, powe(v, mu + 1) * F2)
    rm = classifying_residual_main(S, rat(1), ZERO, ZERO, ZERO, mu)
    rf = classifying_residual_full(S, FullSymmetryData(C1=rat(1), mu=mu))
    assert bool(decide_equivalence(rm[0], rf[0]))
    assert bool(decide_equivalence(rm[1], rf[1]))


def test_full_zero_data_is_zero():
    S = triangular(2, a, parse("u^2"), parse("u*v"))
    r1, r2 = classifying_residual_full(S, FullSymmetryData())
    assert is_zero(r1) and is_zero(r2)


def test_full_galilei_and_conformal_sectors():
    S = n03_system(2, mu, a * mu, a)
    rf = classifying_residual_full(
        S, FullSymmetryData(sigma=(sym("s1"), sym("s2"))))
    assert bool(decide_equivalence(rf[0], ZERO))
    assert bool(decide_equivalence(rf[1], ZERO))
    Sc = n03_system(2, rat(2), 2 * a, a)
    rc = classifying_residual_full(Sc, FullSymmetryData(lam=sym("c")))
    assert bool(decide_equivalence(rc[0], ZERO))
    assert bool(decide_equivalence(rc[1], ZERO))


def test_drift_classifying_table7_item1():
    w = v * powe(u, -mu - 1)
    S = drift(2, 1, powe(u, 1 + 3 * mu) * ker("F1", w),
              powe(u, 1 + 4 * mu) * ker("F2", w))
    r1, r2 = classifying_residual_drift(S, rat(1), ZERO, ZERO, mu)
    assert bool(decide_equivalence(r1, ZERO))
    assert bool(decide_equivalence(r2, ZERO))
    rbad = classifying_residual_drift(S, rat(1), ZERO, ZERO, mu + 1)
    assert not bool(decide_equivalence(rbad[0], ZERO))
    with pytest.raises(ValueError):
        classifying_residual_drift(drift(1, 2, ZERO, ZERO), ZERO, ZERO, ZERO, ZERO)


def test_drift_trivial_data():
    S = drift(1, 1, ker("F1", u, v), ker("F2", u, v))
    r1, r2 = classifying_residual_drift(S, ZERO, ZERO, ZERO, ZERO)
    assert is_zero(r1) and is_zero(r2)


def test_a0_classifying_table8_item4():
    weu = v * exp_(u)
    S = triangular(2, 0, ker("F1", weu) * powe(v, mu - 1),
                   ker("F2", weu) * powe(v, mu))
    r1, r2 = classifying_residual_a0(S, mu, ZERO, rat(1), None, rat(-1),
                                     ZERO, ZERO)
    assert bool(decide_equivalence(r1, ZERO))
    assert bool(decide_equivalence(r2, ZERO))
    # prolongation path agrees
    X = generator(2, eta=mu * t - t, xi=[mu * x1 / 2, mu * sym("x2") / 2],
                  phi_u=rat(1), phi_v=-v)
    assert is_symmetry(S, X).holds


def test_a0_classifying_table10_item5():
    S = triangular(1, 0, lam * exp_(v), sig * exp_(v))
    # D - dv: alpha=1, N=M=0, B2 = 1
    r1, r2 = classifying_residual_a0(S, rat(1), ZERO, ZERO, None, ZERO,
                                     rat(1), ZERO)
    assert bool(decide_equivalence(r1, ZERO))
    assert bool(decide_equivalence(r2, ZERO))
    zero = classifying_residual_a0(S, ZERO, ZERO, ZERO, None, ZERO, ZERO, ZERO)
    assert is_zero(zero[0]) and is_zero(zero[1])


# -- determining-equation reproduction ---------------------------------------

def _jet_coeffs(e):
    e = expand(e)
    groups = defaultdict(list)
    terms = e.terms if isinstance(e, Add) else [e]
    for term in terms:
        coeff, pairs = term_parts(term)
        jetpart, rest = [], []
        if pairs:
            for b, x in pairs:
                if isinstance(b, Jet) and b.order > 0:
                    jetpart.append((to_text(b), to_text(x)))
                else:
                    rest.append((b, x))
        groups[tuple(sorted(jetpart))].append(
            _from_parts(coeff, tuple(rest) if rest else None))
    return {k: add(*vs) for k, vs in groups.items()}


def test_determining_equations_reproduced():
    """General eta(t,x,u,v), xi, pi: the jet-monomial coefficients of the
    reduced residual force the first determining set (coefficients are unit
    multiples of the u- and v-derivatives of eta and xi)."""
    eta = ker("eta", t, x1, u, v)
    xi1 = ker("xi1", t, x1, u, v)
    pi1 = ker("pi1", t, x1, u, v)
    pi2 = ker("pi2", t, x1, u, v)
    S = triangular(1, a, ker("f1", u, v), ker("f2", u, v))
    X = Generator(eta, (xi1,), pi1, pi2)
    r1, _ = symmetry_residual(S, X)
    coeffs = _jet_coeffs(r1)

    def d(name, dt_, dx_, du_, dv_):
        return ker(name, t, x1, u, v, dvec=(dt_, dx_, du_, dv_))

    # eta_u and eta_v forced to vanish by third-order monomials
    got = coeffs[(("u_x1", "1"), ("u_x1x1x1", "1"))]
    assert bool(decide_equivalence(got, 2 * a * a * d("eta", 0, 0, 1, 0)))
    got = coeffs[(("u_x1x1x1", "1"), ("v_x1", "1"))]
    assert bool(decide_equivalence(got, 2 * a * a * d("eta", 0, 0, 0, 1)))
    # xi_u, xi_v forced by cubic first-order monomials
    got = coeffs[(("u_x1", "3"),)]
    assert bool(decide_equivalence(got, a * d("xi1", 0, 0, 2, 0)))
    got = coeffs[(("u_x1", "2"), ("v_x1", "1"))]
    assert bool(decide_equivalence(got, 2 * a * d("xi1", 0, 0, 1, 1)))
    # the lone order-3 monomial pins eta_x = 0 (eta a function of t only)
    got = coeffs[(("u_x1x1x1", "1"),)]
    assert bool(decide_equivalence(got, 2 * a * a * d("eta", 0, 1, 0, 0)))
    # with eta(t), xi(t,x) and pi linear in (u, v), all order-3 jets drop out
    eta2 = ker("eta", t)
    xi2 = ker("xi1", t, x1)
    N11, B1 = ker("N11", t, x1), ker("B1", t, x1)
    X2 = Generator(eta2, (xi2,), add(mul(N11, u), B1), ZERO)
    r1b, _ = symmetry_residual(S, X2)
    cb = _jet_coeffs(r1b)
    for key in cb:
        assert all("x1x1x1" not in o for o, _ in key), \
            "order-3 jets must drop out once eta depends on t alone"


def test_violating_generators_fail():
    S = triangular(1, a, ker("f1", u, v), ker("f2", u, v))
    bad_eta = Generator(u, (ZERO,), ZERO, ZERO)
    assert is_symmetry(S, bad_eta).verdict == "fails"
    bad_pi = generator(1, phi_u=u * u)
    assert is_symmetry(S, bad_pi).verdict == "fails"
