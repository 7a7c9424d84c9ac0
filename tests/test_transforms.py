from collections import Counter

import pytest

from rdsymm.corpus import load_rows
from rdsymm.equality import decide_equivalence
from rdsymm.expr import (MINUS_ONE, T, U, V, ZERO, add, exp_, jet, ker, mul,
                         powe, rat, shared_derivations, substitute, sym)
from rdsymm.fields import Generator, generator, named_operator
from rdsymm.jets import coords
from rdsymm.nmatrix import (conjugate, g1, g2, g2_tilde, g3, g4, g5, g6,
                            nmatrix, realize)
from rdsymm.parser import parse
from rdsymm.systems import drift, is_symmetry, triangular
from rdsymm.transforms import (InapplicableTransform, LinearEquiv, PointMap,
                               VShift, aet, apply_equiv,
                               check_eqv3_admissible, preserves_class,
                               pushforward)
from rdsymm.verify import instantiate_row, symbolic_branches

u, v, t = jet("u"), jet("v"), sym("t")
x1 = sym("x1")
a, lam, mu, nu, sig, om = (sym("a"), sym("lam"), sym("mu"), sym("nu"),
                           sym("sig"), sym("om"))


def _sys_eq(s1, s2):
    return (bool(decide_equivalence(s1.f1, s2.f1))
            and bool(decide_equivalence(s1.f2, s2.f2)))


def test_linear_identity():
    S = triangular(2, a, parse("u^2"), parse("u*v"))
    assert _sys_eq(apply_equiv(S, LinearEquiv()), S)


def test_linear_group_property():
    S = triangular(2, a, parse("u^2"), parse("u*v + u"))
    L = LinearEquiv(K1=rat(2), K2=rat(3), b1=rat(1), b2=rat(-1), lam=rat(2))
    assert _sys_eq(apply_equiv(apply_equiv(S, L), L.inverse()), S)


def test_linear_closed_form_matches_mechanical_derivation():
    # f-transform law: f1 -> lam^2 K1 f1, f2 -> lam^2 (K1 f2 + K2 f1)
    S = triangular(1, a, parse("u^2"), parse("v^2"))
    L = LinearEquiv(K1=rat(3), K2=rat(2), lam=rat(2))
    out = apply_equiv(S, L)
    # substitute old variables via the inverse map into the stated law
    u_old = (u - rat(0)) / rat(3)
    v_old = (v - rat(2) * u_old) / rat(3)
    expect_f1 = rat(4) * rat(3) * (u_old * u_old)
    expect_f2 = rat(4) * (rat(3) * (v_old * v_old) + rat(2) * (u_old * u_old))
    assert bool(decide_equivalence(out.f1, expect_f1))
    assert bool(decide_equivalence(out.f2, expect_f2))


def test_aet1_reduces_n04_to_n03():
    f1 = lam * u * exp_(nu * v / u) + om * u
    f2 = exp_(nu * v / u) * (lam * v + sig * u) + om * v
    S = triangular(1, a, f1, f2)
    out = apply_equiv(S, aet(1, omega=-om))
    assert bool(decide_equivalence(out.f1, lam * u * exp_(nu * v / u)))
    assert bool(decide_equivalence(out.f2,
                                   exp_(nu * v / u) * (lam * v + sig * u)))


def test_vshift_chain_rule_oracle():
    # apply and re-derive by hand: v -> v + u^2 on a = 0
    S = triangular(1, 0, parse("u^2"), parse("v + u"))
    out = apply_equiv(S, VShift(u * u))
    # f2_new(u, v) = f2(u, v - Phi) + Phi'(u) f1(u, v - Phi)
    expect = (v - u * u) + u + 2 * u * (u * u)
    assert bool(decide_equivalence(out.f1, S.f1))
    assert bool(decide_equivalence(out.f2, expect))


def test_vshift_requires_a_zero():
    S = triangular(1, a, parse("u^2"), parse("u*v"))
    assert not preserves_class(S, VShift(u * u))


def test_eqv3_admissibility_examples():
    S = triangular(1, 0, ker("F1", u), ker("F2", u))
    ok, _ = check_eqv3_admissible(S, rat(5))
    assert ok
    ok, res = check_eqv3_admissible(S, t)
    assert ok
    ok, res = check_eqv3_admissible(S, t * t)
    assert not ok
    assert any(bool(decide_equivalence(r, rat(-2))) for r in res)
    # preconditions are reported distinctly from residual failure
    S_bad = triangular(1, 0, v, ker("F2", u))
    with pytest.raises(InapplicableTransform):
        check_eqv3_admissible(S_bad, t)


def test_eqv3_gates_vshift_full():
    S = triangular(1, 0, ker("F1", u), ker("F2", u))
    assert preserves_class(S, VShift(t))
    assert not preserves_class(S, VShift(t * t))


def test_aet_rows_on_cited_systems():
    # AET 2 on the Table 5 item 1 family (a != 0)
    S51 = triangular(2, a, lam * powe(v, nu + 1), mu * powe(v, nu + 1))
    assert preserves_class(S51, aet(2, omega=om, mu=sym("k"), m=2))
    # AET 3 on Table 4 item 1
    S41 = triangular(1, a, lam * u, sig * powe(u, mu))
    assert preserves_class(S41, aet(3, rho=om, mu=sym("k"), m=1))
    # AET 9 on the Table 5 item 4 family preserves 2v - u^2
    f1 = nu * exp_(lam * (2 * v - u * u))
    f2 = (nu * u + mu) * exp_(lam * (2 * v - u * u))
    S54 = triangular(1, a, f1, f2)
    assert preserves_class(S54, aet(9, rho=om))
    # AET 5 on Table 3 item 4 with nu = 0
    F1, F2 = ker("F1", u), ker("F2", u)
    S34 = triangular(1, a, F1 * u, F1 * v + F2)
    assert preserves_class(S34, aet(5, rho=om))


def test_all_aet_rows_build():
    for idx in range(1, 11):
        kw = {}
        for name in ("omega", "rho", "mu", "kappa", "lam", "eps"):
            kw[name] = rat(2)
        kw["m"] = 1
        pm = aet(idx, **{k: w for k, w in kw.items()
                         if k in _needed(idx)})
        assert pm is not None


def _needed(idx):
    return {1: ["omega"], 2: ["omega", "mu", "m"], 3: ["rho", "mu", "m"],
            4: ["rho"], 5: ["rho"], 6: ["omega", "kappa", "rho"],
            7: ["rho", "lam"], 8: ["rho", "eps"], 9: ["rho"],
            10: ["omega"]}[idx]


def _transport_example():
    F1 = ker("F1", u / v)
    F2 = ker("F2", u / v)
    S = triangular(1, a, powe(u, mu + 1) * F1, powe(v, mu + 1) * F2)
    X1 = generator(1, eta=mu * t, xi=[mu * x1 / 2], phi_u=-u, phi_v=-v)
    return S, X1


def test_symmetry_transport():
    S, X1 = _transport_example()
    assert is_symmetry(S, X1).holds
    for L in [LinearEquiv(K1=rat(3), K2=rat(2)),
              LinearEquiv(K1=rat(2), K2=rat(-1), lam=rat(3)),
              LinearEquiv(K1=rat(1), b1=rat(0), b2=rat(0), lam=rat(2))]:
        assert is_symmetry(apply_equiv(S, L), pushforward(X1, L)).holds


@pytest.mark.parametrize("mode", ["witness", "symbolic"])
def test_every_corpus_verdict_survives_the_linear_equivalences(mode):
    """X is a symmetry of S exactly when pushforward(X, L) is one of
    apply_equiv(S, L): every claim of every non-blocked row, at its first
    m and seed 0, keeps its verdict under three linear equivalences, and
    each transported holds is exact.  A drift system under K2 != 0 leaves
    its class (its image holds a u_x1 term)."""
    transforms = [LinearEquiv(K1=rat(3), K2=rat(2)),
                  LinearEquiv(K1=rat(2), K2=rat(-1), lam=rat(3)),
                  LinearEquiv(K1=rat(2), lam=rat(3))]
    tally = Counter()
    for row in load_rows():
        if row.status == "blocked":
            continue
        m = row.m_list[0]
        branch = symbolic_branches(row, m)[0] if mode == "symbolic" else None
        with shared_derivations():
            for ci in instantiate_row(row, 0, m, mode, branch=branch).claims:
                before = is_symmetry(ci.system, ci.generator).verdict
                for L in transforms:
                    try:
                        image = apply_equiv(ci.system, L)
                    except InapplicableTransform:
                        tally["inapplicable"] += 1
                        continue
                    after = is_symmetry(image, pushforward(ci.generator, L))
                    tally[before, after.verdict] += 1
                    assert not (after.holds
                                and "numeric" in after.decision_path)
    assert tally == {("holds", "holds"): 396, ("fails", "fails"): 93,
                     "inapplicable": 42}


def test_linear_scaling_carries_the_drift_magnitude():
    """u_t scales by lam^2 and v_{x_m} by lam, so the image of p is lam*p:
    the solution shift t du + x1 dv is carried to the image's symmetry."""
    S = drift(1, 1, ZERO, ZERO)
    X = generator(1, phi_u=t, phi_v=x1)
    L = LinearEquiv(lam=rat(3))
    assert is_symmetry(S, X).holds
    image = apply_equiv(S, L)
    assert image.p == rat(3)
    assert is_symmetry(image, pushforward(X, L)).holds
    assert not is_symmetry(S, pushforward(X, L)).holds


@pytest.mark.parametrize("transform", [
    LinearEquiv(K1=ZERO), LinearEquiv(lam=ZERO), PointMap(cu=ZERO),
    PointMap(cv=ZERO)], ids=["K1=0", "lam=0", "cu=0", "cv=0"])
@pytest.mark.parametrize("act", ["apply_equiv", "pushforward"])
def test_a_degenerate_transform_is_inapplicable(act, transform):
    S, X1 = _transport_example()
    with pytest.raises(InapplicableTransform, match="not invertible"):
        if act == "apply_equiv":
            apply_equiv(S, transform)
        else:
            pushforward(X1, transform)


def test_conjugation_is_the_pushforward_of_the_realization():
    """nmatrix's conjugation by U = L.matrix() and the pushforward through
    L are one group action: realize(U g U^-1) = pushforward(realize(g), L),
    coefficient by coefficient, for a fully symbolic L."""
    L = LinearEquiv(K1=sym("k1"), K2=sym("k2"), b1=sym("b1"), b2=sym("b2"),
                    lam=lam)
    gs = [g1(), g2(sym("l")), g2_tilde(), g3(), g4(), g4(sym("r")), g5(),
          g6(), nmatrix(sym("n1"), sym("n2"), sym("m1"), sym("m2"))]
    paths = Counter()
    for m in (1, 2):
        for g in gs:
            for got, want in zip(realize(conjugate(g, L), m).coeffs(),
                                 pushforward(realize(g, m), L).coeffs()):
                d = decide_equivalence(got, want)
                assert d.verdict == "equal", (g, m, got, want)
                paths[d.path] += 1
    assert "numeric" not in paths, paths


@pytest.mark.parametrize("L", [LinearEquiv(K1=rat(3), K2=rat(2)),
                               LinearEquiv(K1=rat(2), K2=rat(-1), lam=rat(3))],
                         ids=["K1=3,K2=2", "K1=2,K2=-1,lam=3"])
def test_transported_symmetry_holds_exactly(L):
    S, X1 = _transport_example()
    # the transported residuals cancel only over common denominators in u
    # and v
    rep = is_symmetry(apply_equiv(S, L), pushforward(X1, L))
    assert rep.holds, (rep.verdict, rep.decision_path)


def _linear_pushforward(x: Generator, tr: LinearEquiv) -> Generator:
    """The change of variables of a ``LinearEquiv`` written out by hand:
    pi1' = K1 pi1, pi2' = K1 pi2 + K2 pi1, eta' = lam^-2 eta, xi' = lam^-1
    xi, each at the old coordinates written in the new ones."""
    lam2 = mul(tr.lam, tr.lam)
    inv = tr.inverse()
    binding = {T: mul(lam2, T), U: add(mul(inv.K1, U), inv.b1),
               V: add(mul(inv.K1, V), mul(inv.K2, U), inv.b2),
               **{c: mul(tr.lam, c) for c in coords(x.m)}}

    def push(e):
        return substitute(e, binding)

    return Generator(mul(powe(lam2, MINUS_ONE), push(x.eta)),
                     tuple(mul(powe(tr.lam, MINUS_ONE), push(c))
                           for c in x.xi),
                     mul(tr.K1, push(x.pi1)),
                     add(mul(tr.K1, push(x.pi2)), mul(tr.K2, push(x.pi1))))


def test_pushforward_of_a_linear_transform_is_its_change_of_variables():
    gamma = sym("gamma")
    transforms = [
        LinearEquiv(K1=rat(3), K2=rat(2)),
        LinearEquiv(K1=rat(2), K2=rat(-1), b1=rat(1), b2=rat(-3), lam=rat(3)),
        LinearEquiv(K1=sym("k1"), K2=sym("k2"), b1=sym("b1"), b2=sym("b2"),
                    lam=sym("l"))]
    paths = Counter()
    for m in (1, 2, 3):
        ops = [named_operator(name, m, a=a, gamma=gamma)
               for name in ("P0", "P", "D", "Dtilde", "K", "G", "Ghat")]
        if m >= 2:
            ops.append(named_operator("J", m))
        for x in ops:
            for tr in transforms:
                for got, want in zip(pushforward(x, tr).coeffs(),
                                     _linear_pushforward(x, tr).coeffs()):
                    d = decide_equivalence(got, want)
                    assert d.verdict == "equal", (x, tr, got, want)
                    paths[d.path] += 1
    assert "numeric" not in paths and sum(paths.values()) == 348


def test_claimed_aets_carry_claimed_symmetries():
    """Each AET a row claims (index 1-10, unconditional) maps each claim
    that holds on the row's own system to one that holds on the
    transformed system: pushforward(X, T) is a symmetry of T(system)."""
    params = {name: sym(f"_{short}") for name, short in [
        ("omega", "om"), ("mu", "mu"), ("rho", "rho"), ("kappa", "kap"),
        ("lam", "lam"), ("eps", "eps")]}
    tally = Counter()
    for row in load_rows():
        indices = [c["index"] for c in row.aet
                   if 1 <= c["index"] <= 10 and "when" not in c]
        if row.status == "blocked" or not indices:
            continue
        m = row.m_list[0]
        inst = instantiate_row(row, 0, m, "symbolic",
                               branch=symbolic_branches(row, m)[0])
        claims = [ci for ci in inst.claims if ci.system is inst.system]
        for index in indices:
            tr = aet(index, m=m, **params)
            try:
                image = apply_equiv(inst.system, tr)
            except InapplicableTransform:
                tally["inapplicable"] += 1
                continue
            for ci in claims:
                if not is_symmetry(inst.system, ci.generator).holds:
                    tally["skipped"] += 1
                    continue
                rep = is_symmetry(image, pushforward(ci.generator, tr))
                tally[rep.verdict] += 1
    assert tally == {"holds": 44, "inapplicable": 6, "skipped": 4}
