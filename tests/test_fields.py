import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from rdsymm.equality import decide_equivalence
from rdsymm import fields
from rdsymm.expr import (EMPTY_RULES, Jet, RuleSet, add, differentiate, exp_,
                         is_zero, jet, jets_in, ker, mul, rat,
                         shared_derivations, sym)
from rdsymm.jets import MAX_ORDER, JetOrderError, coords, total_derivative
from rdsymm.fields import (CauchyRiemannError, Generator, ProlongedGenerator,
                           commutator, generator, h_field, named_operator,
                           zero_generator)
from rdsymm.cli import dump_generator
from rdsymm.nmatrix import g1, g4, g5, g6, realized_symmetry
from rdsymm.parser import parse
from rdsymm.systems import heat_kernel_rule, prolonged_equations, triangular

u, v, t = jet("u"), jet("v"), sym("t")
x1, x2 = sym("x1"), sym("x2")
a = sym("a")


def _gen_eq(x: Generator, y: Generator) -> bool:
    return all(bool(decide_equivalence(p, q))
               for p, q in zip(x.coeffs(), y.coeffs()))


def test_translation_prolongs_to_zero():
    p0 = named_operator("P0", 2)
    pr = ProlongedGenerator(p0)
    for j in [jet("u", 1), jet("u", 0, (1, 1)), jet("v", 0, (1, 2))]:
        assert is_zero(pr.phi(j))


def test_constant_generator_has_no_higher_coefficients():
    g = generator(1, phi_u=rat(3), phi_v=rat(-2))
    pr = ProlongedGenerator(g)
    assert is_zero(pr.phi(jet("u", 0, (1,))))
    assert is_zero(pr.phi(jet("v", 1)))


def test_apply_to_differentiates_only_where_the_coefficient_is_nonzero(
        monkeypatch):
    u_t, u_xx = jet("u", 1), jet("u", 0, (1, 1))
    e = u_t - u_xx - x1 * x2 * u * v * exp_(t) - v * jet("v", 0, (2,))
    shift = named_operator("P", 2, index=2)
    pr = ProlongedGenerator(shift)
    want = add(*[mul(c, differentiate(e, s)) for s, c in
                 [(t, shift.eta), (x1, shift.xi[0]), (x2, shift.xi[1])]]
               + [mul(pr.phi(j), differentiate(e, j))
                  for j in jets_in(e)])
    atoms = []

    def counting(f, s, rules):
        atoms.append(s)
        return differentiate(f, s, rules)

    monkeypatch.setattr(fields, "differentiate", counting)
    assert pr.apply_to(e) is want
    assert atoms == [x2]

    # on a function of (t, x, u, v), pr X is X
    point = x1 * x2 * u * v * exp_(t) - v * v
    g = Generator(rat(0), (rat(0), x1), u, rat(0))
    atoms.clear()
    assert ProlongedGenerator(g).apply_to(point) is add(
        mul(x1, differentiate(point, x2)),
        mul(rat(-1), u, differentiate(point, u)))
    assert atoms == [x2, u]


def _reference_phi(g: Generator, rules: RuleSet = EMPTY_RULES):
    """phi^J by the recursion with every term built, zero or not, and added
    one at a time: m + 1 incremental adds after D_i phi^J."""
    m, memo = g.m, {}

    def phi(j: Jet):
        if j not in memo:
            if j.order == 0:
                out = g.phi(j.dep)
            else:
                if j.xs:
                    direction, parent = j.xs[-1], Jet(j.dep, j.nt, j.xs[:-1])
                else:
                    direction, parent = "t", Jet(j.dep, j.nt - 1, ())
                out = total_derivative(phi(parent), direction, m, rules)
                for toward, c in zip(("t", *range(1, m + 1)), (g.eta, *g.xi)):
                    d = total_derivative(c, direction, m, rules)
                    out = add(out, mul(rat(-1), d, parent.bump(toward)))
            memo[j] = out
        return memo[j]

    return phi


def _assert_phi_is_reference(g: Generator, rules: RuleSet = EMPTY_RULES):
    m = g.m
    js = [jet("u", 1), jet("v", 1), jet("u", 1, (1,)), jet("v", 2, (1, m))]
    js += [jet("u", 0, (i,)) for i in range(1, m + 1)]
    js += [jet("u", 0, (i, k)) for i in range(1, m + 1)
           for k in range(i, m + 1)]
    pr, reference = ProlongedGenerator(g, rules), _reference_phi(g, rules)
    for j in js:
        assert pr.phi(j) is reference(j), j


def _named_operators(m):
    xs = coords(m)
    H = {1: [x1 * x1 * x1], 2: [x1 * x1 - x2 * x2, 2 * x1 * x2]}
    ops = [named_operator("P0", m), named_operator("D", m),
           named_operator("Dtilde", m), named_operator("K", m, a=a),
           named_operator("G", m, a=a, index=m),
           named_operator("Ghat", m, a=a, gamma=sym("g"), index=1),
           h_field(m, H=H.get(m), lam_vec=[1, 0, -2][:m])]
    ops += [named_operator("P", m, index=i) for i in range(1, m + 1)]
    if m >= 2:
        ops.append(named_operator("J", m, index=1, index2=m))
    return ops


@pytest.mark.parametrize("m", [1, 2, 3])
def test_phi_is_the_full_recursion_for_named_operators(m):
    for g in _named_operators(m):
        _assert_phi_is_reference(g)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_phi_is_the_full_recursion_under_heat_kernel_rules(m):
    params = [t, *coords(m)]
    psi = ker("psi", *params)
    rules = RuleSet([heat_kernel_rule("psi", params, a, sym("nu"))])
    g = generator(m, eta=psi, xi=[mul(x1, psi)] + [t] * (m - 1),
                  phi_u=mul(psi, u), phi_v=mul(psi, v))
    _assert_phi_is_reference(g, rules)


def _polynomials(m):
    atoms = [t, u, v, *coords(m)]
    monomials = st.builds(
        lambda c, fs: mul(rat(c), *fs), st.integers(-3, 3),
        st.lists(st.sampled_from(atoms), max_size=2))
    return st.lists(monomials, max_size=3).map(lambda ts: add(*ts))


@st.composite
def _polynomial_generators(draw):
    m = draw(st.integers(1, 3))
    p = _polynomials(m)
    return Generator(draw(p), tuple(draw(p) for _ in range(m)), draw(p),
                     draw(p))


@settings(max_examples=40, deadline=None)
@given(_polynomial_generators())
def test_phi_is_the_full_recursion_for_random_polynomial_generators(g):
    _assert_phi_is_reference(g)


def _phis_or_errors(pr, m):
    out = []
    for j in [*(j for j in _jets_up_to_max_order(m) if j.order <= 2),
              jet("u", 0, (m + 1,))]:
        try:
            out.append(pr.phi(j))
        except JetOrderError as exc:
            out.append(type(exc))
    return out


def _heat_rules(m):
    """The heat kernel's relations at m, built afresh on every call."""
    return RuleSet([heat_kernel_rule("psi", [t, *coords(m)], a, sym("nu"))])


@settings(max_examples=40, deadline=None)
@given(st.lists(_polynomial_generators(), max_size=3),
       _polynomial_generators(), st.booleans())
def test_a_shared_prolongation_is_the_one_a_fresh_call_gives(warm, g, psi):
    # a table warmed with other generators, with g under other rules, with
    # g's coefficients but another pi2, and with an equal generator under
    # an equal rule set built apart gives every phi^J the very node (or the
    # error) that a prolongation outside any block gives
    if psi:
        g = g.map(lambda c: mul(c, ker("psi", t, *coords(g.m))))
    want = _phis_or_errors(Generator(g.eta, g.xi, g.pi1, g.pi2).prolonged(
        _heat_rules(g.m)), g.m)
    with shared_derivations():
        for w, rules in [*((w, _heat_rules(w.m)) for w in warm),
                         (g, EMPTY_RULES),
                         (Generator(g.eta, g.xi, g.pi1, add(g.pi2, v)),
                          _heat_rules(g.m))]:
            _phis_or_errors(w.prolonged(rules), w.m)
        twin = Generator(g.eta, g.xi, g.pi1, g.pi2)
        pr = twin.prolonged(_heat_rules(g.m))
        _phis_or_errors(pr, g.m)
        fresh = Generator(g.eta, g.xi, g.pi1, g.pi2)
        assert fresh.prolonged(_heat_rules(g.m)) is pr
        assert all(a is b for a, b in zip(_phis_or_errors(pr, g.m), want))
    assert fresh.prolonged(_heat_rules(g.m)) is pr
    assert Generator(g.eta, g.xi, g.pi1, g.pi2).prolonged() is not pr


def test_jets_are_checked_whatever_the_coefficients():
    for g in (zero_generator(2), named_operator("P", 2, index=1),
              generator(2, phi_u=u)):
        pr = ProlongedGenerator(g)
        for j in (jet("u", 0, (3,)), jet("v", 1, (1, 3)), jet("u", 0, (0,)),
                  jet("u", 0, (1,) * 5), jet("v", 5)):
            with pytest.raises(JetOrderError):
                pr.phi(j)


def test_shifts_prolong_without_a_total_derivative(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return total_derivative(*args)

    monkeypatch.setattr(fields, "total_derivative", counting)
    system = triangular(3, a, parse("u^2*exp(x1)"), parse("u*v + t*v^2"))
    for i in range(4):
        g = (named_operator("P", 3, index=i) if i
             else named_operator("P0", 3))
        prolonged_equations(system, g)
    assert calls == []
    prolonged_equations(system, named_operator("J", 3, index=1, index2=2))
    assert calls


def _jets_up_to_max_order(m):
    return [Jet(dep, nt, xs) for dep in "uv" for nt in range(MAX_ORDER + 1)
            for k in range(MAX_ORDER + 1 - nt)
            for xs in itertools.combinations_with_replacement(
                range(1, m + 1), k)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_prolonged_is_a_fresh_prolongation_for_named_operators(m):
    for g in _named_operators(m):
        pr, fresh = g.prolonged(EMPTY_RULES), ProlongedGenerator(g)
        assert (pr.m, pr.eta_xi, pr.rules) == (g.m, (g.eta, *g.xi),
                                               EMPTY_RULES)
        for j in _jets_up_to_max_order(m):
            assert pr.phi(j) is fresh.phi(j), (g, j)
        assert g.prolonged(EMPTY_RULES) is pr


def test_the_kept_prolongation_is_not_part_of_the_generator_value():
    g = named_operator("J", 2, index=1, index2=2)
    twin = Generator(g.eta, g.xi, g.pi1, g.pi2)
    before = repr(g)
    g.prolonged().phi(jet("u", 0, (1, 2)))
    assert g == twin and hash(g) == hash(twin) and repr(g) == before
    assert twin.prolonged() is not g.prolonged()


def test_a_dropped_generator_is_freed_with_its_prolongation():
    # pr X keeps X's coefficients, not X: no cycle waits for the collector
    gc.disable()
    try:
        g = named_operator("J", 2, index=1, index2=2)
        pr = g.prolonged()
        pr.phi(jet("u", 0, (1, 2)))
        refs = [weakref.ref(g), weakref.ref(pr)]
        del g, pr
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_jet_beyond_m_raises_on_every_call():
    g = named_operator("P", 2, index=1)
    system = triangular(2, a, jet("u", 0, (3,)), v)
    for _ in range(3):
        with pytest.raises(JetOrderError):
            g.prolonged().phi(jet("u", 0, (3,)))
        with pytest.raises(JetOrderError):
            prolonged_equations(system, g)


@pytest.mark.parametrize("coeff", range(4))
def test_a_coordinate_outside_the_dimension_in_x_raises(coeff):
    # x2 in a coefficient of a generator at m = 1 is no coordinate of it
    cs = [rat(0)] * 4
    cs[coeff] = sym("x2") * u
    g = Generator(cs[0], (cs[1],), cs[2], cs[3])
    for _ in range(2):
        with pytest.raises(JetOrderError, match="coordinate x2 outside"):
            ProlongedGenerator(g)
        with pytest.raises(JetOrderError, match="coordinate x2 outside"):
            prolonged_equations(triangular(1, a, u, v), g)
    cs[coeff] = x1 * u
    assert ProlongedGenerator(Generator(cs[0], (cs[1],), cs[2], cs[3])).m == 1


def test_scaling_prolongation_coefficient():
    # derived by hand: for D = t dt + x/2 dx, phi^u_x = -1/2 u_x
    d = named_operator("D", 1)
    pr = ProlongedGenerator(d)
    got = pr.phi(jet("u", 0, (1,)))
    assert got == mul(rat(-1, 2), jet("u", 0, (1,)))


def test_prolongation_linearity():
    X = generator(1, eta=t, xi=[x1 / 2], phi_u=-u, phi_v=-v)
    Y = generator(1, phi_v=u * exp_(t))
    j = jet("u", 0, (1, 1))
    a_, b_ = rat(3), rat(-2)
    lhs = ProlongedGenerator(X.scale(a_) + Y.scale(b_)).phi(j)
    rhs = a_ * ProlongedGenerator(X).phi(j) + b_ * ProlongedGenerator(Y).phi(j)
    assert bool(decide_equivalence(lhs, rhs))


def test_commutator_table_basics():
    p0 = named_operator("P0", 2)
    p1 = named_operator("P", 2, index=1)
    assert commutator(p0, p1).is_zero()
    # [D, P0] = -P0
    d = named_operator("D", 2)
    c = commutator(d, p0)
    assert _gen_eq(c, p0.scale(rat(-1)))


def test_a_jet_in_a_coefficient_brings_its_prolongation_into_the_bracket():
    # [u du, u_x1 dt] = pr(u du)(u_x1) dt = u_x1 dt; the order-zero action
    # of u du alone would give 0
    x = generator(1, phi_u=u)
    y = generator(1, eta=jet("u", 0, (1,)))
    assert commutator(x, y) == generator(1, eta=jet("u", 0, (1,)))


def test_commutator_antisymmetry_and_jacobi():
    rng = random.Random(1)

    def rand_gen():
        pool = [t, x1, u, v, rat(1), rat(2)]
        def pick():
            e = rng.choice(pool)
            return mul(rat(rng.randint(-2, 2)), e)
        return generator(1, eta=pick(), xi=[pick()], phi_u=pick(), phi_v=pick())

    for _ in range(5):
        X, Y, Z = rand_gen(), rand_gen(), rand_gen()
        assert _gen_eq(commutator(X, Y), commutator(Y, X).scale(rat(-1)))
        jac = (commutator(X, commutator(Y, Z))
               + commutator(Y, commutator(Z, X))
               + commutator(Z, commutator(X, Y)))
        assert _gen_eq(jac, zero_generator(1))


def test_named_operator_forms():
    p0 = named_operator("P0", 1)
    assert p0.eta == rat(1) and is_zero(p0.pi1)
    d = named_operator("D", 2)
    assert d.eta == t and d.xi[0] == x1 / 2 and d.xi[1] == x2 / 2
    dt = named_operator("Dtilde", 2)
    assert dt.eta == 3 * t and dt.xi[0] == 2 * x1 and dt.pi2 == v
    j = named_operator("J", 2, index=1, index2=2)
    assert j.xi[1] == x1 and j.xi[0] == -x2
    with pytest.raises(ValueError):
        named_operator("K", 1, a=rat(0))
    with pytest.raises(ValueError):
        named_operator("J", 1)


def test_cauchy_riemann_gate():
    ok = h_field(2, H=[x1, x2])
    assert not ok.is_zero()
    h_field(2, H=[x1 * x1 - x2 * x2, 2 * x1 * x2])
    with pytest.raises(CauchyRiemannError):
        h_field(2, H=[x1, x1])


def test_h_field_m_gt_2_form():
    # H^a = 2 lam_b x_b x_a - x^2 lam_a with lam = e_1, m = 3
    g = h_field(3, lam_vec=[1, 0, 0])
    x3 = sym("x3")
    expect0 = 2 * x1 * x1 - (x1 * x1 + x2 * x2 + x3 * x3)
    assert bool(decide_equivalence(g.xi[0], rat(6) * expect0))
    assert bool(decide_equivalence(g.xi[1], rat(6) * 2 * x1 * x2))


def test_serialization_round_trip():
    g = named_operator("K", 2, a=a)
    data = dump_generator(g)
    g2 = Generator(parse(data["eta"]),
                   tuple(parse(s) for s in data["xi"]),
                   parse(data["pi"][0]), parse(data["pi"][1]))
    assert _gen_eq(g, g2)


def test_ktilde_builds_and_extends_k():
    kt = named_operator("Ktilde", 1, a=a, lam=rat(3), p=rat(1))
    k = named_operator("K", 1, a=a)
    diff = kt - k
    # the extra part is (1/(lam-1)) (t(p u du + (2-lam) v dv) + u dv)
    assert bool(decide_equivalence(diff.pi1, mul(rat(-1, 2), t, u)))
    assert bool(decide_equivalence(
        diff.pi2, mul(rat(-1, 2), (t * (rat(-1)) * v + u))))


def test_one_dimensional_realizations_build():
    for g in (g1(), g4(), g5(), g6()):
        x = realized_symmetry(g, 2, kind="dilation", mu=rat(2))
        assert x.eta == 2 * t
    y = realized_symmetry(g1(), 1, kind="exponential", lam=rat(3))
    assert not y.is_zero()
    z = realized_symmetry(g1(), 2, kind="exp_wave", lam=rat(1), omega=[1, 2])
    assert not z.is_zero()
    w = realized_symmetry(g5(), 1, kind="dilation", mu=rat(1),
                          drift_version=True)
    assert w.eta == 3 * t
