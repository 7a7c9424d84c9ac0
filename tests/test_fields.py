import random

import pytest

from rdsymm.equality import decide_equivalence
from rdsymm import fields
from rdsymm.expr import (add, differentiate, exp_, is_zero, jet, jets_in, mul,
                         rat, sym)
from rdsymm.fields import (CauchyRiemannError, Generator, ProlongedGenerator,
                           commutator, generator, h_field, named_operator,
                           zero_generator)
from rdsymm.cli import dump_generator
from rdsymm.nmatrix import g1, g4, g5, g6, realized_symmetry
from rdsymm.parser import parse

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

    g = Generator(rat(0), (rat(0), x1), u, rat(0))
    atoms.clear()
    assert g.apply_to(e) is add(mul(x1, differentiate(e, x2)),
                                mul(rat(-1), u, differentiate(e, u)))
    assert atoms == [x2, u]


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
