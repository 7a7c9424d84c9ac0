import pytest
from hypothesis import given, settings, strategies as st

from rdsymm.expr import differentiate, exp_, jet, ker, powe, rat, sym
from rdsymm.parser import ParseError, parse, to_text

u, v = jet("u"), jet("v")


def test_spec_examples():
    assert parse("u^2 - 1") == u * u - 1
    assert parse("0") == rat(0)
    e = parse("lam*u^(nu+1)*exp(mu*v/u)")
    lam, nu, mu = sym("lam"), sym("nu"), sym("mu")
    assert e == lam * powe(u, nu + 1) * exp_(mu * v / u)


def test_jet_symbols():
    assert parse("u_t") == jet("u", 1)
    assert parse("v_tt") == jet("v", 2)
    assert parse("u_x1x2") == jet("u", 0, (1, 2))
    assert parse("u_x2x1") == jet("u", 0, (1, 2))
    assert parse("u_tx1") == jet("u", 1, (1,))
    assert to_text(jet("u", 1, (1, 2))) == "u_tx1x2"


def test_precedence_and_unary():
    assert parse("-u^2") == -(u * u)
    assert parse("2*u+3*v") == 2 * u + 3 * v
    assert parse("1/2*u") == rat(1, 2) * u
    assert parse("u^2^3") == powe(u, rat(8))  # right associative exponent
    assert parse("(u+v)^2") == powe(u + v, rat(2))


def test_kernel_calls():
    F = parse("F1(2*v-u^2)")
    assert F == ker("F1", 2 * v - u * u)
    W = parse("W(t,x1,u)")
    assert W.name == "W" and len(W.args) == 3
    dW = parse("W__d1_0_0(t,x1,u)")
    assert dW.dvec == (1, 0, 0)


def test_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("u + ")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("u + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("exp(u")
    assert ")" in err.value.expected
    with pytest.raises(ParseError):
        parse("u v")


_texts = st.sampled_from([
    "u^2 - 1", "lam*u^(nu+1)*exp(mu*v/u)", "u_t - a*u_x1x1",
    "sin(t)*u + cos(t)*v", "F1(u/v) + F2(u/v)*u^mu",
    "exp(nu*t + om1*x1)", "1/4*(mu-nu)^2 + lam*sig",
    "(2*v - u^2)^3 * ln(u)", "-3/4*u + v^(-2)",
])


@settings(max_examples=60, deadline=None)
@given(_texts)
def test_round_trip(text):
    e = parse(text)
    assert parse(to_text(e)) == e


def test_round_trip_derived_kernels():
    F = ker("F", u / v)
    d = differentiate(F, u)
    assert parse(to_text(d)) == d
