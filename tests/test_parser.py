import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rdsymm
from rdsymm.expr import (ExprError, differentiate, exp_, jet, ker, powe, rat,
                         sym)
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


@pytest.mark.parametrize("name", ["u_xx", "v_y", "u_xxxxx", "u_1", "v_",
                                  "u_tx", "v_x1y"])
def test_a_malformed_jet_name_is_not_a_parameter(name):
    with pytest.raises(ParseError) as err:
        parse(f"2*{name} + 1")
    assert err.value.offset == 2 and repr(name) in str(err.value)


def test_names_that_only_resemble_jets_are_parameters():
    for name in ("u1", "v2", "uu_x", "mu_x", "U_x", "_u_x"):
        assert parse(name) == sym(name)


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


def test_numbers_too_long_to_print_are_refused():
    """Every number the parser accepts prints again: a literal beyond
    str(int)'s limit of digits is a ParseError, and a power or product
    whose number would be longer an ExprError."""
    with pytest.raises(ParseError):
        parse("1" + "0" * 5000)
    for text in ["3^10000*u^2", "(1/3)^10000", "u*10^3000*10^3000"]:
        with pytest.raises(ExprError):
            parse(text)
    assert to_text(parse("(1/2)^(-10000)")).startswith("1995063116880758")


def test_huge_rational_powers_are_refused_before_they_are_computed():
    # in a subprocess, so that a hang fails the test
    code = """if True:
        from rdsymm.expr import ExprError
        from rdsymm.parser import parse, to_text
        try:
            parse("3^(10^9)")
            raise SystemExit("3^(10^9) was built")
        except ExprError:
            pass
        assert to_text(parse("2^(1/10^9)")) == "2^(1/1000000000)"
        assert to_text(parse("(3^4000)^(1/1000)")) == "81"
    """
    src = Path(rdsymm.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=30,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_round_trip_derived_kernels():
    F = ker("F", u / v)
    d = differentiate(F, u)
    assert parse(to_text(d)) == d
