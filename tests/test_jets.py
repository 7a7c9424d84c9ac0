from fractions import Fraction

import mpmath
import pytest

from rdsymm.expr import jet, sin_, sym
from rdsymm.jets import (MAX_ORDER, JetOrderError, coords, laplacian,
                         total_derivative)
from rdsymm.numeric import eval_at, to_float

u, v, t = jet("u"), jet("v"), sym("t")
x1, x2 = sym("x1"), sym("x2")


def test_spec_examples():
    assert total_derivative(u, 1, 2) == jet("u", 0, (1,))
    assert total_derivative(x1 * u, "t", 2) == x1 * jet("u", 1)
    got = total_derivative(u * jet("v", 0, (1,)), 1, 2)
    expect = jet("u", 0, (1,)) * jet("v", 0, (1,)) + u * jet("v", 0, (1, 1))
    assert got == expect


def test_coords_is_one_tuple_per_m():
    assert coords(2) is coords(2)
    assert coords(2) == (x1, x2)


def test_symmetric_indices():
    a = total_derivative(total_derivative(u, 1, 2), 2, 2)
    b = total_derivative(total_derivative(u, 2, 2), 1, 2)
    assert a == b == jet("u", 0, (1, 2))


def test_order_cap():
    e = jet("u", 0, (1,) * MAX_ORDER)
    with pytest.raises(JetOrderError):
        total_derivative(e, 1, 1)


def test_finite_difference_oracle():
    """D_x of an expression agrees with the x-derivative of the same
    expression evaluated along a concrete smooth field u = sin(x+2t),
    v = x^2 t."""
    expr = u * jet("v", 0, (1,)) + sin_(u)
    de = total_derivative(expr, 1, 1)

    def field_point(tv: Fraction, xv: Fraction):
        # jets of u = sin(x + 2t), v = x^2 * t
        s = xv + 2 * tv
        return {t: tv, x1: xv,
                u: mpmath.sin(s), jet("u", 0, (1,)): mpmath.cos(s),
                jet("u", 0, (1, 1)): -mpmath.sin(s),
                v: xv * xv * tv, jet("v", 0, (1,)): 2 * xv * tv,
                jet("v", 0, (1, 1)): 2 * tv}

    h = 1e-6
    for xv in (Fraction(1, 2), Fraction(2), Fraction(-1)):
        tv = Fraction(1, 3)
        exact = to_float(eval_at(de, field_point(tv, xv)))
        up = to_float(eval_at(expr, field_point(tv, xv + Fraction(1, 10**6))))
        dn = to_float(eval_at(expr, field_point(tv, xv - Fraction(1, 10**6))))
        fd = (up - dn) / (2 * h)
        assert abs(fd - exact) / max(1.0, abs(exact)) < 1e-5


def test_laplacian():
    assert laplacian(u, 2) == jet("u", 0, (1, 1)) + jet("u", 0, (2, 2))
