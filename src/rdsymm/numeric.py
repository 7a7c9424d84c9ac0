"""Numeric evaluation of expressions.

``eval_at`` stays in exact rational arithmetic as long as the expression
only involves rational operations; anything transcendental (exp, ln, sin,
cos, non-integer powers) promotes the computation to mpmath at a requested
working precision (60 digits by default, comfortably below the 1e-30
error-bound contract).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .expr import (Add, DomainError, Expr, Jet, Ker, Mul, Pow, Rat, Sym,
                   BUILTIN_KERNELS)


class UnboundSymbol(Exception):
    def __init__(self, atom, expr=None):
        super().__init__(f"unbound symbol {atom} while evaluating")
        self.atom = atom


def _as_mpf(x, dps):
    if isinstance(x, Fraction):
        with mpmath.workdps(dps):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return x


def _pow_exact(base: Fraction, expo: Fraction):
    if expo.denominator == 1:
        n = int(expo)
        if base == 0 and n <= 0:
            raise DomainError("0 to a non-positive power")
        return base ** n
    return None


def eval_at(e: Expr, point, dps: int = 60, kernel_values=None):
    """Evaluate at a binding of atoms to exact numbers.

    ``point`` maps Sym/Jet atoms to int/Fraction. Opaque kernels must either
    be absent or covered by ``kernel_values``: a callable
    ``(name, dvec, arg_values) -> Fraction`` giving a consistent value
    assignment (used by the randomized equality layer).

    Returns a Fraction when the computation stayed rational, otherwise an
    mpmath mpf computed at ``dps`` digits.  Domain violations raise
    DomainError naming the offending subexpression.
    """
    binding = {}
    for k, v in point.items():
        if isinstance(v, (int,)):
            v = Fraction(v)
        binding[k] = v

    def ev(n: Expr):
        if isinstance(n, Rat):
            return n.value
        if isinstance(n, (Sym, Jet)):
            val = binding.get(n)
            if val is None:
                raise UnboundSymbol(n)
            return val
        if isinstance(n, Ker):
            args = [ev(a) for a in n.args]
            if n.name in BUILTIN_KERNELS:
                x = args[0]
                with mpmath.workdps(dps):
                    xm = _as_mpf(x, dps)
                    if n.name == "exp":
                        return mpmath.exp(xm)
                    if n.name == "ln":
                        if xm <= 0:
                            raise DomainError(f"ln of non-positive value in {n}")
                        return mpmath.log(xm)
                    if n.name == "sin":
                        return mpmath.sin(xm)
                    if n.name == "cos":
                        return mpmath.cos(xm)
            if kernel_values is None:
                raise UnboundSymbol(n)
            exact = all(isinstance(a, Fraction) for a in args)
            key_args = tuple(args) if exact else tuple(
                mpmath.nstr(_as_mpf(a, dps), 40) for a in args)
            return kernel_values(n.name, n.dvec, key_args)
        if isinstance(n, Pow):
            b = ev(n.base)
            x = ev(n.exp)
            if isinstance(b, Fraction) and isinstance(x, Fraction):
                exact = _pow_exact(b, x)
                if exact is not None:
                    return exact
                if b < 0:
                    raise DomainError(f"fractional power of negative value in {n}")
                if b == 0:
                    if x > 0:
                        return Fraction(0)
                    raise DomainError("0 to a non-positive power")
            with mpmath.workdps(dps):
                bm = _as_mpf(b, dps)
                xm = _as_mpf(x, dps)
                if bm < 0:
                    raise DomainError(f"fractional power of negative value in {n}")
                if bm == 0:
                    if xm > 0:
                        return mpmath.mpf(0)
                    raise DomainError("0 to a non-positive power")
                return mpmath.power(bm, xm)
        if isinstance(n, Mul):
            acc = n.coeff
            for b, x in n.pairs:
                acc = _num_mul(acc, ev(Pow(b, x) if not
                                       (isinstance(x, Rat) and x.value == 1)
                                       else b), dps)
            return acc
        if isinstance(n, Add):
            acc = Fraction(0)
            for t in n.terms:
                acc = _num_add(acc, ev(t), dps)
            return acc
        raise TypeError(f"cannot evaluate {n!r}")

    return ev(e)


def _num_mul(a, b, dps):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    with mpmath.workdps(dps):
        return _as_mpf(a, dps) * _as_mpf(b, dps)


def _num_add(a, b, dps):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    with mpmath.workdps(dps):
        return _as_mpf(a, dps) + _as_mpf(b, dps)


def to_float(x) -> float:
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    return float(x)


def magnitude(x) -> float:
    """|x| as a float, safe for both Fractions and mpfs; inf beyond the
    float range."""
    try:
        return abs(to_float(x))
    except OverflowError:
        return math.inf
