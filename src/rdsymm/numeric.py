"""Numeric evaluation and random sampling, shared by both numeric layers
(the randomized equality decision and the residual cross-check).

``eval_at`` stays in exact rational arithmetic as long as the expression
only involves rational operations; anything transcendental (exp, ln, sin,
cos, non-integer powers) promotes the computation to mpmath at ``DPS``
working digits, comfortably below the 1e-30 error-bound contract.

``Sampler`` draws the sample points and the opaque-kernel values at them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .expr import (Add, DomainError, Expr, Jet, Ker, Mul, Pow, Rat, Sym,
                   BUILTIN_KERNELS)

DPS = 60


class UnboundSymbol(Exception):
    def __init__(self, atom):
        super().__init__(f"unbound symbol {atom} while evaluating")
        self.atom = atom


def random_fraction(rng, positive: bool = False, nums=(1, 6),
                    dens=(1, 3)) -> Fraction:
    """±num/den with num and den drawn uniformly from the inclusive ranges
    ``nums`` and ``dens``; the sign is drawn last, and only if not
    ``positive``.  The defaults keep exponentials of sampled combinations
    well inside ``DPS`` digits."""
    num = rng.randint(*nums)
    den = rng.randint(*dens)
    if not positive and rng.random() < 0.5:
        num = -num
    return Fraction(num, den)


class Sampler:
    """The source of random values for one run of sample points.

    ``point`` draws each atom's value through the caller's
    ``draw(rng, atom)``.  The sampler is also the ``kernel_values`` callable
    of ``eval_at``: every distinct (kernel, derivative, argument-values)
    triple gets one ``random_fraction``, kept in ``kernels`` for the
    current point."""

    def __init__(self, rng):
        self.rng = rng
        self.kernels = {}

    def point(self, atoms, draw) -> dict:
        self.kernels = {}
        return {a: draw(self.rng, a) for a in atoms}

    def __call__(self, name, dvec, arg_values):
        key = (name, dvec, arg_values)
        if key not in self.kernels:
            self.kernels[key] = random_fraction(self.rng)
        return self.kernels[key]


def _power(b, x, node):
    """b ** x; exact for an integral exponent, whatever the base."""
    if isinstance(x, Fraction) and x.denominator == 1:
        if b == 0 and x <= 0:
            raise DomainError("0 to a non-positive power")
        return b ** int(x)
    if b < 0:
        raise DomainError(f"fractional power of negative value in {node}")
    if b == 0:
        if x > 0:
            return b * x    # zero, exact when both operands are
        raise DomainError("0 to a non-positive power")
    return mpmath.power(b, x)


def eval_at(e: Expr, point, kernel_values=None):
    """Evaluate at a binding of atoms to exact numbers.

    ``point`` maps Sym/Jet atoms to int/Fraction. Opaque kernels must either
    be absent or covered by ``kernel_values``: a callable
    ``(name, dvec, arg_values) -> Fraction`` giving a consistent value
    assignment, such as a ``Sampler``.

    Returns a Fraction when the computation stayed rational, otherwise an
    mpmath mpf computed at ``DPS`` digits.  Domain violations raise
    DomainError naming the offending subexpression.
    """
    binding = {k: Fraction(v) if isinstance(v, int) else v
               for k, v in point.items()}

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
                if n.name == "exp":
                    return mpmath.exp(x)
                if n.name == "ln":
                    if x <= 0:
                        raise DomainError(f"ln of non-positive value in {n}")
                    return mpmath.log(x)
                if n.name == "sin":
                    return mpmath.sin(x)
                if n.name == "cos":
                    return mpmath.cos(x)
            if kernel_values is None:
                raise UnboundSymbol(n)
            exact = all(isinstance(a, Fraction) for a in args)
            key_args = tuple(args) if exact else tuple(
                mpmath.nstr(mpmath.mpmathify(a), 40) for a in args)
            return kernel_values(n.name, n.dvec, key_args)
        if isinstance(n, Pow):
            return _power(ev(n.base), ev(n.exp), n)
        if isinstance(n, Mul):
            acc = n.coeff
            for b, x in n.pairs:
                acc = acc * _power(ev(b), ev(x), n)
            return acc
        if isinstance(n, Add):
            return sum((ev(t) for t in n.terms), Fraction(0))
        raise TypeError(f"cannot evaluate {n!r}")

    with mpmath.workdps(DPS):
        return ev(e)


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
