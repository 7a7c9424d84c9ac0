"""Numeric evaluation and random sampling, shared by both numeric layers
(the randomized equality decision and the residual cross-check).

``eval_at`` stays in exact rational arithmetic as long as the expression
only involves rational operations; anything transcendental (exp, ln, sin,
cos, non-integer powers) promotes the computation to mpmath at ``DPS``
working digits, comfortably below the 1e-30 error-bound contract.

``Sampler`` draws the sample points and the opaque-kernel values at them,
and keeps one value table per point: every ``eval_at`` at that point reads
and fills it, so a node shared by several expressions, or reached along
several paths of one tree, is evaluated once per point.  Nodes are
hash-consed, so the table is keyed by the nodes themselves.  This is exact:
a node's value depends only on the values of the atoms under it and on the
point's kernel table; within one point atoms are only ever added (the
residual check binds t-jets as it goes and never rebinds one), so a stored
value stays right; a node whose evaluation raises is never stored; and
first visits happen in the same depth-first order as a walk without the
table, so the kernel values are drawn in the same order and every value
comes out the same.  A one-shot ``eval_at`` gets a table of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .expr import (Add, DomainError, Expr, Jet, Ker, Mul, ONE, Pow, Rat, Sym,
                   BUILTIN_KERNELS)

DPS = 60

# an integral power of a rational is computed exactly only while the result
# stays below this many bits; beyond it the mpmath power takes over: its
# exponent range is unbounded and its cost grows only with the exponent's
# bit length
_EXACT_POWER_BITS = 1 << 17


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
    current point.  ``values`` is the point's value table (see the module
    docstring): ``eval_at`` uses it for the dict that ``point`` returned,
    to which the caller may add atoms but must not rebind one."""

    def __init__(self, rng):
        self.rng = rng
        self.kernels = {}
        self.binding = None
        self.values = {}

    def point(self, atoms, draw) -> dict:
        self.kernels = {}
        self.values = {}
        self.binding = {a: draw(self.rng, a) for a in atoms}
        return self.binding

    def __call__(self, name, dvec, arg_values):
        key = (name, dvec, arg_values)
        if key not in self.kernels:
            self.kernels[key] = random_fraction(self.rng)
        return self.kernels[key]


def _power(b, x, node):
    """b ** x; exact for an integral exponent, whatever the base, while
    the exact result stays below ``_EXACT_POWER_BITS``."""
    if isinstance(x, Fraction) and x.denominator == 1:
        if b == 0 and x <= 0:
            raise DomainError("0 to a non-positive power")
        n = int(x)
        if isinstance(b, Fraction) and abs(n) * max(
                b.numerator.bit_length(),
                b.denominator.bit_length()) > _EXACT_POWER_BITS:
            return mpmath.power(b, n)
        return b ** n
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

    Every node is evaluated once: its value goes into a table keyed by node,
    the sampler's table of the current point when ``kernel_values`` is the
    ``Sampler`` that drew ``point``, otherwise a table of this call.

    Returns a Fraction when the computation stayed rational, otherwise an
    mpmath mpf computed at ``DPS`` digits.  Domain violations raise
    DomainError naming the offending subexpression.
    """
    shared = (isinstance(kernel_values, Sampler)
              and point is kernel_values.binding)
    values = kernel_values.values if shared else {}

    def ev(n: Expr):
        val = values.get(n)
        if val is None:
            values[n] = val = value(n)
        return val

    def value(n: Expr):
        if isinstance(n, Rat):
            return n.value
        if isinstance(n, (Sym, Jet)):
            val = point.get(n)
            if val is None:
                raise UnboundSymbol(n)
            return Fraction(val) if isinstance(val, int) else val
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
                # b^1 is b itself: every mpf already carries DPS digits
                acc = acc * (ev(b) if x is ONE else _power(ev(b), ev(x), n))
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
