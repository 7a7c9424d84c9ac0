"""Numeric evaluation and random sampling, shared by both numeric layers
(the randomized equality decision and the residual cross-check).

``eval_at`` works with two kinds of value.  A value is exact, an ``int``
or a ``Fraction`` (a node's own numbers are ints when integral), as long
as the expression only involves rational operations.  Anything
transcendental (exp, ln, sin, cos, non-integer powers, integral powers too
large to keep exact) makes it inexact: a raw ``mpmath.libmp`` number, a
tuple, at ``_PREC`` bits, ``DPS`` decimal digits, comfortably below the
1e-30 error-bound contract.  Only the final result is wrapped: in an
``mpf``, or in a ``Fraction`` when it is exact.

There are two rounding rules, the ones mpmath's own operators apply at
``DPS`` digits.  A rational that meets an inexact value is first converted
to ``_PREC`` bits rounding down (``from_rational`` at its default
rounding, as mpmath's ``convert`` does it for the equal ``Fraction``, so an
``int`` rounds as that ``Fraction`` would); each operation on inexact
values then rounds its result to nearest.  The arithmetic calls libmp
directly, and it must keep the sequence of roundings that the operators
made: the same conversions, the operands in the same order and the same
starting zero of every sum.  Any other sequence gives different last bits,
and the worst residuals that the numeric cross-check pins to the last
digit (``worst!r``) move.

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
from mpmath.libmp import (dps_to_prec, from_float, from_rational, mpf_add,
                          mpf_cos, mpf_exp, mpf_log, mpf_mul, mpf_pow,
                          mpf_pow_int, mpf_sign, mpf_sin, round_nearest,
                          to_str)

from .expr import (Add, DomainError, Expr, Jet, Ker, Mul, ONE, Rat, Sym,
                   is_positive)

DPS = 60
_PREC = dps_to_prec(DPS)
_ZERO = Fraction(0)     # the start of every sum (see the module docstring)

# an integral power of a rational is computed exactly only while the result
# stays below this many bits; beyond it the libmp power takes over: its
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

    ``point`` draws each atom's value with ``random_fraction``, positive
    exactly where ``expr.is_positive`` holds: the sampled domain is the
    one the exact layers declare.  The sampler is also the
    ``kernel_values`` callable of ``eval_at``: every distinct (kernel,
    derivative, argument-values) triple gets one ``random_fraction``, kept
    in ``kernels`` for the current point.  ``values`` is the point's value
    table (see the module docstring): ``eval_at`` uses it for the dict
    that ``point`` returned, to which the caller may add atoms but must not
    rebind one."""

    def __init__(self, rng):
        self.rng = rng
        self.kernels = {}
        self.binding = None
        self.values = {}

    def point(self, atoms, nums=(1, 6), dens=(1, 3)) -> dict:
        self.kernels = {}
        self.values = {}
        self.binding = {a: random_fraction(self.rng, is_positive(a), nums,
                                           dens) for a in atoms}
        return self.binding

    def __call__(self, name, dvec, arg_values):
        key = (name, dvec, arg_values)
        if key not in self.kernels:
            self.kernels[key] = random_fraction(self.rng)
        return self.kernels[key]


# each rational's raw mpf, keyed by (numerator, denominator): the sample
# points and the nodes' numbers repeat a few thousand rationals many times
# over; cleared whenever it holds _INEXACT_CAP entries
_INEXACT = {}
_INEXACT_CAP = 4096


def _inexact(x):
    """x as a raw mpf: an exact value is converted at ``_PREC`` bits with
    ``from_rational``'s default rounding (down), as mpmath's ``convert``
    does it for the equal Fraction, once per value (see ``_INEXACT``)."""
    if type(x) is not tuple:
        key = (x.numerator, x.denominator)
        out = _INEXACT.get(key)
        if out is None:
            if len(_INEXACT) >= _INEXACT_CAP:
                _INEXACT.clear()
            out = _INEXACT[key] = from_rational(*key, _PREC)
        return out
    return x


def _add(a, b):
    if type(a) is not tuple:
        if type(b) is not tuple:
            return a + b
        # Python hands a Fraction + mpf to the mpf's reflected operator,
        # which puts the mpf first
        a, b = b, a
    return mpf_add(a, _inexact(b), _PREC, round_nearest)


def _mul(a, b):
    if type(a) is not tuple:
        if type(b) is not tuple:
            return a * b
        a, b = b, a
    return mpf_mul(a, _inexact(b), _PREC, round_nearest)


def _sign(x) -> int:
    if type(x) is not tuple:
        return (x > 0) - (x < 0)
    return mpf_sign(x)


def _number(x):
    """An atom's or a kernel's value as an exact int or Fraction, or a raw
    mpf."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float):
        return from_float(x)    # exact, as mpmath.mpmathify converts it
    return x._mpf_


def _power(b, x, node):
    """b ** x; exact for an integral exponent of a rational base while the
    exact result stays below ``_EXACT_POWER_BITS``."""
    if type(x) is not tuple and x.denominator == 1:
        n = x.numerator
        if n <= 0 and _sign(b) == 0:
            raise DomainError("0 to a non-positive power")
        if type(b) is not tuple and abs(n) * max(
                b.numerator.bit_length(),
                b.denominator.bit_length()) <= _EXACT_POWER_BITS:
            if n < 0 and type(b) is int:
                b = Fraction(b)     # an int to a negative power is a float
            return b ** n
        return mpf_pow_int(_inexact(b), n, _PREC, round_nearest)
    if _sign(b) < 0:
        raise DomainError(f"fractional power of negative value in {node}")
    if _sign(b) == 0:
        if _sign(x) > 0:
            return _mul(b, x)   # zero, exact when both operands are
        raise DomainError("0 to a non-positive power")
    return mpf_pow(_inexact(b), _inexact(x), _PREC, round_nearest)


_BUILTIN = {"exp": mpf_exp, "ln": mpf_log, "sin": mpf_sin, "cos": mpf_cos}


def _kernel(n, args, kernel_values):
    """Kernel node n at the values args of its arguments: a builtin is
    computed, an opaque kernel is read from ``kernel_values``."""
    fn = _BUILTIN.get(n.name)
    if fn is not None:
        x = args[0]
        if fn is mpf_log and _sign(x) <= 0:
            raise DomainError(f"ln of non-positive value in {n}")
        return fn(_inexact(x), _PREC, round_nearest)
    if kernel_values is None:
        raise UnboundSymbol(n)
    if all(type(a) is not tuple for a in args):
        key_args = tuple([a if type(a) is Fraction else Fraction(a)
                          for a in args])
    else:
        key_args = tuple(to_str(_inexact(a), 40) for a in args)
    return _number(kernel_values(n.name, n.dvec, key_args))


def eval_at(e: Expr, point, kernel_values=None):
    """Evaluate at a binding of atoms to numbers.

    ``point`` maps Sym/Jet atoms to finite values: an ``int``, a
    ``Fraction`` or an ``mpf``.  A ``float`` is taken exactly, as
    ``mpmath.mpmathify`` converts it, and its value becomes inexact.
    Opaque kernels must either be absent or covered by ``kernel_values``: a
    callable ``(name, dvec, arg_values) -> value`` giving a consistent
    value assignment, such as a ``Sampler``; it may return any of the atom
    value types.  ``arg_values`` holds the arguments' Fractions when all of
    them are exact, otherwise every argument as a 40-digit string.

    Every node is evaluated once: its value goes into a table keyed by node,
    the sampler's table of the current point when ``kernel_values`` is the
    ``Sampler`` that drew ``point``, otherwise a table of this call.

    Returns a Fraction when the computation stayed rational, otherwise an
    ``mpf`` computed at ``DPS`` digits.  Domain violations raise
    DomainError naming the offending subexpression.
    """
    shared = (isinstance(kernel_values, Sampler)
              and point is kernel_values.binding)
    values = kernel_values.values if shared else {}
    val = _value(e, point, kernel_values, values)
    if type(val) is tuple:
        return mpmath.mp.make_mpf(val)
    return val if type(val) is Fraction else Fraction(val)


def _value(n: Expr, point, kernel_values, values: dict):
    """The value of n for ``eval_at``: exact or a raw mpf, read from or
    stored in ``values``."""
    val = values.get(n)
    if val is not None:
        return val
    cls = type(n)
    if cls is Mul:
        val = n.coeff
        for b, x in n.pairs:
            # b^1 is b itself: every mpf already carries DPS digits
            f = _value(b, point, kernel_values, values)
            if x is not ONE:
                f = _power(f, _value(x, point, kernel_values, values), n)
            # a rational times 1 is that rational; an mpf operand still
            # goes through mpf_mul, which re-rounds it to DPS digits.  The
            # factor goes first: an int coefficient times a Fraction would
            # take the Fraction's slower reflected operator
            if type(f) is not tuple and type(val) is not tuple:
                val = f if val == 1 else val if f == 1 else f * val
            else:
                val = _mul(val, f)
    elif cls is Add:
        val = _ZERO
        for t in n.terms:
            val = _add(val, _value(t, point, kernel_values, values))
    elif cls is Jet or cls is Sym:
        val = point.get(n)
        if val is None:
            raise UnboundSymbol(n)
        val = _number(val)
    elif cls is Rat:
        val = n.value
    elif cls is Ker:
        val = _kernel(n, [_value(a, point, kernel_values, values)
                          for a in n.args], kernel_values)
    else:
        raise TypeError(f"cannot evaluate {n!r}")
    values[n] = val
    return val


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
