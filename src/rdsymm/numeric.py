"""Numeric evaluation and random sampling, shared by both numeric layers
(the randomized equality decision and the residual cross-check).

Evaluation works with two kinds of value.  A value is exact as long as
the expression only involves rational operations.  Inside a program an
exact value is a plain ``int`` when it is integral, and otherwise a reduced
(numerator, denominator) pair of the private tuple subclass ``_Q``; small
helpers add, multiply and raise them to integer powers with ``math.gcd``,
with the results ``Fraction`` arithmetic would give.  Anything
transcendental (exp, ln, sin, cos, non-integer powers, integral powers too
large to keep exact) makes a value inexact: a raw ``mpmath.libmp`` number,
a plain tuple, at ``_PREC`` bits, ``DPS`` decimal digits, comfortably below
the 1e-30 error-bound contract.  ``Fraction`` appears only at the
boundary: the values of a point and of an opaque kernel come in as
``Fraction`` (or ``int``, ``float`` or ``mpf``), a kernel's exact
arguments go out as ``Fraction``, and a root's value is wrapped in an
``mpf``, or in a ``Fraction`` when it is exact.

There are two rounding rules, the ones mpmath's own operators apply at
``DPS`` digits.  A rational that meets an inexact value is first converted
to ``_PREC`` bits rounding down (``from_rational`` at its default
rounding, as mpmath's ``convert`` does it for the equal ``Fraction``);
each operation on inexact values then rounds its result to nearest.  The
arithmetic calls libmp directly, and it must keep the sequence of roundings
that the operators made: the same conversions and the operands in the same
order.  The operators' sum starts from an exact zero.  A program's sum
starts from its first term when that term is exact, which gives the same
value; an inexact first term is still added to the zero, which re-rounds
it to ``DPS`` digits.  Any other sequence gives different last bits, and the
worst residuals that the numeric cross-check pins to the last digit
(``worst!r``) move.

``Program`` compiles a schedule of defined atoms and a list of root
expressions once into a flat list of slots and operations, names the atoms
a point must bind (``atoms``), and runs it at each sample point, binding
every atom before any operation runs: a node shared by several
expressions, or reached along several paths, has one slot (nodes are
hash-consed) and is evaluated once per point.  This is exact: operations
come in the order in which a depth-first walk finishes its nodes (a
product's pairs in order, each base before its exponent; a sum's terms and
a kernel's arguments in order), each calls the helper the walk would call
with the same operands in the same order, so every value rounds the same,
kernel values are drawn in the same order and the first operation to raise
is the one the walk reaches first; and the slots are filled afresh at every
point.  An ``eval_at`` is a program of one root, run once.
"""

from __future__ import annotations

import functools
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
    num, den = _randint(rng, *nums), _randint(rng, *dens)
    if not positive and rng.random() < 0.5:
        num = -num
    return _fraction(num, den)


def _randint(rng, lo, hi):
    """``rng.randint(lo, hi)``: the same ``getrandbits`` rejection draws."""
    width = hi - lo + 1
    while (r := rng.getrandbits(width.bit_length())) >= width:
        pass
    return lo + r


class Sampler:
    """The source of random values for one run of sample points.

    ``point`` draws each atom's value with ``random_fraction``, positive
    exactly where ``expr.is_positive`` holds (decided once per atom): the
    sampled domain is the one the exact layers declare.  The sampler is
    also the ``kernel_values`` callable of ``Program.run``: every distinct
    (kernel, derivative, argument-values) triple gets one
    ``random_fraction``, kept in ``kernels`` for the current point."""

    def __init__(self, rng):
        self.rng = rng
        self.kernels = {}
        self.positive = {}

    def point(self, atoms, nums=(1, 6), dens=(1, 3)) -> dict:
        self.kernels = {}
        positive = self.positive
        positive.update((a, is_positive(a)) for a in atoms
                        if a not in positive)
        return {a: random_fraction(self.rng, positive[a], nums, dens)
                for a in atoms}

    def __call__(self, name, dvec, arg_values):
        key = (name, dvec, arg_values)
        if key not in self.kernels:
            self.kernels[key] = random_fraction(self.rng)
        return self.kernels[key]


# the sample points and the nodes' numbers repeat a few thousand rationals
# many times over: each drawn Fraction and each rational's raw mpf, keyed by
# (numerator, denominator), is made once while at most _INEXACT_CAP are kept
_INEXACT = {}
_INEXACT_CAP = 4096
_fraction = functools.lru_cache(maxsize=_INEXACT_CAP)(Fraction)


class _Q(tuple):
    """An exact value that is not integral inside a program: the reduced
    pair (numerator, denominator), denominator > 1.  It hashes and compares
    as the plain pair, and ``type(x) is tuple`` still means a raw mpf."""
    __slots__ = ()


def _ratio(n, d):
    """The exact value n/d of a reduced pair with d > 0."""
    return n if d == 1 else _Q((n, d))


def _exact(x):
    """An int or a Fraction in the program's exact form."""
    return _ratio(x.numerator, x.denominator)


def _fraction_of(x):
    """An exact value of the program as a Fraction."""
    return Fraction(x) if type(x) is int else Fraction(*x)


def _inexact(x):
    """x as a raw mpf: an exact value is converted at ``_PREC`` bits with
    ``from_rational``'s default rounding (down), as mpmath's ``convert``
    does it for the equal Fraction, once per value (see ``_INEXACT``; a
    pair is its own key)."""
    if type(x) is not tuple:
        key = (x, 1) if type(x) is int else x
        out = _INEXACT.get(key)
        if out is None:
            if len(_INEXACT) >= _INEXACT_CAP:
                _INEXACT.clear()
            out = _INEXACT[key] = from_rational(*key, _PREC)
        return out
    return x


def _qadd(a, b):
    """The sum of two exact values, reduced as ``Fraction`` reduces it."""
    if type(a) is int:
        if type(b) is int:
            return a + b
        a, b = b, a
    p, q = a
    if type(b) is int:
        return _Q((p + b * q, q))
    r, s = b
    g = math.gcd(q, s)
    if g == 1:
        return _Q((p * s + r * q, q * s))
    q //= g
    n = p * (s // g) + r * q
    g = math.gcd(n, g)
    return _ratio(n // g, q * (s // g))


def _qmul(a, b):
    """The product of two exact values."""
    if type(a) is int:
        if type(b) is int:
            return a * b
        a, b = b, a
    p, q = a
    if type(b) is int:
        g = math.gcd(b, q)
        return _ratio(p * (b // g), q // g)
    r, s = b
    g, h = math.gcd(p, s), math.gcd(r, q)
    return _ratio((p // g) * (r // h), (q // h) * (s // g))


def _qpow(b, n):
    """The exact value b to the integer n, b nonzero when n <= 0."""
    if type(b) is int:
        if n >= 0:
            return b ** n
        p, q = 1, b ** -n
    elif n >= 0:
        return _Q((b[0] ** n, b[1] ** n)) if n else 1
    else:
        q, p = b[0] ** -n, b[1] ** -n
    return _ratio(-p, -q) if q < 0 else _ratio(p, q)


def _add(a, b):
    if type(a) is not tuple:
        if type(b) is not tuple:
            return _qadd(a, b)
        # Python hands a Fraction + mpf to the mpf's reflected operator,
        # which puts the mpf first
        a, b = b, a
    return mpf_add(a, _inexact(b), _PREC, round_nearest)


def _mul(a, b):
    if type(a) is not tuple:
        if type(b) is not tuple:
            return _qmul(a, b)
        a, b = b, a
    return mpf_mul(a, _inexact(b), _PREC, round_nearest)


def _sign(x) -> int:
    if type(x) is tuple:
        return mpf_sign(x)
    if type(x) is not int:
        x = x[0]
    return (x > 0) - (x < 0)


def _number(x):
    """An atom's or a kernel's value in the program's form: exact, or a raw
    mpf."""
    if isinstance(x, int) or type(x) is Fraction:
        return _exact(x)
    if isinstance(x, float):
        return from_float(x)    # exact, as mpmath.mpmathify converts it
    return x._mpf_


def _power(b, x, node):
    """b ** x; exact for an integral exponent of a rational base while the
    exact result stays below ``_EXACT_POWER_BITS``."""
    if type(x) is int:
        if x <= 0 and _sign(b) == 0:
            raise DomainError("0 to a non-positive power")
        if type(b) is not tuple and abs(x) * (
                max(b.bit_length(), 1) if type(b) is int
                else max(b[0].bit_length(), b[1].bit_length())
        ) <= _EXACT_POWER_BITS:
            return _qpow(b, x)
        return mpf_pow_int(_inexact(b), x, _PREC, round_nearest)
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
        key_args = tuple([_fraction_of(a) for a in args])
    else:
        key_args = tuple(to_str(_inexact(a), 40) for a in args)
    return _number(kernel_values(n.name, n.dvec, key_args))


class Program:
    """The straight-line program of ``defines``, a mapping of atoms to
    expressions compiled first and in order, and of ``roots`` (see the
    module docstring).  A later expression reads a defined atom as its
    define's value; defining an atom read free before raises ValueError.
    ``atoms``, sorted by ``Expr.key``, are the atoms read and not defined.
    Each distinct node has a slot in ``init``, filled at compile time for a
    rational, from the point for an atom (``loads``: slot, atom), and else
    by an operation of the first expression to reach it (``blocks``: each
    define's, then each root's operations and slot).  An operation is
    (kind, slot, data, operand slots), where data is a product's exact
    coefficient, the slot of a sum's first term (the operands are the
    others), or the node of a power or a kernel."""

    def __init__(self, roots, defines=None):
        self.init, self.loads, self.blocks, self.index = [], [], [], {}
        # a root is a block that defines no atom
        for atom, e in [*(defines or {}).items(), *((None, r) for r in roots)]:
            ops = []
            self.blocks.append((ops, self._compile(e, ops)))
            if atom in self.index:
                raise ValueError(f"{atom} is defined after it is read")
            if atom is not None:
                self.index[atom] = self.blocks[-1][1]
        self.atoms = sorted([atom for _, atom in self.loads], key=Expr.key)

    def _compile(self, n, ops):
        slot = self.index.get(n)
        if slot is not None:
            return slot
        cls = type(n)
        if cls is Mul:
            factors = []
            for b, x in n.pairs:
                f = self._compile(b, ops)
                if x is not ONE:    # b^1 is b: an mpf has DPS digits already
                    f = self._emit(ops, _power, n,
                                   (f, self._compile(x, ops)))
                factors.append(f)
            slot = self._emit(ops, Mul, _exact(n.coeff), factors)
        elif cls is Add:
            first, *rest = [self._compile(a, ops) for a in n.terms]
            slot = self._emit(ops, Add, first, rest)
        elif cls is Ker:
            slot = self._emit(ops, Ker, n,
                              [self._compile(a, ops) for a in n.args])
        elif cls is Jet or cls is Sym or cls is Rat:
            slot = len(self.init)
            self.init.append(_exact(n.value) if cls is Rat else None)
            if cls is not Rat:
                self.loads.append((slot, n))
        else:
            raise TypeError(f"cannot evaluate {n!r}")
        self.index[n] = slot
        return slot

    def _emit(self, ops, kind, data, operands):
        ops.append((kind, len(self.init), data, operands))
        self.init.append(None)
        return len(self.init) - 1

    def run(self, point, kernel_values=None):
        """Yield each define's and then each root's value at ``point`` in
        turn (see ``eval_at``); the first atom, in load order, missing from
        ``point`` raises UnboundSymbol before any operation runs."""
        slots = self.init[:]
        for slot, atom in self.loads:
            val = point.get(atom)
            if val is None:
                raise UnboundSymbol(atom)
            slots[slot] = _number(val)
        for ops, out in self.blocks:
            for kind, slot, data, operands in ops:
                if kind is Mul:
                    val = data
                    for s in operands:
                        f = slots[s]
                        # a rational times 1 is that rational; an mpf
                        # operand still goes through mpf_mul, which re-rounds
                        # it to DPS digits
                        if type(f) is not tuple and type(val) is not tuple:
                            val = f if val == 1 else val if f == 1 else \
                                _qmul(f, val)
                        else:
                            val = _mul(val, f)
                elif kind is Add:
                    val = slots[data]
                    if type(val) is tuple:
                        val = _add(0, val)  # the starting zero re-rounds it
                    for s in operands:
                        val = _add(val, slots[s])
                elif kind is _power:
                    val = _power(slots[operands[0]], slots[operands[1]], data)
                else:
                    val = _kernel(data, [slots[s] for s in operands],
                                  kernel_values)
                slots[slot] = val
            val = slots[out]
            yield (mpmath.mp.make_mpf(val) if type(val) is tuple
                   else _fraction_of(val))


def eval_at(e: Expr, point, kernel_values=None):
    """Evaluate at a binding of atoms to numbers, as a one-shot program.

    ``point`` maps Sym/Jet atoms to finite values: an ``int``, a
    ``Fraction`` or an ``mpf``.  A ``float`` is taken exactly, as
    ``mpmath.mpmathify`` converts it, and its value becomes inexact.
    Opaque kernels must either be absent or covered by ``kernel_values``: a
    callable ``(name, dvec, arg_values) -> value`` giving a consistent
    value assignment, such as a ``Sampler``; it may return any of the atom
    value types.  ``arg_values`` holds the arguments' Fractions when all of
    them are exact, otherwise every argument as a 40-digit string.

    Returns a Fraction when the computation stayed rational, otherwise an
    ``mpf`` computed at ``DPS`` digits.  Domain violations raise
    DomainError naming the offending subexpression.
    """
    return next(Program([e]).run(point, kernel_values))


def to_float(x) -> float:
    if type(x) is Fraction:
        return x.numerator / x.denominator
    return float(x)


def magnitude(x) -> float:
    """|x| as a float, safe for both Fractions and mpfs; inf beyond the
    float range."""
    try:
        return abs(to_float(x))
    except OverflowError:
        return math.inf
