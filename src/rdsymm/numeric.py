"""Numeric evaluation and random sampling, shared by both numeric layers
(the randomized equality decision and the residual cross-check).

Evaluation works with two kinds of value.  A value is exact, an ``int``
or a ``Fraction`` (a node's own numbers are ints when integral), as long
as the expression only involves rational operations.  Anything
transcendental (exp, ln, sin, cos, non-integer powers, integral powers too
large to keep exact) makes it inexact: a raw ``mpmath.libmp`` number, a
tuple, at ``_PREC`` bits, ``DPS`` decimal digits, comfortably below the
1e-30 error-bound contract.  Only a root's value is wrapped: in an
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

``Program`` compiles a list of root expressions once into a flat list of
slots and operations, and runs it at each sample point: a node shared by
several roots, or reached along several paths, has one slot (nodes are
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


class Program:
    """The straight-line program of a list of root expressions (see the
    module docstring).  Each distinct node has a slot in ``init``, filled
    at compile time for a rational, when a point starts for an atom
    (``atoms``: slot, atom, root and operations before its first visit),
    and else by an operation of the first root to reach it (``blocks``:
    each root's operations and slot).  ``defines[k]``, where given, is an
    atom that the roots after root k read as root k's value."""

    def __init__(self, roots, defines=()):
        self.init, self.atoms, self.blocks, self.index = [], [], [], {}
        for k, root in enumerate(roots):
            ops = []
            self.blocks.append((ops, self._compile(root, ops, k)))
            if k < len(defines):
                self.index[defines[k]] = self.blocks[k][1]

    def _compile(self, n, ops, k):
        slot = self.index.get(n)
        if slot is not None:
            return slot
        cls = type(n)
        if cls is Mul:
            factors = []
            for b, x in n.pairs:
                f = self._compile(b, ops, k)
                if x is not ONE:    # b^1 is b: an mpf has DPS digits already
                    f = self._emit(ops, _power, n,
                                   (f, self._compile(x, ops, k)))
                factors.append(f)
            slot = self._emit(ops, Mul, n, factors)
        elif cls is Add or cls is Ker:
            slot = self._emit(ops, cls, n, [self._compile(a, ops, k) for a in
                                            (n.terms if cls is Add else n.args)])
        elif cls is Jet or cls is Sym or cls is Rat:
            slot = len(self.init)
            self.init.append(n.value if cls is Rat else None)
            if cls is not Rat:
                self.atoms.append((slot, n, k, len(ops)))
        else:
            raise TypeError(f"cannot evaluate {n!r}")
        self.index[n] = slot
        return slot

    def _emit(self, ops, kind, node, operands):
        ops.append((kind, len(self.init), node, operands))
        self.init.append(None)
        return len(self.init) - 1

    def run(self, point, kernel_values=None):
        """Yield each root's value at ``point`` in turn (see ``eval_at``);
        an atom missing from ``point`` raises UnboundSymbol where the walk
        would first reach it."""
        slots = self.init[:]
        blocks = self.blocks
        for slot, atom, k, before in self.atoms:
            val = point.get(atom)
            if val is None:
                blocks = blocks[:k] + [(blocks[k][0][:before], atom)]
                break
            slots[slot] = _number(val)
        for ops, root in blocks:
            for kind, slot, node, operands in ops:
                if kind is Mul:
                    val = node.coeff
                    for s in operands:
                        f = slots[s]
                        # a rational times 1 is that rational; an mpf
                        # operand still goes through mpf_mul, which re-rounds
                        # it to DPS digits.  The factor goes first: an int
                        # times a Fraction takes the slower reflected operator
                        if type(f) is not tuple and type(val) is not tuple:
                            val = f if val == 1 else val if f == 1 else f * val
                        else:
                            val = _mul(val, f)
                elif kind is Add:
                    val = _ZERO
                    for s in operands:
                        val = _add(val, slots[s])
                elif kind is _power:
                    val = _power(slots[operands[0]], slots[operands[1]], node)
                else:
                    val = _kernel(node, [slots[s] for s in operands],
                                  kernel_values)
                slots[slot] = val
            if type(root) is not int:
                raise UnboundSymbol(root)
            val = slots[root]
            yield (mpmath.mp.make_mpf(val) if type(val) is tuple
                   else val if type(val) is Fraction else Fraction(val))


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
