"""Exact symbolic expressions.

Nodes are immutable and hash-consed: every node is built through one weak
unique table keyed by its kind, its payload and its child nodes, so equal
structure means the same object.  Each node class's constructor looks its
key up in the table itself and returns the node there if it is alive; only
a miss checks the payload (the digits of a number, a jet's dependent, the
length of a kernel's dvec), sets the new node's slots and enters it.  A
live node passed those checks when it was built.  ``==``, hashing and dict
lookups are identity, ``is_zero(e)`` is ``e is ZERO``, and dicts are keyed
by the nodes themselves.  ``Expr.key()`` is a nested tuple computed once
per live node; it gives the structural order only (sorting terms and
factors, the sign rule of sin/cos), so term order never depends on object
ids.  A node leaves the table when nothing else holds it.

The module-level constructors (``rat``, ``add``, ``mul``, ``powe``,
``ker``, ...) are the only way composite nodes get built and they normalize
on construction, so every ``Expr`` you can hold is already in normal form:

* sums are flat (no term is a sum) with at least two terms sorted by key,
  like terms merged, at most one rational term;
* products are flat with a nonzero rational coefficient and base^exponent
  pairs sorted by base, exponents of equal bases added and never 0; no
  base is a rational with an integer exponent or a product with exponent
  1, and the ``exp`` factors are merged into one, of exponent 1;
* a lone power b^x (x != 1) is the product with coefficient 1 and the one
  pair (b, x), so powers and products are one node kind; its ``key()`` is
  that of a power, ``(4, b, x)``, ordered before every other product;
* a rational's ``value`` and a product's ``coeff`` are an ``int`` when
  they are integral and a ``Fraction`` otherwise, so ``rat(2)`` is
  ``rat(Fraction(4, 2))``; ``key()`` and the printed text read numerator
  and denominator (each of at most ``MAX_DIGITS`` digits): the same for both.

``mul`` only collects factors and hands each base with its summed exponent
to ``powe``, the one place that rewrites a power b^x: it folds a rational's
power, makes ``0^e`` 0 for an exponent that :func:`is_positive` proves
positive (u, v and what is built from them and positive rationals; not a
parameter) and raises for a rational e <= 0, collapses ``(b^p)^q`` and
distributes a power over a product where the declared domain below allows
it, and folds ``exp(a)^x``.

``add``, ``mul`` and ``powe`` each keep a computed table from the operand
nodes to the result, looked up inline, since the same operands recur many
times in a prolongation; a call that raises stores nothing.  The tables
share one bound and are cleared together whenever they hold
``_COMPUTED_CAP`` entries in all: they keep their results alive, and
unbounded they would hold every intermediate of a whole run and carry one
run's work into the next.

The commonest calls take a short way that gives the node the general path
gives.  ``mul`` of a rational c and one node f returns c*d for a rational
d, 0 for c = 0, the product of coefficient c times f's over f's pairs for a
product f, and otherwise what ``_make_mul`` makes of c and the pair (f, 1),
so a rational times a sum still distributes; the result is kept in the
computed table like any other.  ``add`` of one term returns it, since a
normal node is its own sum, and ``rat`` of an ``int`` returns the live
rational from the unique table before it builds one.

Where the general path would take a normal node apart only to build the
same node again, the node itself is handed back:

* ``add`` keeps each term that met no like term as it is: a normal term
  is what ``_from_parts`` makes of its own coefficient and pairs, since
  the terms of a sum are never sums and a rational times a sum to the 1st
  is never a normal product; only a merged monomial is built again;
* ``mul`` keeps a product's one ``exp`` factor, since a normal exp node's
  argument holds no ln part for ``ker`` to pull out; two or more are
  merged through ``ker("exp", ...)``.  A base's one exponent is taken as
  it is;
* a walk of ``apply_rules`` or ``substitute`` returns a node whose
  children all map to themselves, unless it is a kernel with a rule, since
  ``rebuild(e, children(e)) is e`` (below): a walk that changes nothing
  builds nothing.

Products of sums are *not* distributed here; :func:`expand` does that in
one pass over the tree, reduces cos powers per monomial through
cos^2 = 1 - sin^2, and merges the terms once.  ``sin``/``cos`` pull the
sign out of their argument, choosing between a and -a by a fixed rule, so
sin(-a) = -sin(a) and cos(-a) = cos(a) share one argument.

``verify.verify_row`` checks a corpus row inside one
:func:`shared_derivations` block, since the row's claim checks (each m,
symbolic branch and witness seed) derive the same objects again and
again.  The block's one table keeps:

* the terms of each node and power an ``expand`` walk meets (outside a
  block each call keeps a table of its own);
* for each (atom s, rules), the derivative by s of every node that a
  ``differentiate`` walk meets, in one memo under (``_derivative``, (s,
  rules)) (outside a block each call keeps a memo of its own), so a
  subtree shared by the row's total derivatives, ``apply_to``'s partial
  derivatives, the t-jet replacements and ``reduce_kernel``'s template
  derivatives is differentiated once;
* through :func:`shared`, each ``Generator.prolonged(rules)`` under (X's
  coefficients, rules) and each t-jet replacement of
  ``systems.tjet_replacements`` under (right-hand side, jet, m, rules).

Instantiating a row builds a new ``RuleSet`` each time, so a rule set
compares and hashes by content: the name, slot, order, params and
template of each rule, in order.  The table is exact: each entry is a
pure function of its key, which names hash-consed nodes and rule content
only; the table holds its keys alive, so a key always names the same
expressions; no caller mutates what it gets (a ``ProlongedGenerator``
only fills in more phi^J, each a function of the same key, and a
derivative memo only gains nodes, each entered once its subtree's
derivative is complete); and a build that raises stores nothing (a
derivative walk that raises leaves only complete entries).  The table is
dropped with its block, so no row or run inherits another's work, and
with no block open nothing is kept.

The block runs inside :func:`collector_paused`, and ``verify.run_suite``
enters that once around a whole suite: the outermost entry pauses the
cyclic garbage collector and restores its earlier state when it ends, by
an exception too, and a nested entry does nothing.  The core makes no
reference cycles (below), and a block's table keeps what the block builds
alive until the block ends, so a collection inside the pause would only
walk the heap and free nothing; between a suite's rows reference counting
frees each row's table and everything only it held.

Structural walks reach subexpressions only through :func:`children` and put
nodes back together only through :func:`rebuild`, which always goes through
the normalizing constructors, so a walk can never leave a node out of normal
form.  A recursive walk is a module-level function that takes its memo as
an argument, never a closure that calls itself: such a closure and its cell
hold each other, a reference cycle per call that keeps the walk's
temporaries until the cyclic garbage collector runs.  Without cycles every
node and temporary is freed by reference counting as soon as it is
dropped.

A walker reads a node's kind off its class, never through ``isinstance``:
``type(e) is Add`` asks for one kind, and two class flags, false on
``Expr``, for a group: ``leaf`` (``Rat``, ``Sym``, ``Jet``: no children)
and ``variable`` (``Sym``, ``Jet``: the atoms of :func:`free_symbols`).
The six node classes have no subclasses, so each test takes the branch
``isinstance`` would take; only an argument that need not be a node (the
atom ``differentiate`` is given) is first checked against ``Expr``.  On a
product (x86_64 Xeon, Python 3.11.7) ``isinstance(e, (Sym, Jet))`` takes
86 ns and ``e.variable`` 18 ns, ``isinstance(e, Add)`` 38 ns and ``type(e)
is Add`` 16 ns.  The flags are class attributes: no slot, no memory per node.

Each composite node caches the set of ``Sym``/``Jet`` atoms below it
(:func:`free_symbols`), built once from its children's sets.  With it,
``differentiate(e, s)`` returns 0 for any subtree without ``s`` and
``substitute`` returns a subtree that shares no atom with the binding as
it is, without walking either.  Both are exact: a walk over such a subtree
would only rebuild each node from its unchanged children, and since every
node is in normal form, ``rebuild(e, children(e)) is e``.  An atom does not
store its own one-element set, since the set would hold the atom and the
atom the set: that cycle would keep dead atoms in the unique table until
the cyclic garbage collector runs.  So the derivative of an atom other
than ``s`` is 0 without the set, and a node's set is built from the sets
of its composite children and from its atom children themselves, skipping
the rational ones.

The declared domain is the one the numeric layer samples: u and v are
positive; parameters, t, the x_i and the higher jets are real and may be
negative.  :func:`is_positive` keeps to it, and a rational constant is
positive only if it is.  Every rewrite holds on that domain wherever both
sides are defined, so the three that need a positive base are gated:
``powe`` merges ``(b^p)^q = b^(p*q)`` only for an integer q or a positive
b (``(t^2)^(1/2)`` is ``|t|``); it distributes a power over a product only
for an integer exponent, and otherwise takes out only a positive
coefficient and the positive factors, keeping the rest as one power, or
the product whole when nothing positive comes out (``(t*x1)^(1/2)``,
``(-2*u)^(1/2)``); ``ker`` splits ``ln`` of a product of coefficient 1
only when every base is positive, or for one base to an odd power
(``ln(x1^3) = 3*ln(x1)``, but ``ln(t^2)`` stays whole).
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from fractions import Fraction
from operator import is_
from typing import Iterable, Mapping, Optional, Sequence, Union


class ExprError(Exception):
    pass


class DomainError(ExprError):
    """Raised when evaluation leaves the allowed domain (ln(x<=0), 1/0)."""


Number = Union[int, Fraction]

# the unique table: (kind, payload, child nodes) -> weak reference to the node
_NODES = {}


class _Ref(weakref.ref):
    """A weak reference that knows its key in the unique table, built by
    C-level calls only."""

    __slots__ = ("key",)


def _forget(ref, nodes=_NODES):
    # a node with the same identity may have been built again in between
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _enter(node, ident):
    """Put the new ``node`` into the unique table under ``ident``."""
    ref = _NODES[ident] = _Ref(node, _forget)
    ref.key = ident
    return node


class Expr:
    __slots__ = ("_key", "_atoms", "__weakref__")
    leaf = False        # Rat, Sym and Jet: a node without children
    variable = False    # Sym and Jet: an atom of free_symbols

    def key(self):
        try:
            return self._key
        except AttributeError:
            self._key = k = self._make_key()
            return k

    def __reduce__(self):
        # copies and unpickled nodes go through the unique table as well
        return type(self), tuple(getattr(self, n) for n in type(self).__slots__)

    # arithmetic sugar (used heavily by the rest of the package and tests)
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(MINUS_ONE, as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, powe(as_expr(other), MINUS_ONE))

    def __rtruediv__(self, other):
        return mul(as_expr(other), powe(self, MINUS_ONE))

    def __pow__(self, other):
        return powe(self, as_expr(other))

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __repr__(self):
        # lazy: parser imports this module, so a module-level import here
        # would be circular
        from .parser import to_text

        return f"<{type(self).__name__} {to_text(self)}>"

    def __str__(self):
        from .parser import to_text

        return to_text(self)


def as_expr(x) -> Expr:
    """An Expr as it is, an int or a Fraction as its rational; anything
    else, a float or a str, raises ``ExprError``."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, int) or type(x) is Fraction:
        return rat(x)
    raise ExprError(f"cannot coerce {x!r} to Expr")


MAX_DIGITS = 4300  # the default limit of str(int), which the printer uses
_TOO_LONG = 10 ** MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()


def _printable(n: int, d: int):
    if not (-_TOO_LONG < n < _TOO_LONG and d < _TOO_LONG):
        raise ExprError(f"a number of more than {MAX_DIGITS} digits")


class Rat(Expr):
    __slots__ = ("value",)
    leaf = True

    def __new__(cls, value: Number):
        n, d = value.numerator, value.denominator
        ident = (0, n, d)
        ref = _NODES.get(ident)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        _printable(n, d)
        node = object.__new__(cls)
        node.value = n if d == 1 else value
        return _enter(node, ident)

    def _make_key(self):
        return (0, self.value.numerator, self.value.denominator)


class Sym(Expr):
    __slots__ = ("name",)
    leaf = variable = True

    def __new__(cls, name: str):
        ident = (1, name)
        ref = _NODES.get(ident)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.name = name
        return _enter(node, ident)

    def _make_key(self):
        return (1, self.name)


class Jet(Expr):
    """A jet coordinate u^a_J; order zero is the dependent variable itself."""

    __slots__ = ("dep", "nt", "xs")
    leaf = variable = True

    def __new__(cls, dep: str, nt: int = 0, xs: Sequence[int] = ()):
        xs = tuple(sorted(xs))
        ident = (2, dep, nt, xs)
        ref = _NODES.get(ident)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if dep not in ("u", "v"):
            raise ExprError(f"unknown dependent {dep!r}")
        node = object.__new__(cls)
        node.dep, node.nt, node.xs = dep, nt, xs
        return _enter(node, ident)

    @property
    def order(self) -> int:
        return self.nt + len(self.xs)

    def bump(self, direction) -> "Jet":
        if direction == "t":
            return Jet(self.dep, self.nt + 1, self.xs)
        return Jet(self.dep, self.nt, self.xs + (int(direction),))

    def _make_key(self):
        return (2, self.dep, self.nt, self.xs)


class Ker(Expr):
    """Kernel application: exp/ln/sin/cos or an opaque named function.

    ``dvec[i]`` counts derivatives taken with respect to argument slot ``i``.
    Builtins always carry dvec == (0,); their derivatives are closed forms.
    """

    __slots__ = ("name", "args", "dvec")

    def __new__(cls, name: str, args: Sequence[Expr], dvec: Sequence[int] = None):
        args = tuple(args)
        dvec = tuple(dvec) if dvec is not None else (0,) * len(args)
        ident = (3, name, args, dvec)
        ref = _NODES.get(ident)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(dvec) != len(args):
            raise ExprError("dvec length mismatch")
        node = object.__new__(cls)
        node.name, node.args, node.dvec = name, args, dvec
        return _enter(node, ident)

    def _make_key(self):
        return (3, self.name, self.dvec, tuple(a.key() for a in self.args))


class Mul(Expr):
    """coeff * prod(base^exp for base, exp in pairs); pairs sorted by base.
    A lone power b^x is the product with coeff 1 and the one pair (b, x)."""

    __slots__ = ("coeff", "pairs")

    def __new__(cls, coeff: Number, pairs):
        pairs = tuple(pairs)
        n, d = coeff.numerator, coeff.denominator
        ident = (5, n, d, pairs)
        ref = _NODES.get(ident)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        _printable(n, d)
        node = object.__new__(cls)
        node.coeff, node.pairs = n if d == 1 else coeff, pairs
        return _enter(node, ident)

    def _make_key(self):
        lone = lone_power(self)
        if lone is not None:
            b, x = lone
            return (4, b.key(), x.key())    # a power sorts before products
        return (5, self.coeff.numerator, self.coeff.denominator,
                tuple((b.key(), e.key()) for b, e in self.pairs))


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        terms = tuple(terms)
        ident = (6, terms)
        ref = _NODES.get(ident)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.terms = terms
        return _enter(node, ident)

    def _make_key(self):
        return (6, tuple(t.key() for t in self.terms))


BUILTIN_KERNELS = ("exp", "ln", "sin", "cos")


def rat(num, den=None) -> Rat:
    if den is None and type(num) is int:
        ref = _NODES.get((0, num, 1))    # the live node, if any
        node = None if ref is None else ref()
        if node is not None:
            return node
    exact = den is None and type(num) in (int, Fraction)
    return Rat(num if exact else Fraction(num, den))


ZERO = rat(0)
ONE = rat(1)
MINUS_ONE = rat(-1)


def sym(name: str) -> Sym:
    return Sym(name)


def jet(dep: str, nt: int = 0, xs: Sequence[int] = ()) -> Jet:
    return Jet(dep, nt, xs)


U = jet("u")
V = jet("v")
T = sym("t")


def is_zero(e: Expr) -> bool:
    return e is ZERO


def is_one(e: Expr) -> bool:
    return e is ONE


def is_int(e: Expr) -> bool:
    return type(e) is Rat and type(e.value) is int


def _power(b: Expr, x: Expr) -> Expr:
    """The node b^x with no rewrite: b itself for x = 1, otherwise the
    product 1*b^x.  Only for a pair (b, x) taken from a normal product, or
    for what ``powe`` has ruled out every rewrite of."""
    return b if x is ONE else Mul(1, ((b, x),))


def lone_power(e: Expr):
    """(b, x) when e is the lone power b^x, the product 1*b^x; else None."""
    if type(e) is Mul and e.coeff == 1 and len(e.pairs) == 1:
        return e.pairs[0]
    return None


def is_positive(e: Expr) -> bool:
    """e > 0 everywhere on the domain: u and v, positive rationals, and
    products (powers among them) and sums of positive factors.  Parameters,
    t, x_i and jets of order >= 1 are not known to be positive."""
    if type(e) is Rat:
        return e.value > 0
    if type(e) is Jet:
        return e.order == 0
    if type(e) is Mul:
        return e.coeff > 0 and all(is_positive(b) for b, _ in e.pairs)
    if type(e) is Add:
        return all(is_positive(t) for t in e.terms)
    return False


# ---------------------------------------------------------------------------
# constructors


def term_parts(t: Expr):
    """Split an Add term into (rational coefficient, monomial pairs key)."""
    if type(t) is Rat:
        return t.value, None
    if type(t) is Mul:
        return t.coeff, t.pairs
    return 1, ((t, ONE),)


def _from_parts(coeff: Number, pairs) -> Expr:
    if pairs is None:
        return rat(coeff)
    return _make_mul(coeff, pairs)


_COMPUTED_CAP = 4096
# the computed tables of add, mul and powe: operand nodes -> result
_ADDED = {}
_MULTIPLIED = {}
_POWERED = {}


def _keep(table: dict, operands: tuple, out: Expr) -> Expr:
    """Store ``out`` in ``table``, one of the computed tables; all three are
    cleared together once they hold ``_COMPUTED_CAP`` entries in all."""
    if len(_ADDED) + len(_MULTIPLIED) + len(_POWERED) >= _COMPUTED_CAP:
        _ADDED.clear()
        _MULTIPLIED.clear()
        _POWERED.clear()
    table[operands] = out
    return out


def add(*terms) -> Expr:
    if len(terms) == 1:
        return terms[0]    # a normal node is its own sum
    out = _ADDED.get(terms)
    if out is not None:
        return out
    acc = {}  # monomial pairs (None for the rational term) -> coefficient
    lone = {}  # monomial pairs -> the one term that gave them, if just one
    for t in terms:
        # the terms of a sum are never sums, so one level flattens it
        for s in (t.terms if type(t) is Add else (t,)):
            if s is ZERO:
                continue
            coeff, pairs = term_parts(s)
            if pairs in acc:
                acc[pairs] += coeff
                lone[pairs] = None
            else:
                acc[pairs] = coeff
                lone[pairs] = s
    # a term that met no like term is its own _from_parts
    parts = [lone[pairs] or _from_parts(coeff, pairs)
             for pairs, coeff in acc.items() if coeff != 0]
    if len(parts) > 1:
        parts.sort(key=Expr.key)
        out = Add(parts)
    else:
        out = parts[0] if parts else ZERO
    return _keep(_ADDED, terms, out)


def _make_mul(coeff: Number, pairs) -> Expr:
    """Assemble a product from a nonzero coefficient and sorted pairs."""
    if not pairs:
        return rat(coeff)
    if len(pairs) == 1:
        b, e = pairs[0]
        if coeff == 1:
            return _power(b, e)
        # a bare rational multiple of a sum distributes, so that like terms
        # across sums can merge
        if is_one(e) and type(b) is Add:
            return add(*[_scale_term(coeff, t) for t in b.terms])
    return Mul(coeff, pairs)


def _scale_term(coeff: Number, t: Expr) -> Expr:
    c, pairs = term_parts(t)
    return _from_parts(coeff * c, pairs)


def mul(*factors) -> Expr:
    out = _MULTIPLIED.get(factors)
    if out is not None:
        return out
    if len(factors) == 2:
        r, f = factors
        if type(f) is Rat:
            r, f = f, r
        if type(r) is Rat:
            # a rational times one node: what the general path below gives
            c = r.value
            if c == 0:
                return ZERO
            if type(f) is Rat:
                out = rat(c * f.value)
            elif type(f) is Mul:
                out = _make_mul(c * f.coeff, f.pairs)
            else:
                out = _make_mul(c, ((f, ONE),))
            return _keep(_MULTIPLIED, factors, out)
    coeff = 1
    bases = {}  # base -> its exponents
    exps = []  # the exp factors
    for f in factors:
        if type(f) is Rat:
            coeff *= f.value
            continue
        # one level flattens f: a product's pairs hold no factor to flatten
        if type(f) is Mul:
            coeff *= f.coeff
            pairs = f.pairs
        else:
            pairs = ((f, ONE),)
        for b, x in pairs:
            if type(b) is Ker and b.name == "exp":
                exps.append(b)  # powe leaves exp(a) to the 1st
            elif b in bases:
                bases[b].append(x)
            else:
                bases[b] = [x]
    if coeff == 0:
        return ZERO
    pending = []  # what powe rewrote, multiplied in afresh
    if len(exps) == 1:
        # a normal exp node's argument holds no ln part to pull out
        bases[exps[0]] = [ONE]
    elif exps:
        # ln extraction may turn the merged exponential into a product
        e = ker("exp", add(*[b.args[0] for b in exps]))
        if type(e) is Ker and e.name == "exp":
            bases[e] = [ONE]
        else:
            pending.append(e)
    out_pairs = []
    for b, xs in bases.items():
        x = xs[0] if len(xs) == 1 else add(*xs)
        if x is ZERO:
            continue
        # a rational or a product to the 1st is no factor of a normal product
        if x is not ONE or type(b) is Rat or type(b) is Mul:
            p = powe(b, x)
            if lone_power(p) != (b, x):
                pending.append(p)
                continue
        out_pairs.append((b, x))
    out_pairs.sort(key=lambda bx: bx[0].key())
    out = _make_mul(coeff, out_pairs)
    if pending:
        out = mul(out, *pending)
    return _keep(_MULTIPLIED, factors, out)


def _root(n: int, q: int) -> Optional[int]:
    """The q-th root of n when it is an integer.  It is below 2^(bits/q): no
    search runs for q >= bits, none computes a power of over 2*bits bits."""
    lo, hi = 0, (1 << (n.bit_length() // q + 1)) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** q < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** q == n else None


def powe(base: Expr, exp: Expr) -> Expr:
    operands = (base, exp)
    out = _POWERED.get(operands)
    if out is None:
        out = _keep(_POWERED, operands, _powe(base, exp))
    return out


def _powe(base: Expr, exp: Expr) -> Expr:
    """``powe`` without its computed table."""
    if is_zero(exp):
        return ONE
    if is_one(exp):
        return base
    if is_one(base):
        return ONE
    lone = lone_power(base)
    if type(base) is Rat:
        if base.value == 0:
            if is_positive(exp):
                return ZERO
            if type(exp) is Rat:
                raise DomainError("division by zero: 0 to a non-positive power")
        elif type(exp) is Rat:
            value, n = base.value, exp.value
            if type(n) is not int:
                rn = _root(value.numerator, n.denominator)
                rd = _root(value.denominator, n.denominator)
                value = None if rn is None or rd is None else Fraction(rn, rd)
                n = n.numerator
            if value is not None:
                # value^n has a part of at least 2^(|n|*bits): check first
                bits = max(value.numerator.bit_length(),
                           value.denominator.bit_length()) - 1
                if bits * abs(n) >= _TOO_LONG_BITS:
                    raise ExprError(f"a power of over {MAX_DIGITS} digits")
                return rat(value ** n if n >= 0 else Fraction(value) ** n)
    elif lone is not None:
        # (b^x)^e = b^(x*e) for an integer e, or where b^x is real for a
        # real x: (t^2)^(1/2) is |t|, not t
        b, x = lone
        if is_int(exp) or is_positive(b):
            return powe(b, mul(x, exp))
    elif type(base) is Mul:
        # (c*a*b)^e = c^e * a^e * b^e for an integer e; else only a
        # positive coefficient and the positive factors come out:
        # (t*x1)^(1/2) is defined where t, x1 < 0, t^(1/2)*x1^(1/2) is not
        if is_int(exp):
            return mul(powe(rat(base.coeff), exp),
                       *[powe(_power(b, x), exp) for b, x in base.pairs])
        if base.coeff > 0:
            positive = [(b, x) for b, x in base.pairs if is_positive(b)]
            rest = [(b, x) for b, x in base.pairs if not is_positive(b)]
            if positive or base.coeff != 1:
                return mul(powe(rat(base.coeff), exp),
                           *[powe(_power(b, x), exp) for b, x in positive],
                           powe(_make_mul(1, rest), exp))
    elif type(base) is Ker and base.name == "exp":
        return ker("exp", mul(base.args[0], exp))
    return _power(base, exp)


def _sign_flip(e: Expr):
    """Return (True, -e) when e's canonical leading sign is negative.

    A sum whose negation also leads with a negative coefficient keeps the
    one of the two with the smaller key, so that the choice is a fixed
    point: sin(-a) = -sin(a) and cos(-a) = cos(a) with the same a."""
    if type(e) is Rat:
        if e.value < 0:
            return True, rat(-e.value)
        return False, e
    if type(e) is Mul:
        if e.coeff < 0:
            return True, _make_mul(-e.coeff, e.pairs)
        return False, e
    if type(e) is Add:
        if term_parts(e.terms[0])[0] < 0:
            neg = mul(MINUS_ONE, e)
            if term_parts(neg.terms[0])[0] >= 0 or neg.key() < e.key():
                return True, neg
        return False, e
    return False, e


def _ln_split(term: Expr):
    """Match term == c * ln(b); return (c, b) or None."""
    if type(term) is Ker and term.name == "ln":
        return 1, term.args[0]
    if type(term) is Mul and len(term.pairs) == 1:
        (b, e), = term.pairs
        if type(b) is Ker and b.name == "ln" and is_one(e):
            return term.coeff, b.args[0]
    return None


def ker(name: str, *args, dvec: Sequence[int] = None) -> Expr:
    args = tuple(as_expr(a) for a in args)
    if name in BUILTIN_KERNELS:
        if len(args) != 1:
            raise ExprError(f"{name} takes one argument")
        if dvec is not None and any(dvec):
            raise ExprError("builtin kernels have closed-form derivatives")
        (a,) = args
        if name == "exp":
            if is_zero(a):
                return ONE
            # pull rational multiples of ln out of the exponent
            lnparts, rest = [], []
            for t in addends(a):
                m = _ln_split(t)
                if m is not None:
                    lnparts.append(m)
                else:
                    rest.append(t)
            if lnparts:
                factors = [powe(b, rat(c)) for c, b in lnparts]
                r = add(*rest)
                if not is_zero(r):
                    factors.append(Ker("exp", (r,)))
                return mul(*factors)
            return Ker("exp", (a,))
        if name == "ln":
            if is_one(a):
                return ZERO
            if type(a) is Ker and a.name == "exp":
                return a.args[0]
            # ln(a*b) = ln(a) + ln(b) and ln(b^e) = e*ln(b) wherever
            # either side is defined: for positive bases, or one base to an
            # odd power (ln(t^2) is defined at t < 0, 2*ln(t) is not)
            if type(a) is Mul and a.coeff == 1 and (
                    all(is_positive(b) for b, _ in a.pairs)
                    or len(a.pairs) == 1 and is_int(a.pairs[0][1])
                    and a.pairs[0][1].value % 2):
                return add(*[mul(e, ker("ln", b)) for b, e in a.pairs])
            if type(a) is Rat and a.value <= 0:
                raise DomainError(f"ln of non-positive constant {a.value}")
            return Ker("ln", (a,))
        if name == "sin":
            if is_zero(a):
                return ZERO
            neg, a2 = _sign_flip(a)
            if neg:
                return mul(MINUS_ONE, Ker("sin", (a2,)))
            return Ker("sin", (a,))
        if name == "cos":
            if is_zero(a):
                return ONE
            _, a2 = _sign_flip(a)
            return Ker("cos", (a2,))
    return Ker(name, args, dvec)


def exp_(a) -> Expr:
    return ker("exp", a)


def ln_(a) -> Expr:
    return ker("ln", a)


def sin_(a) -> Expr:
    return ker("sin", a)


def cos_(a) -> Expr:
    return ker("cos", a)


# ---------------------------------------------------------------------------
# traversal: children / rebuild


def children(e: Expr) -> Sequence[Expr]:
    """Direct subexpressions in a fixed order: the terms of a sum, ``b, x``
    for each pair of a product or power (its coefficient stays on the
    node), the arguments of a kernel; atoms have none."""
    if e.leaf:
        return ()
    if type(e) is Add:
        return e.terms
    if type(e) is Mul:
        return [c for pair in e.pairs for c in pair]
    return e.args


def rebuild(e: Expr, kids: Sequence[Expr]) -> Expr:
    """The node e put back together around ``kids`` (as ordered by
    :func:`children`), always through the normalizing constructors; a node
    without children comes back as it is."""
    if not kids:
        return e
    if type(e) is Add:
        return add(*kids)
    if type(e) is Mul:
        pairs = iter(kids)
        return mul(rat(e.coeff), *[powe(b, x) for b, x in zip(pairs, pairs)])
    if e.name in BUILTIN_KERNELS:
        return ker(e.name, *kids)
    return Ker(e.name, tuple(kids), e.dvec)


def free_symbols(e: Expr) -> frozenset:
    """The ``Sym`` and ``Jet`` atoms of e: cached on each composite node,
    built from the sets of its composite children and its atom children
    themselves (no rationals), reusing a child's set when it covers the
    rest.  An atom's own set is made afresh (see the module docstring).
    Unordered: sort by ``key()`` before anything depends on the order."""
    if e.variable:
        return frozenset((e,))
    try:
        return e._atoms
    except AttributeError:
        pass
    out = frozenset()
    atoms = []
    for c in children(e):
        if type(c) is Rat:
            continue
        if c.variable:
            atoms.append(c)
            continue
        s = free_symbols(c)
        if not s <= out:
            out = s if out <= s else out | s
    if atoms and not out.issuperset(atoms):
        out = out.union(atoms)
    e._atoms = out
    return out


def jets_in(e: Expr) -> set:
    return {a for a in free_symbols(e) if type(a) is Jet}


# ---------------------------------------------------------------------------
# kernel rewrite rules and substitution


class KernelRule:
    """Defining relation  d^order/d(slot)^order  K(params) = template.

    The template is written in terms of the canonical parameter symbols and
    may mention other derivatives of the same kernel (by name), as long as
    every kernel occurrence in it carries strictly fewer slot-derivatives
    than ``order`` -- that is what makes rewriting terminate.  A rule of
    order 0 is a definition, K(params) = template: it rewrites the kernel
    and each of its derivatives, and its template mentions no kernel that
    has a rule.
    """

    __slots__ = ("name", "slot", "order", "params", "template")

    def __init__(self, name: str, slot: int, order: int,
                 params: Sequence[Expr], template: Expr):
        self.name = name
        self.slot = slot
        self.order = order
        self.params = tuple(params)
        self.template = template


class RuleSet:
    """Kernel rules grouped by kernel name, in the order given.  Two sets
    are equal, and hash alike, when they hold the same rules in the same
    order: the content is the tuple of each rule's (name, slot, order,
    params, template), whose nodes are hash-consed, so comparing two sets
    built separately for one row is cheap."""

    def __init__(self, rules: Iterable[KernelRule] = ()):
        self._by_name = {}
        for r in rules:
            self._by_name.setdefault(r.name, []).append(r)
        self._content = tuple((r.name, r.slot, r.order, r.params, r.template)
                              for r in self)
        self._hash = hash(self._content)

    def __eq__(self, other):
        return self is other or (isinstance(other, RuleSet)
                                 and self._content == other._content)

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self._by_name)

    def __iter__(self):
        for rs in self._by_name.values():
            yield from rs

    def for_name(self, name: str):
        return self._by_name.get(name, ())


EMPTY_RULES = RuleSet()


def apply_rules(e: Expr, rules: RuleSet) -> Expr:
    """Rewrite every kernel in e that has a rule for its name through
    :func:`reduce_kernel`, arguments first; each distinct node is rewritten
    once.  A relation (order >= 1) leaves a kernel with too few derivatives
    as it is; a definition (order 0) replaces every occurrence."""
    if not rules:
        return e
    return _mapped(e, {}, rules, {})


def substitute(e: Expr, binding: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous capture-free substitution of ``Sym``/``Jet`` atoms by
    expressions, followed by normalization; binding an atom not present is
    a no-op.  Kernels are rewritten by :func:`apply_rules`."""
    if not binding or type(e) is Rat:
        return e  # a rational holds no atom
    return _mapped(e, binding, EMPTY_RULES, {})


def _mapped(n: Expr, binding: Mapping[Expr, Expr], rules: RuleSet,
            done: dict) -> Expr:
    """n with each bound atom replaced and each kernel that has a rule
    rewritten, arguments first; ``done`` maps each node already mapped in
    one call to its image.  Without rules, a subtree free of the bound
    atoms is its own image, and so is any node whose children are their
    own images, unless it is a kernel with a rule: rebuilding a normal
    node from its own children gives it back."""
    if n.variable:
        return binding.get(n, n)
    if rules is EMPTY_RULES and free_symbols(n).isdisjoint(binding):
        return n
    out = done.get(n)
    if out is None:
        kids = children(n)
        # a rational is its own image
        images = [c if type(c) is Rat else _mapped(c, binding, rules, done)
                  for c in kids]
        if (type(n) is Ker and rules is not EMPTY_RULES
                and rules.for_name(n.name)):
            out = reduce_kernel(n.name, tuple(images), n.dvec, rules)
        elif all(map(is_, images, kids)):
            out = n    # rebuild(n, children(n)) is n
        else:
            out = rebuild(n, images)
        done[n] = out
    return out


def reduce_kernel(name: str, args, dvec, rules: RuleSet) -> Expr:
    """Apply defining rewrite rules to a derived kernel, recursively: the
    first rule for ``name`` whose order the derivatives reach rewrites it
    (an order-0 rule always does)."""
    for rule in rules.for_name(name):
        rem = list(dvec)
        if rule.order:
            if rem[rule.slot] < rule.order:
                continue
            rem[rule.slot] -= rule.order
        e = rule.template
        for i, n in enumerate(rem):
            for _ in range(n):
                e = differentiate(e, rule.params[i], rules)
        return substitute(e, dict(zip(rule.params, args)))
    return Ker(name, args, tuple(dvec))


# ---------------------------------------------------------------------------
# differentiation


def _ker_slot_derivative(e: Ker, slot: int, rules: RuleSet) -> Expr:
    if e.name in BUILTIN_KERNELS:
        a = e.args[0]
        if e.name == "exp":
            return Ker("exp", (a,))
        if e.name == "ln":
            return powe(a, MINUS_ONE)
        if e.name == "sin":
            return ker("cos", a)
        if e.name == "cos":
            return mul(MINUS_ONE, ker("sin", a))
    dvec = list(e.dvec)
    dvec[slot] += 1
    return reduce_kernel(e.name, e.args, dvec, rules)


def differentiate(e: Expr, s: Expr, rules: RuleSet = EMPTY_RULES) -> Expr:
    """Exact partial derivative of e with respect to the atom s.  The walk
    differentiates each node it meets once: outside a block each call keeps
    a memo of its own, and inside a :func:`shared_derivations` block every
    call by s under equal rules reads and fills one memo, kept in the
    block's table under (``_derivative``, (s, rules))."""
    if not (isinstance(s, Expr) and s.variable):
        raise ExprError(f"can only differentiate by a symbol, got {s!r}")
    if e is s:
        return ONE
    if s not in free_symbols(e):
        return ZERO
    table = _SHARED
    if table is None:
        memo = {}
    else:
        key = (_derivative, (s, rules))
        memo = table.get(key)
        if memo is None:
            memo = table[key] = {}
    return _derivative(e, s, rules, memo)


def _derivative(e: Expr, s: Expr, rules: RuleSet, memo: dict) -> Expr:
    """de/ds; ``memo`` maps each node already differentiated by s under
    ``rules`` to its derivative, entered only once that is complete."""
    if e is s:
        return ONE
    if e.leaf or s not in free_symbols(e):
        return ZERO
    hit = memo.get(e)
    if hit is not None:
        return hit

    if type(e) is Ker:
        parts = []
        for i, a in enumerate(e.args):
            da = _derivative(a, s, rules, memo)
            if is_zero(da):
                continue
            parts.append(mul(_ker_slot_derivative(e, i, rules), da))
        out = add(*parts) if parts else ZERO
    elif type(e) is Mul:
        factors = [_power(b, x) for b, x in e.pairs]
        parts = []
        for i, (b, x) in enumerate(e.pairs):
            # d(b^x) = x*b^(x-1)*db + ln(b)*b^x*dx
            df = _derivative(b, s, rules, memo)
            dx = _derivative(x, s, rules, memo)
            if x is not ONE and not is_zero(df):
                df = mul(x, powe(b, add(x, MINUS_ONE)), df)
            if not is_zero(dx):
                df = add(df, mul(ker("ln", b), factors[i], dx))
            if not is_zero(df):
                parts.append(mul(rat(e.coeff), df,
                                 *factors[:i], *factors[i + 1:]))
        out = add(*parts) if parts else ZERO
    elif type(e) is Add:
        out = add(*[_derivative(t, s, rules, memo) for t in e.terms])
    else:
        raise ExprError(f"unknown node {e!r}")
    memo[e] = out
    return out


# ---------------------------------------------------------------------------
# expansion (full distribution + trig power reduction)


_EXPAND_TERM_CAP = 200_000


def addends(e: Expr) -> tuple:
    """The terms of e: those of a sum, else e alone."""
    return e.terms if type(e) is Add else (e,)


def _distribute(aterms, bterms) -> list:
    if len(aterms) * len(bterms) > _EXPAND_TERM_CAP:
        raise ExprError("expansion too large")
    return [mul(x, y) for x in aterms for y in bterms]


def _expanded(e: Expr, memo: dict) -> Expr:
    return add(*_expand_terms(e, memo))


def _power_terms(b: Expr, x: Expr, memo: dict) -> list:
    """The terms of b^x, distributed when b expands to a sum and x to an
    integer > 1; otherwise b^x goes through ``powe``, whose result is
    expanded again only when it rewrote the node.  ``memo`` maps (b, x)
    to its terms (see :func:`expand` for how long it lives)."""
    out = memo.get((b, x))
    if out is not None:
        return out
    eb, ex = _expanded(b, memo), _expanded(x, memo)
    if type(eb) is Add and is_int(ex) and ex.value > 1:
        out = eb.terms
        for _ in range(ex.value - 1):
            out = _distribute(out, eb.terms)
    else:
        p = powe(eb, ex)
        if p is eb or lone_power(p) == (eb, ex):
            out = addends(p)
        else:
            out = _expand_terms(p, memo)
    memo[(b, x)] = out
    return out


def _expand_terms(e: Expr, memo: dict) -> list:
    """The terms of e with every product distributed over sums, in one pass
    over the tree; the terms are not merged with each other.  ``memo``
    maps each node met to its terms, so a subtree shared by many terms is
    expanded once; no caller mutates a list it hands out."""
    out = memo.get(e)
    if out is not None:
        return out
    if type(e) is Add:
        out = [t for c in e.terms for t in _expand_terms(c, memo)]
    elif type(e) is Mul:
        out = [rat(e.coeff)]
        for b, x in e.pairs:
            out = _distribute(out, addends(add(*_power_terms(b, x, memo))))
    else:
        r = rebuild(e, [_expanded(c, memo) for c in children(e)])
        # a kernel constructor may rewrite (exp pulls out ln parts, ln
        # splits products, sin pulls out a sign): expand what it made
        out = ([r] if r is e or type(r) is Ker
               else _expand_terms(r, memo))
    memo[e] = out
    return out


def _cos_reduced(t: Expr, memo: dict) -> list:
    """The expanded terms of the monomial t with each cos(a)^k (k >= 2)
    rewritten as (1 - sin(a)^2)^(k//2) * cos(a)^(k%2)."""
    coeff, pairs = term_parts(t)
    for j, (b, x) in enumerate(pairs or ()):
        if type(b) is Ker and b.name == "cos" and is_int(x) and x.value >= 2:
            k = x.value
            cos2 = add(ONE, mul(MINUS_ONE, powe(ker("sin", b.args[0]), rat(2))))
            rest = [_power(bb, xx) for bb, xx in pairs[:j] + pairs[j + 1:]]
            new = mul(rat(coeff), powe(cos2, rat(k // 2)), powe(b, rat(k % 2)),
                      *rest)
            return [r for s in _expand_terms(new, memo)
                    for r in _cos_reduced(s, memo)]
    return [t]


# the table of the open shared_derivations() block, else None
_SHARED = None


@contextmanager
def collector_paused():
    """A block run with the cyclic garbage collector paused (see the module
    docstring).  The outermost block disables it and restores the state it
    found when the block ends, by an exception too; inside it the collector
    is already off, so a nested block does nothing."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


@contextmanager
def shared_derivations():
    """A block whose derivations share one table, dropped when the block
    ends: the terms ``expand`` meets, the derivatives ``differentiate``
    meets (one memo per atom and rule set) and whatever :func:`shared`
    builds.
    Every result is the one a call outside any block gives (see the module
    docstring).  The block runs inside :func:`collector_paused`."""
    global _SHARED
    with collector_paused():
        outer, _SHARED = _SHARED, {}
        try:
            yield
        finally:
            _SHARED = outer


def shared(key, build, *args):
    """build(*args), kept in the open :func:`shared_derivations` block's
    table under (build, key), where ``key`` names everything the result
    depends on; with no block open it is just built.  A build that raises
    stores nothing."""
    table = _SHARED
    if table is None:
        return build(*args)
    key = (build, key)
    out = table.get(key)
    if out is None:
        out = table[key] = build(*args)
    return out


def expand(e: Expr) -> Expr:
    """Fully distribute products over sums and reduce cos powers to <= 1.

    One pass collects the distributed terms of e unmerged, each term has
    its cos powers reduced through cos^2 = 1 - sin^2, and a single ``add``
    merges the lot.  Inside a :func:`shared_derivations` block the walk reads
    and fills the block's table, else a table of its own.  Raises ExprError
    when a product would exceed ``_EXPAND_TERM_CAP`` terms."""
    memo = _SHARED if _SHARED is not None else {}
    return add(*[r for t in _expand_terms(e, memo)
                 for r in _cos_reduced(t, memo)])
