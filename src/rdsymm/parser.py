"""Expression grammar: parse and pretty-print.

Grammar (UTF-8 text): identifiers ``[a-zA-Z_][a-zA-Z0-9_]*``; binary
``+ - * / ^`` with the usual precedence, ``^`` right-associative, unary
minus; ``name(arg, ...)`` applies a kernel; ``exp``, ``ln``, ``sin``,
``cos`` are reserved.  Jet coordinates are written ``u_t``, ``u_x1``,
``u_x1x2``, ``v_tt``...; ``u`` and ``v`` alone are the order-zero jets.
Any other identifier that starts with ``u_`` or ``v_`` (``u_xx``, ``v_y``)
is a ``ParseError``, never a parameter.

Derived opaque kernels print as ``name__d1_0(args)`` (one count per
argument slot); the parser folds that suffix back into the derivative
vector, so printing round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import (Add, BUILTIN_KERNELS, Expr, Jet, Ker, Mul, Rat, Sym, add,
                   is_one, jet, ker, lone_power, mul, powe, rat, sym)


class ParseError(Exception):
    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(sorted(expected))})"
                            if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^(),]))")

_JET = re.compile(r"^([uv])_((?:t|x\d+)+)$")
_PART = re.compile(r"t|x(\d+)")
_DSUF = re.compile(r"^(.*)__d(\d+(?:_\d+)*)$")


def _tokenize(text: str):
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             n - len(stripped))
        if m.group("num") is not None:
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            out.append(("ident", m.group("ident"), m.start("ident")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", n))
    return out


def _ident_to_expr(name: str, offset: int) -> Expr:
    """The jet or parameter an identifier names; a name that starts like a
    jet (``u_``, ``v_``) but is not one, such as ``u_xx``, is refused
    rather than read as a parameter."""
    if name == "u":
        return jet("u")
    if name == "v":
        return jet("v")
    m = _JET.match(name)
    if m:
        dep, suffix = m.groups()
        nt = 0
        xs = []
        for part in _PART.finditer(suffix):
            if part.group(0) == "t":
                nt += 1
            else:
                xs.append(int(part.group(1)))
        return jet(dep, nt, tuple(xs))
    if name.startswith(("u_", "v_")):
        raise ParseError(f"malformed jet name {name!r}: write u_t, u_x1, "
                         "u_tx1x2, ...", offset)
    return sym(name)


# nesting levels (parentheses, kernel arguments, unary signs, ^ chains)
# the recursive descent accepts, well inside Python's recursion limit
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"unexpected token {val!r}" if kind != "end"
                             else "unexpected end of input", off, {op})
        return self.next()

    # precedence: + - (10), * / (20), unary - (25), ^ (30, right)
    def expression(self, rbp: int = 0) -> Expr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("nested too deeply", self.peek()[2])
        left = self.nud()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in ("+", "-", "*", "/", "^"):
                lbp = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}[val]
                if lbp <= rbp:
                    break
                self.next()
                if val == "^":
                    right = self.expression(lbp - 1)  # right-associative
                    left = powe(left, right)
                else:
                    right = self.expression(lbp)
                    if val == "+":
                        left = add(left, right)
                    elif val == "-":
                        left = add(left, mul(rat(-1), right))
                    elif val == "*":
                        left = mul(left, right)
                    else:
                        left = mul(left, powe(right, rat(-1)))
            else:
                break
        self.depth -= 1
        return left

    def nud(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            try:
                return rat(int(val))
            except ValueError:  # beyond str(int)'s limit of digits
                raise ParseError("number too long", off) from None
        if kind == "op" and val == "-":
            return mul(rat(-1), self.expression(25))
        if kind == "op" and val == "+":
            return self.expression(25)
        if kind == "op" and val == "(":
            e = self.expression(0)
            self.expect_op(")")
            return e
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                self.next()
                args = []
                k3, v3, _ = self.peek()
                if not (k3 == "op" and v3 == ")"):
                    args.append(self.expression(0))
                    while True:
                        k3, v3, _ = self.peek()
                        if k3 == "op" and v3 == ",":
                            self.next()
                            args.append(self.expression(0))
                        else:
                            break
                self.expect_op(")")
                name = val
                dm = _DSUF.match(name)
                dvec = None
                if dm and name not in BUILTIN_KERNELS:
                    name = dm.group(1)
                    dvec = tuple(int(c) for c in dm.group(2).split("_"))
                    if len(dvec) != len(args):
                        raise ParseError("derivative suffix arity mismatch", off)
                return ker(name, *args, dvec=dvec)
            return _ident_to_expr(val, off)
        raise ParseError(f"unexpected token {val!r}" if kind != "end"
                         else "unexpected end of input", off,
                         {"number", "identifier", "(", "-"})


def parse(text: str) -> Expr:
    p = _Parser(text)
    e = p.expression(0)
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", off, {"end of input"})
    return e


# ---------------------------------------------------------------------------
# printing


def _jet_name(j: Jet) -> str:
    if j.order == 0:
        return j.dep
    return j.dep + "_" + "t" * j.nt + "".join(f"x{i}" for i in j.xs)


def _frac_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# precedence levels for parenthesization
_ATOM, _POW, _UNARY, _MUL, _ADD = 50, 30, 25, 20, 10


def _prec(e: Expr) -> int:
    if type(e) is Rat:
        if e.value < 0:
            return _UNARY
        return _ATOM if e.value.denominator == 1 else _MUL
    if e.variable or type(e) is Ker:
        return _ATOM
    if lone_power(e) is not None:
        return _POW
    if type(e) is Mul:
        return _UNARY if (e.coeff == -1 and len(e.pairs) == 1
                          and is_one(e.pairs[0][1])) else _MUL
    return _ADD


def _wrap(e: Expr, ctx: int) -> str:
    s = to_text(e)
    return f"({s})" if _prec(e) < ctx else s


def to_text(e: Expr) -> str:
    if type(e) is Rat:
        return _frac_text(e.value)
    if type(e) is Sym:
        return e.name
    if type(e) is Jet:
        return _jet_name(e)
    if type(e) is Ker:
        name = e.name
        if any(e.dvec):
            name = f"{name}__d" + "_".join(str(c) for c in e.dvec)
        return f"{name}({', '.join(to_text(a) for a in e.args)})"
    if type(e) is Mul:
        parts = []
        if e.coeff == -1 and e.pairs:
            sign = "-"
        elif e.coeff != 1 or not e.pairs:
            sign = ""
            parts.append(_frac_text(e.coeff) if e.coeff >= 0
                         else f"-{_frac_text(-e.coeff)}")
        else:
            sign = ""
        for b, x in e.pairs:
            parts.append(_wrap(b, _MUL + 1) if is_one(x)
                         else f"{_wrap(b, _POW + 1)}^{_wrap(x, _POW + 1)}")
        return sign + "*".join(parts)
    if type(e) is Add:
        out = to_text(e.terms[0])
        for t in e.terms[1:]:
            s = to_text(t)
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out
    raise TypeError(f"cannot print {e!r}")
