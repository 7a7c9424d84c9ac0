"""Jet coordinates and total derivatives.

The independent coordinates are t and x1..xm: ``coords`` is the one place
that spells x1..xm and ``is_coordinate`` the one test for a coordinate
symbol; ``stray_coordinates`` names those a dimension-m system or
generator cannot hold.  ``coords(m)`` returns one tuple per m, built on
first use, kept in a module-level table and shared by every caller.  A
jet symbol ``u_txi...`` stands for the corresponding partial derivative of
u(t, x); order-zero jets are u and v themselves.  Spatial indices commute,
so their multi-index is kept sorted.  Total derivatives stop at jet order
``MAX_ORDER``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

from .expr import (EMPTY_RULES, Expr, ExprError, RuleSet, Sym, T, add,
                   differentiate, free_symbols, is_zero, jets_in, mul, sym)

MAX_ORDER = 4


class JetOrderError(ExprError):
    pass


_COORDS: Dict[int, Tuple[Sym, ...]] = {}


def coords(m: int) -> Tuple[Sym, ...]:
    """The spatial coordinates x1..xm, one tuple per m."""
    xs = _COORDS.get(m)
    if xs is None:
        xs = _COORDS[m] = tuple(sym(f"x{i}") for i in range(1, m + 1))
    return xs


def is_coordinate(s: Expr) -> bool:
    """True for the symbols t and x<digits>."""
    return type(s) is Sym and (
        s.name == "t" or s.name[:1] == "x" and s.name[1:].isdigit())


def stray_coordinates(e: Expr, m: int) -> list:
    """The coordinate symbols of e that are neither t nor one of x1..xm,
    by name: a dimension-m system or generator cannot hold them."""
    xs = coords(m)
    return sorted(s.name for s in free_symbols(e)
                  if is_coordinate(s) and s is not T and s not in xs)


Direction = Union[str, int]  # "t" or a 1-based spatial index


def total_derivative(e: Expr, direction: Direction, m: int,
                     rules: RuleSet = EMPTY_RULES) -> Expr:
    """D_direction e = de/d(direction) + sum_J u^a_{J,dir} * de/du^a_J."""
    if direction == "t":
        base = T
    else:
        i = int(direction)
        if not 1 <= i <= m:
            raise JetOrderError(f"direction x{i} outside dimension m={m}")
        base = coords(m)[i - 1]
    parts = [differentiate(e, base, rules)]
    for j in jets_in(e):
        d = differentiate(e, j, rules)
        if is_zero(d):
            continue
        bumped = j.bump(direction)
        if bumped.order > MAX_ORDER:
            raise JetOrderError(
                f"total derivative exceeds jet order cap {MAX_ORDER}")
        parts.append(mul(bumped, d))
    return add(*parts)


def total_derivatives(e: Expr, nt: int, xs: Sequence[int], m: int,
                      rules: RuleSet = EMPTY_RULES) -> Expr:
    """D_t^nt D_xs e: D_x for each index in ``xs``, then D_t nt times."""
    for i in xs:
        e = total_derivative(e, i, m, rules)
    for _ in range(nt):
        e = total_derivative(e, "t", m, rules)
    return e


def laplacian(e: Expr, m: int, rules: RuleSet = EMPTY_RULES) -> Expr:
    return add(*[total_derivative(total_derivative(e, i, m, rules), i, m, rules)
                 for i in range(1, m + 1)])


def x_squared(m: int) -> Expr:
    return add(*[mul(x, x) for x in coords(m)])
