"""Equivalence transformations of the system class.

``LinearEquiv`` is the general linear family (u, v scaled together with a
shear and shifts, time and space rescaled); the numbered additional
equivalence transformations (AETs, ``aet(k)``) are time-dependent
``PointMap``s; the a=0 family additionally admits the v-shifts v -> v + Phi
(``VShift``): by any function of u, and by one of (u, t, x) under an
admissibility PDE system.

``LinearEquiv.matrix()`` is the same group element as the U that
``nmatrix`` conjugates its matrices by.

``apply_equiv`` re-derives the transformed nonlinearities mechanically: it
pushes the map through u_t and v_t minus the family's ``RDSystem.linear()``
part with total derivatives, eliminates t-jets through the system, and
re-expresses the result in the new dependent variables.  A transform is
applicable precisely when that calculation closes up point-form again (no
leftover jets, no explicit t or x).  ``pushforward`` carries a generator
through any of these transforms."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from .equality import Undecided, decide_equivalence, vanish
from .expr import (Expr, MINUS_ONE, ONE, T, U, V, ZERO, add, as_expr,
                   differentiate, exp_, expand, is_zero, jets_in, mul, powe,
                   rat, substitute, free_symbols)
from .fields import Generator, generator
from .jets import coords, is_coordinate, total_derivatives, x_squared
from .systems import RDSystem, evolution_reduce


class InapplicableTransform(Exception):
    pass


@dataclass(frozen=True)
class PointMap:
    """u -> cu*u + ru,  v -> cv*v + w   with cu, cv, ru functions of (t, x)
    and w a function of (u, t, x); cu, cv nonzero."""
    cu: Expr = ONE
    ru: Expr = ZERO
    cv: Expr = ONE
    w: Expr = ZERO

    def u_new(self) -> Expr:
        return add(mul(self.cu, U), self.ru)

    def v_new(self) -> Expr:
        return add(mul(self.cv, V), self.w)

    def inverse_binding(self, u_sym: Expr, v_sym: Expr) -> Dict:
        """Old (u, v) in terms of new symbols."""
        u_old = mul(add(u_sym, mul(MINUS_ONE, self.ru)), powe(self.cu, MINUS_ONE))
        w_old = substitute(self.w, {U: u_old})
        v_old = mul(add(v_sym, mul(MINUS_ONE, w_old)), powe(self.cv, MINUS_ONE))
        return {U: u_old, V: v_old}


@dataclass(frozen=True)
class LinearEquiv:
    """(x.2): u -> K1 u + b1, v -> K1 v + K2 u + b2, t -> lam^-2 t,
    x -> lam^-1 x; K1, lam nonzero."""
    K1: Expr = ONE
    K2: Expr = ZERO
    b1: Expr = ZERO
    b2: Expr = ZERO
    lam: Expr = ONE

    def point_map(self) -> PointMap:
        return PointMap(cu=self.K1, ru=self.b1, cv=self.K1,
                        w=add(mul(self.K2, U), self.b2))

    def matrix(self) -> Tuple[Tuple[Expr, ...], ...]:
        """The U acting on (1, u, v) that conjugates ``nmatrix`` matrices."""
        return ((ONE, ZERO, ZERO),
                (self.b1, self.K1, ZERO),
                (self.b2, self.K2, self.K1))

    def inverse(self) -> "LinearEquiv":
        if is_zero(self.K1) or is_zero(self.lam):
            raise InapplicableTransform(
                "transform is not invertible: K1 and lam must be nonzero")
        k1i = powe(self.K1, MINUS_ONE)
        k2i = mul(MINUS_ONE, self.K2, powe(self.K1, rat(-2)))
        b1i = mul(MINUS_ONE, self.b1, k1i)
        b2i = add(mul(MINUS_ONE, self.b2, k1i),
                  mul(self.K2, self.b1, powe(self.K1, rat(-2))))
        return LinearEquiv(K1=k1i, K2=k2i, b1=b1i, b2=b2i,
                           lam=powe(self.lam, MINUS_ONE))


@dataclass(frozen=True)
class VShift:
    """v -> v + Phi(u, t, x); a = 0 only.  A Phi with t or an x_i in it
    must also satisfy the admissibility system (``check_eqv3_admissible``)."""
    phi: Expr

    def point_map(self) -> PointMap:
        return PointMap(w=self.phi)


def aet(index: int, **params) -> PointMap:
    """The numbered additional equivalence transformations (1-10); item 11
    is a ``VShift`` whose Phi holds t or x and is built separately."""
    p = {k: as_expr(v) for k, v in params.items()}
    t = T

    def need(*names):
        missing = [n for n in names if n not in p]
        if missing:
            raise ValueError(f"AET {index} needs parameters {missing}")
        return [p[n] for n in names]

    def x2():
        if "m" not in p:
            raise ValueError(f"AET {index} needs m for the x^2 shift")
        return x_squared(int(p["m"].value))

    if index == 1:
        (om,) = need("omega")
        e = exp_(mul(om, t))
        return PointMap(cu=e, cv=e)
    if index == 2:
        om, mu = need("omega", "mu")
        return PointMap(ru=add(mul(om, t), mul(mu, x2())))
    if index == 3:
        rho, mu = need("rho", "mu")
        return PointMap(w=add(mul(rho, t), mul(mu, x2())))
    if index == 4:
        (rho,) = need("rho")
        return PointMap(ru=mul(rho, t), cv=exp_(mul(rho, t)))
    if index == 5:
        (rho,) = need("rho")
        return PointMap(w=mul(rho, t, U))
    if index == 6:
        om, kap, rho = need("omega", "kappa", "rho")
        return PointMap(cu=exp_(mul(om, t)),
                        w=add(mul(kap, t, U), mul(rat(1, 2), rho, t, t)))
    if index == 7:
        rho, lam = need("rho", "lam")
        return PointMap(w=add(mul(MINUS_ONE, rho, t, U),
                              mul(rat(1, 2), rho, lam, t, t)))
    if index == 8:
        rho, eps = need("rho", "eps")
        e = exp_(mul(rho, t))
        return PointMap(cu=e, cv=e, w=mul(rat(1, 2), eps, t, t, U, e))
    if index == 9:
        (rho,) = need("rho")
        return PointMap(ru=mul(rho, t),
                        w=add(mul(rho, t, U), mul(rat(1, 2), rho, rho, t, t)))
    if index == 10:
        (om,) = need("omega")
        e = exp_(mul(om, t))
        return PointMap(cu=e, cv=e, w=mul(MINUS_ONE, om, t, U, e))
    raise ValueError(f"unknown AET index {index}")


# ---------------------------------------------------------------------------


def _transformed_f(system: RDSystem, pm: PointMap) -> Tuple[Expr, Expr]:
    """Push the point map through both equations; returns the new f's in the
    new variables or raises InapplicableTransform."""
    m, rules = system.m, system.rules
    new = {"u": pm.u_new(), "v": pm.v_new()}
    old_uv = pm.inverse_binding(U, V)
    out = []
    for dep, lin in zip("uv", system.linear()):
        # D_t(new) minus the linear part, each jet u_J, v_J in it as D_J(new)
        d_j = {j: total_derivatives(new[j.dep], 0, j.xs, m, rules)
               for j in jets_in(lin)}
        raw = add(total_derivatives(new[dep], 1, (), m, rules),
                  mul(MINUS_ONE, substitute(lin, d_j)))
        raw = expand(evolution_reduce(raw, system))
        e = expand(substitute(raw, old_uv))
        leftover_jets = [j for j in jets_in(e) if j.order > 0]
        if leftover_jets:
            raise InapplicableTransform(
                f"transform leaves derivative terms {sorted(map(str, leftover_jets))}")
        out.append(e)
    return out[0], out[1]


def _point_form_check(f: Expr, label: str):
    bad = [s for s in free_symbols(f) if is_coordinate(s)]
    if bad:
        raise InapplicableTransform(
            f"{label} keeps explicit {sorted(set(map(str, bad)))};"
            " not a point nonlinearity")


def _decoded(transform) -> Tuple[PointMap, Expr]:
    """The point map and the scaling lam of a transform (lam is 1 but for
    ``LinearEquiv``); raises InapplicableTransform for an unknown transform
    or one with a literal-zero K1, lam, cu or cv."""
    if isinstance(transform, PointMap):
        pm = transform
    elif isinstance(transform, (LinearEquiv, VShift)):
        pm = transform.point_map()
    else:
        raise InapplicableTransform(f"unknown transform {transform!r}")
    lam = transform.lam if isinstance(transform, LinearEquiv) else ONE
    if any(is_zero(c) for c in (pm.cu, pm.cv, lam)):
        raise InapplicableTransform(
            "transform is not invertible: K1, lam, cu and cv must be nonzero")
    return pm, lam


def apply_equiv(system: RDSystem, transform) -> RDSystem:
    """Transformed system of the same family; raises InapplicableTransform
    when the preconditions or the point-form requirement are violated, and
    ``Undecided`` when a v-shift's admissibility system is undecided.  The
    scaling lam multiplies f1 and f2 by lam^2, and a drift's p by lam."""
    pm, lam = _decoded(transform)
    if isinstance(transform, VShift):
        if not (system.family == "triangular" and is_zero(system.a)):
            raise InapplicableTransform("v-shifts require the a = 0 family")
        if any(is_coordinate(s) for s in free_symbols(transform.phi)):
            ok, residuals = check_eqv3_admissible(system, transform.phi)
            if ok is None:
                raise Undecided("could not decide the admissibility system; "
                                "residuals: "
                                + "; ".join(str(r) for r in residuals))
            if not ok:
                raise InapplicableTransform(
                    "shift violates the admissibility system; residuals: "
                    + "; ".join(str(r) for r in residuals))
    f1n, f2n = (mul(lam, lam, f) for f in _transformed_f(system, pm))
    _point_form_check(f1n, "f1")
    _point_form_check(f2n, "f2")
    p = mul(lam, system.p) if system.family == "drift" else system.p
    return replace(system, f1=f1n, f2=f2n, p=p)


def preserves_class(system: RDSystem, transform) -> bool:
    try:
        apply_equiv(system, transform)
        return True
    except InapplicableTransform:
        return False


def check_eqv3_admissible(system: RDSystem, phihat: Expr):
    """Admissibility of v -> v + Phihat(u, t, x) for a = 0:

        f2_v Phihat_t  - Phihat_tt   - f1 Phihat_tu   = 0
        f2_v Phihat_xn - Phihat_txn  - f1 Phihat_uxn  = 0   (each n)

    plus the structural preconditions: f1 free of v and f2 at most linear
    in v.  Returns (admissible, residuals), admissible being None when no
    residual is decided nonzero but one is undecided; precondition
    violations raise.
    """
    if not (system.family == "triangular" and is_zero(system.a)):
        raise InapplicableTransform("admissibility applies to a = 0 only")
    rules = system.rules
    if V in free_symbols(system.f1):
        raise InapplicableTransform("f1 must not depend on v")
    f2v = differentiate(system.f2, V, rules)
    if V in free_symbols(f2v):
        raise InapplicableTransform("f2 must be at most linear in v")
    pt = differentiate(phihat, T, rules)
    ptt = differentiate(pt, T, rules)
    ptu = differentiate(pt, U, rules)
    residuals = [add(mul(f2v, pt), mul(MINUS_ONE, ptt),
                     mul(MINUS_ONE, system.f1, ptu))]
    for xi in coords(system.m):
        px = differentiate(phihat, xi, rules)
        residuals.append(add(mul(f2v, px),
                             mul(MINUS_ONE, differentiate(pt, xi, rules)),
                             mul(MINUS_ONE, system.f1,
                                 differentiate(px, U, rules))))
    ok = vanish(decide_equivalence(r, ZERO) for r in residuals)
    return ok, residuals


def pushforward(x: Generator, transform) -> Generator:
    """X in the new variables of a ``LinearEquiv``, a ``PointMap`` (every
    ``aet(k)``) or a ``VShift``: each new coefficient is pr X applied to
    one new coordinate (t' = lam^-2 t, x' = lam^-1 x, u' and v' from the
    point map; lam is 1 but for ``LinearEquiv``), written in the new ones
    through ``PointMap.inverse_binding`` and the scaling."""
    pm, lam = _decoded(transform)
    inv_lam, xs = powe(lam, MINUS_ONE), coords(x.m)
    old_uv = pm.inverse_binding(U, V)
    old_tx = {T: mul(lam, lam, T), **{c: mul(lam, c) for c in xs}}
    pr = x.prolonged()

    def applied(new_coordinate):
        return substitute(substitute(pr.apply_to(new_coordinate), old_uv),
                          old_tx)

    return generator(x.m, eta=applied(mul(inv_lam, inv_lam, T)),
                     xi=[applied(mul(inv_lam, c)) for c in xs],
                     phi_u=applied(pm.u_new()), phi_v=applied(pm.v_new()))
