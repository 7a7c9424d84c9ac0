"""Vector fields on jet space.

A ``Generator`` is the first-order operator

    X = eta*d_t + xi_i*d_{x_i} - pi1*d_u - pi2*d_v

(note the minus signs on the pi's: ``generator`` builds X from phi^a =
-pi^a, and only ``cli``, reading a file's pi's, builds one by its class).
``ProlongedGenerator`` is pr X: it keeps X's coefficients, not X, and
extends them to jet coordinates through the characteristic recursion

    phi^a_{J,i} = D_i phi^a_J - (D_i eta) u^a_{J,t} - sum_k (D_i xi^k) u^a_{J,k}

from phi^a at order zero, -pi^a.  Its ``apply_to`` is the one action of a
vector field: X on a function of (t, x, u, v) is the order-zero case, and
``commutator`` and ``transforms.pushforward`` are built on it.  Each
phi^a_J is one sum, built after the jet itself is checked against m and
``MAX_ORDER``.  The recursion takes no total derivative of a rational
phi^a_J, eta or xi_k; ``jets.total_derivative`` decides every other zero.
So a shift, whose coefficients are constants, prolongs without taking a
total derivative at all.

pr X depends only on X's coefficients and the kernel rules, so a
generator keeps one prolongation (``Generator.prolonged``, the one builder
of pr X for claim checks, commutators, pushforwards and classifying
residuals): the one for the last rule set it was prolonged under, rule
sets being compared by content.  Checking one generator against many
systems with the same rules derives each phi^a_J once.  Inside an
``expr.shared_derivations`` block, which ``verify.verify_row`` opens for
a corpus row, the prolongation is also kept in the block's table under
(coefficients, rules), so the equal generators that each instantiation
of the row builds afresh share one.

The named operators below are the dilation/Galilei/conformal family for the
triangular systems.  The boost and conformal weights carry the coefficients
that actually verify by direct prolongation (weight sign opposite to the
shift part, and 1/a^2 on the u->v mixing); realized structure constants and
the worked-example suite pin them down, see the package tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .equality import Undecided, decide_equivalence, vanish
from .expr import (EMPTY_RULES, Expr, Jet, MINUS_ONE, ONE, Rat, RuleSet, T,
                   ZERO, add, as_expr, differentiate, exp_, is_zero, jet,
                   jets_in, mul, powe, rat, shared)
from .jets import (MAX_ORDER, Direction, JetOrderError, coords,
                   stray_coordinates, total_derivative, x_squared)


@dataclass(frozen=True)
class Generator:
    eta: Expr
    xi: Tuple[Expr, ...]
    pi1: Expr
    pi2: Expr
    # the last prolongation, see ``prolonged``; not part of the value
    _pr: Optional["ProlongedGenerator"] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.xi)

    def prolonged(self, rules: RuleSet = EMPTY_RULES) -> "ProlongedGenerator":
        """pr X under ``rules``, kept on the generator: the same object is
        returned while the rule set is equal, and another replaces it when
        an unequal rule set comes.  Inside a ``shared_derivations`` block
        it is also kept in the block's table under X's coefficients and the
        rules, so equal generators share it."""
        pr = self._pr
        if pr is None or pr.rules != rules:
            pr = shared((self.coeffs(), rules), ProlongedGenerator, self,
                        rules)
            object.__setattr__(self, "_pr", pr)
        return pr

    def phi(self, dep: str) -> Expr:
        """Coefficient of d_{u^a} for the order-zero jet."""
        return mul(MINUS_ONE, self.pi1 if dep == "u" else self.pi2)

    def coeffs(self) -> Tuple[Expr, ...]:
        """(eta, xi_1, ..., xi_m, pi1, pi2)."""
        return (self.eta, *self.xi, self.pi1, self.pi2)

    def map(self, fn, *others: "Generator") -> "Generator":
        """The generator whose coefficients are fn of the matching
        coefficients of self and others, taken in ``coeffs`` order."""
        cs = [fn(*c) for c in zip(self.coeffs(),
                                  *(o.coeffs() for o in others))]
        return Generator(cs[0], tuple(cs[1:-2]), cs[-2], cs[-1])

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs())

    def __add__(self, other: "Generator") -> "Generator":
        if self.m != other.m:
            raise ValueError("generators over different dimensions")
        return self.map(add, other)

    def __sub__(self, other: "Generator") -> "Generator":
        return self + other.scale(rat(-1))

    def scale(self, c) -> "Generator":
        c = as_expr(c)
        return self.map(lambda e: mul(c, e))

    def __neg__(self) -> "Generator":
        return self.scale(rat(-1))


def zero_generator(m: int) -> Generator:
    return Generator(ZERO, (ZERO,) * m, ZERO, ZERO)


def generator(m: int, eta=ZERO, xi=None, phi_u=ZERO, phi_v=ZERO) -> Generator:
    """Build from d_u/d_v coefficients (phis), handling the sign convention."""
    xi = tuple(xi) if xi is not None else (ZERO,) * m
    if len(xi) != m:
        raise ValueError("xi length != m")
    return Generator(eta, xi, mul(MINUS_ONE, phi_u), mul(MINUS_ONE, phi_v))


class ProlongedGenerator:
    """pr X: m, (eta, xi_1..xi_m) and the phi-coefficient of every jet up to
    ``MAX_ORDER``, seeded with -pi1 and -pi2 at order zero; it keeps X's
    coefficients, not X.  ``apply_to`` is the one action of a vector field.

    A coefficient of X that holds a coordinate x_i with i outside 1..m
    raises ``JetOrderError`` when the prolongation is built.  A jet is
    checked before anything is built: an order beyond ``MAX_ORDER`` or a
    spatial index outside 1..m raises ``JetOrderError`` whatever the
    coefficients are.  Each phi^J is then one ``add`` over the terms of
    the recursion: D_i phi^J is taken unless phi^J is rational (0
    included), and D_i c for c among eta and xi_1..xi_m unless c is
    rational.  ``jets.total_derivative`` is the one judge of any other
    zero: for an e that holds neither x_i (or t) nor a jet it returns 0
    at once and builds nothing.  The shifts the classification states
    most often have rational coefficients only, so they prolong without
    a single total derivative.

    What depends on X alone is derived once per prolongation, not once per
    ``apply_to``: the nonzero horizontal pairs (t, eta) and (x_i, xi_i)
    when it is built, each direction's derivative pairs and each phi^J
    when first needed.  Every phi^J is kept, keyed by its hash-consed
    ``Jet`` node.  ``Generator.prolonged`` keeps one ProlongedGenerator on
    its generator, for the last rule set used, so the phi^J of one
    generator are shared by every system with equal rules, and inside a
    ``shared_derivations`` block by every equal generator."""

    def __init__(self, x: Generator, rules: RuleSet = EMPTY_RULES):
        names = ("eta", *(f"xi{i}" for i in range(1, x.m + 1)), "pi1",
                 "pi2")
        for name, c in zip(names, x.coeffs()):
            stray = stray_coordinates(c, x.m)
            if stray:
                raise JetOrderError(
                    f"{name} of X holds the coordinate {', '.join(stray)} "
                    f"outside dimension m={x.m}")
        self.m = x.m
        self.eta_xi = (x.eta, *x.xi)
        self.rules = rules
        self._horizontal = tuple(
            (a, c) for a, c in zip((T, *coords(x.m)), self.eta_xi)
            if not is_zero(c))
        self._phi: Dict[Jet, Expr] = {jet(dep): x.phi(dep)
                                      for dep in ("u", "v")}
        self._directions: Dict[Direction, list] = {}

    def _direction(self, direction: Direction) -> list:
        """The nonzero pairs (D_direction c, toward) for c = eta (toward t)
        and c = xi_k (toward x_k), built once per direction."""
        hit = self._directions.get(direction)
        if hit is None:
            m = self.m
            hit = self._directions[direction] = [
                (d, toward) for c, toward in zip(
                    self.eta_xi, ("t", *range(1, m + 1)))
                if type(c) is not Rat
                for d in (total_derivative(c, direction, m, self.rules),)
                if not is_zero(d)]
        return hit

    def phi(self, j: Jet) -> Expr:
        hit = self._phi.get(j)
        if hit is not None:
            return hit
        if j.order > MAX_ORDER:
            raise JetOrderError(f"jet {j} beyond jet order cap {MAX_ORDER}")
        if j.xs and not (j.xs[0] >= 1 and j.xs[-1] <= self.m):
            raise JetOrderError(
                f"jet {j} has a direction outside dimension m={self.m}")
        # peel the last direction (t's first, then xs); order 0 is seeded
        if j.xs:
            direction = j.xs[-1]
            parent = Jet(j.dep, j.nt, j.xs[:-1])
        else:
            direction = "t"
            parent = Jet(j.dep, j.nt - 1, ())
        prev = self.phi(parent)
        terms = [mul(MINUS_ONE, d, parent.bump(toward))
                 for d, toward in self._direction(direction)]
        if type(prev) is not Rat:
            terms.append(total_derivative(prev, direction, self.m, self.rules))
        out = self._phi[j] = add(*terms)
        return out

    def apply_to(self, e: Expr) -> Expr:
        """pr X (e) for e an expression in (t, x, jets).

        e is differentiated only by the atoms whose coefficient (eta, xi_i,
        or phi_J for a jet of e) is nonzero: a zero coefficient makes its
        term zero whatever the derivative, and for shifts and rotations
        most of them are zero."""
        parts = [mul(c, differentiate(e, a, self.rules))
                 for a, c in self._horizontal]
        for j in sorted(jets_in(e), key=Expr.key):
            phi = self.phi(j)
            if is_zero(phi):
                continue
            d = differentiate(e, j, self.rules)
            if not is_zero(d):
                parts.append(mul(phi, d))
        return add(*parts)


def commutator(x: Generator, y: Generator,
               rules: RuleSet = EMPTY_RULES) -> Generator:
    """[X, Y]; coefficients pr X(Y-coeff) - pr Y(X-coeff), so a jet in a
    coefficient brings its phi^J terms."""
    if x.m != y.m:
        raise ValueError("generators over different dimensions")
    prx, pry = x.prolonged(rules), y.prolonged(rules)
    return x.map(lambda cx, cy: add(prx.apply_to(cy),
                                    mul(MINUS_ONE, pry.apply_to(cx))), y)


# ---------------------------------------------------------------------------
# named operators


class CauchyRiemannError(ValueError):
    pass


def weight_bracket(a: Expr):
    """(phi_u, phi_v) of the Galilei weight (1/a)(u du + v dv) - (1/a^2) u dv,
    its one spelling."""
    u, v = jet("u"), jet("v")
    inv_a = powe(a, MINUS_ONE)
    inv_a2 = powe(a, rat(-2))
    return mul(inv_a, u), add(mul(inv_a, v), mul(MINUS_ONE, inv_a2, u))


def named_operator(name: str, m: int, *, a: Optional[Expr] = None,
                   gamma: Optional[Expr] = None, lam: Optional[Expr] = None,
                   p: Optional[Expr] = None, index: int = 1,
                   index2: int = 2) -> Generator:
    """The operators the classification states its results with.

    P0, P (shift along x_index), J (rotation in the index/index2 plane),
    D, Dtilde, K, Ktilde, G, Ghat (boost direction = index).
    """
    u, v = jet("u"), jet("v")
    xs = coords(m)
    if name == "P0":
        return generator(m, eta=ONE)
    if name == "P":
        xi = [ZERO] * m
        xi[index - 1] = ONE
        return generator(m, xi=xi)
    if name == "J":
        if m < 2:
            raise ValueError("rotations need m >= 2")
        xi = [ZERO] * m
        xi[index2 - 1] = xs[index - 1]
        xi[index - 1] = mul(MINUS_ONE, xs[index2 - 1])
        return generator(m, xi=xi)
    if name == "D":
        return generator(m, eta=T, xi=[mul(rat(1, 2), x) for x in xs])
    if name == "Dtilde":
        return generator(m, eta=mul(rat(3), T), xi=[mul(rat(2), x) for x in xs],
                         phi_v=mul(MINUS_ONE, v))
    if name == "K":
        if a is None or is_zero(a):
            raise ValueError("K requires a != 0")
        wu, wv = weight_bracket(a)
        half_x2 = mul(rat(-1, 2), x_squared(m))
        tm = mul(rat(-m), T)
        return generator(
            m, eta=mul(rat(2), T, T), xi=[mul(rat(2), T, x) for x in xs],
            phi_u=add(mul(half_x2, wu), mul(tm, u)),
            phi_v=add(mul(half_x2, wv), mul(tm, v)))
    if name == "Ktilde":
        if lam is None:
            raise ValueError("Ktilde requires lam")
        kgen = named_operator("K", m, a=a)
        pval = p if p is not None else ZERO
        c = powe(add(lam, MINUS_ONE), MINUS_ONE)
        extra = generator(
            m,
            phi_u=mul(c, T, pval, u),
            phi_v=add(mul(c, T, add(rat(2), mul(MINUS_ONE, lam)), v), mul(c, u)))
        return kgen + extra
    if name == "G":
        if a is None or is_zero(a):
            raise ValueError("G requires a != 0")
        wu, wv = weight_bracket(a)
        xi = [ZERO] * m
        xi[index - 1] = T
        half_x = mul(rat(-1, 2), xs[index - 1])
        return generator(m, xi=xi, phi_u=mul(half_x, wu), phi_v=mul(half_x, wv))
    if name == "Ghat":
        if a is None or is_zero(a):
            raise ValueError("Ghat requires a != 0")
        if gamma is None:
            raise ValueError("Ghat requires gamma")
        wu, wv = weight_bracket(a)
        pref = exp_(mul(gamma, T))
        xi = [ZERO] * m
        xi[index - 1] = pref
        w = mul(rat(-1, 2), gamma, xs[index - 1], pref)
        return generator(m, xi=xi, phi_u=mul(w, wu), phi_v=mul(w, wv))
    raise ValueError(f"unknown named operator {name!r}")


def h_field(m: int, H: Optional[Sequence[Expr]] = None,
            lam_vec: Optional[Sequence] = None) -> Generator:
    """The a=0 conformal-type operator

        X = 2m H^a d_{x_a} - (m-2) H^a_{x_a} u d_u - (m+2) H^a_{x_a} v d_v.

    For m > 2, H^a = 2 lam_b x_b x_a - x^2 lam_a from a direction vector;
    for m = 2 the supplied pair must satisfy the Cauchy-Riemann conditions;
    for m = 1 any H(x1) is accepted.
    """
    u, v = jet("u"), jet("v")
    xs = coords(m)
    if m > 2:
        if H is None:
            if lam_vec is None:
                raise ValueError("Hfield with m>2 needs lam_vec")
            lams = [as_expr(c) for c in lam_vec]
            x2 = x_squared(m)
            H = [add(mul(rat(2), add(*[mul(lams[b], xs[b]) for b in range(m)]),
                         xs[axis]),
                     mul(MINUS_ONE, x2, lams[axis]))
                 for axis in range(m)]
    else:
        if H is None:
            raise ValueError("Hfield with m<=2 needs explicit H")
    H = list(H)
    if len(H) != m:
        raise ValueError("H must have one component per spatial direction")
    if m == 2:
        cr1 = add(differentiate(H[0], xs[0]),
                  mul(MINUS_ONE, differentiate(H[1], xs[1])))
        cr2 = add(differentiate(H[0], xs[1]), differentiate(H[1], xs[0]))
        ok = vanish(decide_equivalence(cr, ZERO) for cr in (cr1, cr2))
        if ok is None:
            raise Undecided("could not decide the Cauchy-Riemann conditions")
        if not ok:
            raise CauchyRiemannError(
                "H pair violates the Cauchy-Riemann conditions")
    div = add(*[differentiate(H[i], xs[i]) for i in range(m)])
    return generator(
        m, xi=[mul(rat(2 * m), h) for h in H],
        phi_u=mul(rat(-(m - 2)), div, u),
        phi_v=mul(rat(-(m + 2)), div, v))
