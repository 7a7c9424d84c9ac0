"""3x3 matrix realizations of the linear symmetry parts.

The matrices have the fixed pattern

        ( 0    0    0  )
    g = ( nu1  mu1  0  )
        ( nu2  mu2  mu1),

are conjugated by the equivalence-group matrices

        ( 1    0    0 )
    U = ( b1   K1   0 ),     K1 != 0,
        ( b2   K2   K1)

(``transforms.LinearEquiv.matrix()``, the group's linear part acting on
(1, u, v)) and classified up to conjugation plus nonzero rescaling of g.
Under conjugation mu1 and mu2 are invariant and the first column transforms
as

    nu1' = K1*nu1 - mu1*b1
    nu2' = K2*nu1 + K1*nu2 - mu2*b1 - mu1*b2,

which drives the canonicalization directly.  When both mu's are nonzero
only the ratio mu2/mu1 survives scaling, so that orbit class keeps it as a
continuous invariant on the canonical representative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .equality import (DIFFERENT, EQUAL, UNDECIDED, Undecided,
                       decide_equivalence, vanish)
from .expr import (Expr, MINUS_ONE, ONE, Rat, T, ZERO, add, as_expr,
                   differentiate, exp_, expand, free_symbols, is_zero, jet,
                   ker, mul, powe, rat, substitute, sym)
from .fields import Generator, commutator, generator, named_operator
from .jets import coords
from .transforms import LinearEquiv

# a string, so that typing's subscription cache holds no reference to Expr
# (which would keep this copy of the package alive after it is dropped)
Matrix = "Tuple[Tuple[Expr, ...], ...]"


@dataclass(frozen=True)
class NMatrix:
    nu1: Expr
    nu2: Expr
    mu1: Expr
    mu2: Expr

    def matrix(self) -> Matrix:
        return ((ZERO, ZERO, ZERO),
                (self.nu1, self.mu1, ZERO),
                (self.nu2, self.mu2, self.mu1))

    def scale(self, c) -> "NMatrix":
        c = as_expr(c)
        return NMatrix(mul(c, self.nu1), mul(c, self.nu2),
                       mul(c, self.mu1), mul(c, self.mu2))


def nmatrix(nu1=0, nu2=0, mu1=0, mu2=0) -> NMatrix:
    return NMatrix(as_expr(nu1), as_expr(nu2), as_expr(mu1), as_expr(mu2))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(add(*[mul(a[i][k], b[k][j]) for k in range(3)])
                       for j in range(3)) for i in range(3))


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return tuple(tuple(add(ab[i][j], mul(MINUS_ONE, ba[i][j]))
                       for j in range(3)) for i in range(3))


def as_nmatrix(m: Matrix) -> NMatrix:
    """Check the (8.5) pattern and read off the four entries.  An entry
    decided different breaks it (``ValueError``); else one that is
    undecided raises ``Undecided``."""
    checks = [(f"at {(i, j)}", m[i][j], ZERO)
              for i, j in [(0, 0), (0, 1), (0, 2), (1, 2)]]
    checks.append(("on the diagonal", m[1][1], m[2][2]))
    undecided = None
    for where, a, b in checks:
        verdict = decide_equivalence(a, b).verdict
        if verdict == DIFFERENT:
            raise ValueError(f"matrix breaks the N pattern {where}")
        if verdict == UNDECIDED and undecided is None:
            undecided = where
    if undecided is not None:
        raise Undecided(f"could not decide the N pattern {undecided}")
    return NMatrix(m[1][0], m[2][0], m[1][1], m[2][1])


def conjugate(g: NMatrix, u: LinearEquiv) -> NMatrix:
    """g -> U g U^{-1}; the result keeps the pattern.  lam plays no part
    in U, so only U is inverted."""
    if is_zero(u.K1):
        raise ValueError("conjugation requires K1 != 0")
    return as_nmatrix(mat_mul(mat_mul(u.matrix(), g.matrix()),
                              replace(u, lam=ONE).inverse().matrix()))


# canonical representatives ------------------------------------------------


def g1() -> NMatrix:
    return nmatrix(mu1=1)


def g2(lam) -> NMatrix:
    return nmatrix(nu1=lam, nu2=1)


def g2_tilde() -> NMatrix:
    return nmatrix(nu2=1)


def g3() -> NMatrix:
    return nmatrix(nu1=1)


def g4(ratio=1) -> NMatrix:
    return nmatrix(mu1=1, mu2=ratio)


def g5() -> NMatrix:
    return nmatrix(mu2=1)


def g6() -> NMatrix:
    return nmatrix(nu1=1, mu2=1)


class CaseSplitNeeded(Exception):
    """Raised when a symbolic condition cannot be decided: whether an
    entry vanishes, or the sign of a discriminant."""

    def __init__(self, conditions):
        super().__init__("needs a case split on: "
                         + ", ".join(str(c) for c in conditions))
        self.conditions = tuple(conditions)


@dataclass
class CanonicalForm:
    label: str                    # g1, g3, g4, g5, g6, g2~, zero
    canonical: NMatrix
    witness: LinearEquiv          # lam = 1
    scale: Expr                   # scale * U g U^{-1} == canonical, exactly
    invariant: Optional[Expr] = None   # mu2/mu1 for the g4 class


def _vanishes(e: Expr) -> bool:
    d = decide_equivalence(e, ZERO)
    if d.verdict == EQUAL:
        return True
    if d.verdict == "different" and not free_symbols(e):
        return False
    # undecided, or nonzero only generically: a free parameter could vanish
    raise CaseSplitNeeded([e])


def canonical_form(g: NMatrix) -> CanonicalForm:
    """Orbit representative, conjugating witness and rescaling factor.

    Branches on the computable invariants mu1 != 0, mu2 != 0, g^2 != 0
    (equivalently nu1 != 0 when mu1 = 0 != mu2) and the first column.
    """
    nu1, nu2, mu1, mu2 = g.nu1, g.nu2, g.mu1, g.mu2
    if not _vanishes(mu1):
        inv = powe(mu1, MINUS_ONE)
        b1 = mul(nu1, inv)
        b2 = mul(add(nu2, mul(MINUS_ONE, mu2, b1)), inv)
        w = LinearEquiv(b1=b1, b2=b2)
        if _vanishes(mu2):
            return CanonicalForm("g1", g1(), w, inv)
        ratio = mul(mu2, inv)
        return CanonicalForm("g4", g4(ratio), w, inv, invariant=ratio)
    if not _vanishes(mu2):
        scale = powe(mu2, MINUS_ONE)
        n1 = mul(nu1, scale)
        n2 = mul(nu2, scale)
        if not _vanishes(n1):
            k1 = powe(n1, MINUS_ONE)
            b1 = mul(k1, n2)
            w = LinearEquiv(K1=k1, b1=b1)
            return CanonicalForm("g6", g6(), w, scale)
        w = LinearEquiv(b1=n2)
        return CanonicalForm("g5", g5(), w, scale)
    if not _vanishes(nu1):
        k1 = powe(nu1, MINUS_ONE)
        w = LinearEquiv(K1=k1, K2=mul(MINUS_ONE, nu2, powe(nu1, rat(-2))))
        return CanonicalForm("g3", g3(), w, ONE)
    if not _vanishes(nu2):
        w = LinearEquiv(K1=powe(nu2, MINUS_ONE))
        return CanonicalForm("g2~", g2_tilde(), w, ONE)
    return CanonicalForm("zero", nmatrix(), LinearEquiv(), ONE)


# realization --------------------------------------------------------------


def realize(g: NMatrix, m: int = 1) -> Generator:
    """ghat = g22 u du + g33 v dv + g32 u dv + g21 du + g31 dv.

    As a map of matrices to vector fields this is an anti-homomorphism:
    [ghat, hhat] = -(widehat [g, h]).  The realized symmetry bases (and the
    table rows, which are written mu*D - u du - v dv etc.) enter with the
    opposite sign, where the bracket signs line up with the matrix ones;
    see :func:`realized_basis`.
    """
    u, v = jet("u"), jet("v")
    return generator(
        m,
        phi_u=add(mul(g.mu1, u), g.nu1),
        phi_v=add(mul(g.mu1, v), mul(g.mu2, u), g.nu2))


def realized_basis(g: NMatrix, m: int = 1) -> Generator:
    """-ghat: the sign under which field brackets match matrix brackets."""
    return realize(g, m).scale(rat(-1))


# algebra catalogs ---------------------------------------------------------


@dataclass
class AlgebraPresentation:
    name: str
    basis: Tuple[NMatrix, ...]
    # nonzero commutators: (i, j) -> {k: coefficient}, 1-based indices
    brackets: dict
    note: str = ""


_G = {"g1": g1, "g3": g3, "g4": g4, "g5": g5, "g6": g6, "g2~": g2_tilde,
      "g2(lam)": lambda: g2(sym("lam"))}


def _catalog_raw():
    return {
        # two-dimensional, abelian
        "A2,1": (("g3", "g2~"), {}),
        "A2,2": (("g1", "g5"), {}),
        "A2,3": (("g5", "g2~"), {}),
        "A2,4": (("g6", "g2~"), {}),
        # two-dimensional, [e1, e2] = e2
        "A2,5": (("g1", "g2(lam)"), {(1, 2): {2: Fraction(1)}}),
        "A2,13": (("g1", "g3"), {(1, 2): {2: Fraction(1)}}),
        # three- and four-dimensional (Table 1); the A3,4 basis order is the
        # machine-verified assignment of the listed matrix set to the stated
        # constants (the printed order scrambles e1..e3)
        "A3,1": (("g1", "g3", "g2~"),
                 {(1, 2): {2: Fraction(1)}, (1, 3): {3: Fraction(1)}}),
        "A3,2": (("g5", "g1", "g2~"), {(2, 3): {3: Fraction(1)}}),
        "A3,3": (("g2~", "g5", "g6"), {(2, 3): {1: Fraction(1)}}),
        "A3,4": (("g4", "g2~", "g3"),
                 {(1, 2): {2: Fraction(1)},
                  (1, 3): {2: Fraction(1), 3: Fraction(1)}}),
        "A4": (("g1", "g3", "g2~", "g5"),
               {(1, 2): {2: Fraction(1)}, (1, 3): {3: Fraction(1)},
                (4, 2): {3: Fraction(1)}}),
    }


def algebra_catalog(name: str) -> AlgebraPresentation:
    raw = _catalog_raw()
    if name not in raw:
        raise KeyError(f"unknown algebra {name!r}; have {sorted(raw)}")
    names, brackets = raw[name]
    basis = [_G[n]() for n in names]
    note = ""
    if name == "A3,4":
        note = ("basis order fixed by verifying the stated constants "
                "against the matrix brackets")
    return AlgebraPresentation(name, tuple(basis), dict(brackets), note)


def closure_check(basis: Sequence, brackets: dict) -> Optional[bool]:
    """Every pairwise bracket of an NMatrix basis (matrix commutator) or a
    Generator basis (field commutator) equals its stated rational
    combination, and unlisted pairs commute: True when each entry is
    decided equal, False as soon as one is decided different, None
    (undecided) otherwise."""
    if isinstance(basis[0], NMatrix):
        def entries(mat):
            return [e for row in mat for e in row]

        coeffs = [entries(g.matrix()) for g in basis]

        def bracket(x, y):
            return entries(mat_commutator(x.matrix(), y.matrix()))
    else:
        coeffs = [g.coeffs() for g in basis]

        def bracket(x, y):
            return commutator(x, y).coeffs()

    def decisions():
        n = len(basis)
        for i in range(n):
            for j in range(i + 1, n):
                want = brackets.get((i + 1, j + 1))
                if want is None:
                    rev = brackets.get((j + 1, i + 1))
                    want = {k: -c for k, c in rev.items()} if rev else {}
                expect = [add(*[mul(rat(c), coeffs[k - 1][r])
                                 for k, c in want.items()])
                          for r in range(len(coeffs[0]))]
                for got, exp in zip(bracket(basis[i], basis[j]), expect):
                    yield decide_equivalence(got, exp)

    return vanish(decisions())


# realized one- and two-dimensional families --------------------------------


def realized_symmetry(g: NMatrix, m: int, kind: str = "dilation",
                      mu=None, lam=None, omega=None,
                      drift_version: bool = False) -> Generator:
    """The symmetry built on a matrix g:

    * ``dilation``:    mu*D + ghat           (g in {g1, g4, g5, g6})
    * ``exponential``: e^{lam t} ghat
    * ``exp_wave``:    e^{lam t + omega.x} ghat   (g in {g1, g2})

    ``drift_version`` swaps D for the drift dilation Dtilde.
    """
    t = sym("t")
    gh = realize(g, m)
    if kind == "dilation":
        dname = "Dtilde" if drift_version else "D"
        d = named_operator(dname, m)
        muv = as_expr(mu if mu is not None else 0)
        return d.scale(muv) + gh
    if kind == "exponential":
        pref = exp_(mul(as_expr(lam), t))
        return gh.scale(pref)
    if kind == "exp_wave":
        xs = coords(m)
        om = [as_expr(c) for c in (omega or [0] * m)]
        pref = exp_(add(mul(as_expr(lam), t),
                        *[mul(om[i], xs[i]) for i in range(m)]))
        return gh.scale(pref)
    raise ValueError(f"unknown realization kind {kind!r}")


def realized_two_dim(name: str, m: int = 1, mu=0, nu=0,
                     fundamental: Optional["FundamentalPair"] = None):
    """The two-dimensional main-symmetry realizations built on the matrix
    algebras: basis generators plus their expected nonzero brackets
    ((i, j) -> {k: coeff}, over the returned basis)."""
    mu, nu = as_expr(mu), as_expr(nu)
    t = sym("t")
    ap = algebra_catalog(name)
    e = [realized_basis(g, m) for g in ap.basis]
    d = named_operator("D", m)
    if name == "A2,1":
        basis = [d.scale(mu) + e[0] + e[1].scale(mul(nu, t)), e[1]]
        return basis, {}
    if name == "A2,2":
        basis = [d.scale(mu) + e[1] + e[0].scale(mul(nu, t)), e[0]]
        return basis, {}
    if name == "A2,3":
        basis = [d.scale(mu) - e[0], d.scale(nu) - e[1]]
        return basis, {}
    if name == "A2,4":
        if fundamental is None:
            raise ValueError("A2,4 realization needs a fundamental pair")
        fp = fundamental
        basis = [e[0].scale(fp.F1) + e[1].scale(fp.G1),
                 e[0].scale(fp.F2) + e[1].scale(fp.G2)]
        return basis, {}
    if name == "A2,5":
        basis = [d.scale(mu) - e[0], e[1]]
        return basis, {(1, 2): {2: Fraction(-1)}}
    if name == "A2,13":
        basis = [d.scale(mu) + e[0] + e[1].scale(mul(nu, t)), e[1]]
        return basis, {(1, 2): {2: Fraction(1)}}
    raise KeyError(f"no two-dimensional realization for {name!r}")


# drift-side one-dimensional operators and two-dimensional algebras ----------


def drift_one_dim(name: str, m: int = 1, mu=0, nu=0) -> Generator:
    """The one-dimensional main-symmetry operators of the first-derivative
    systems (the dilation swapped for its drift version; the exponential
    shift operators are taken at zero rates, where the pairs close)."""
    mu, nu = as_expr(mu), as_expr(nu)
    u, v = jet("u"), jet("v")
    dt = named_operator("Dtilde", m)
    if name == "X1^(1)":
        return dt.scale(mu) + generator(m, phi_u=mul(rat(-1), u),
                                        phi_v=mul(rat(-1), v))
    if name == "X1^(2)":
        return dt + generator(m, phi_u=mul(rat(-1), nu))
    if name == "X1^(3)":
        return dt + generator(m, phi_u=u, phi_v=add(v, nu))
    if name == "X2^(nu)":
        pref = exp_(mul(nu, T))
        return generator(m, phi_u=mul(pref, u), phi_v=mul(pref, v))
    if name == "X3^(1)":
        return generator(m, phi_u=ONE)
    if name == "X3^(2)":
        return generator(m, phi_v=ONE)
    if name == "X3^(3)":
        return generator(m, phi_u=ONE, phi_v=ONE)
    raise KeyError(f"unknown drift operator {name!r}")


def drift_algebra(name: str, m: int = 1, mu=0, nu=0):
    """Two-dimensional drift algebras: basis plus expected nonzero brackets.

    A~2 as displayed does not close (its commutator produces a bare dv
    outside the span); it is returned with the extension element that
    closes it recorded in the bracket table against index 3.
    """
    mu, nu = as_expr(mu), as_expr(nu)
    u, v = jet("u"), jet("v")
    dt = named_operator("Dtilde", m)
    if name == "A~1":
        return [dt, drift_one_dim("X2^(nu)", m, nu=rat(0))], {}
    if name == "A~2":
        basis = [drift_one_dim("X1^(2)", m, nu=nu),
                 drift_one_dim("X3^(3)", m),
                 drift_one_dim("X3^(2)", m)]
        return basis, {(1, 2): {3: Fraction(1)}, (1, 3): {3: Fraction(1)}}
    if name == "A~3":
        return ([drift_one_dim("X1^(3)", m, nu=nu),
                 drift_one_dim("X3^(1)", m)],
                {(1, 2): {2: Fraction(-1)}})
    if name == "A~4":
        return ([drift_one_dim("X1^(1)", m, mu=mu),
                 drift_one_dim("X3^(1)", m)],
                {(1, 2): {2: Fraction(1)}})
    if name == "A~5":
        return ([drift_one_dim("X1^(1)", m, mu=rat(1)),
                 drift_one_dim("X3^(2)", m)],
                {(1, 2): {2: Fraction(2)}})
    if name == "A~6":
        x1 = dt + generator(m, phi_u=mul(rat(4), u),
                            phi_v=add(mul(rat(4), v), T))
        return [x1, drift_one_dim("X3^(2)", m)], {(1, 2): {2: Fraction(-3)}}
    if name == "A~7":
        x1 = dt + generator(m, phi_u=add(mul(rat(3), u), T),
                            phi_v=mul(rat(3), v))
        return [x1, drift_one_dim("X3^(1)", m)], {(1, 2): {2: Fraction(-3)}}
    raise KeyError(f"unknown drift algebra {name!r}")


# fundamental pairs for F_t = lam F + alp G, G_t = sig F + gam G -------------


@dataclass
class FundamentalPair:
    F1: Expr
    G1: Expr
    F2: Expr
    G2: Expr

    def pairs(self):
        return ((self.F1, self.G1), (self.F2, self.G2))


def fundamental_pair(lam, alp, sig, gam) -> FundamentalPair:
    """The columns of exp(At), A = ((lam, alp), (sig, gam)): two
    solutions with W(0) = det exp(0) = 1.

    With p = (lam + gam)/2, d = (lam - gam)/2 and q^2 = d^2 + alp*sig,
    (A - pI)^2 = q^2 I, so exp(At) = e^{pt} (c I + s (A - pI)) where (c, s)
    is (1, t), (cosh qt, sinh(qt)/q) or (cos qt, sin(qt)/q) as the
    discriminant 4q^2 is 0, > 0 or < 0, with q = |q^2|^(1/2) in the last
    two.  Only that sign branches; a symbolic one raises
    ``CaseSplitNeeded``.  Each entry is returned expanded."""
    lam, alp, sig, gam = map(as_expr, (lam, alp, sig, gam))
    half = rat(1, 2)
    p = mul(half, add(lam, gam))
    d = mul(half, add(lam, mul(MINUS_ONE, gam)))
    q2 = add(mul(d, d), mul(alp, sig))
    dsign = _disc_sign(mul(rat(4), q2))
    if dsign == 0:
        c, s = ONE, T
    else:
        q2 = q2 if dsign > 0 else mul(MINUS_ONE, q2)     # now |q^2|
        q = powe(q2, half)
        qt = mul(q, T)
        inv_q = powe(q, MINUS_ONE)
        if dsign > 0:
            e_plus, e_minus = exp_(qt), exp_(mul(MINUS_ONE, qt))
            c = mul(half, add(e_plus, e_minus))
            s = mul(half, inv_q, add(e_plus, mul(MINUS_ONE, e_minus)))
        else:
            c, s = ker("cos", qt), mul(inv_q, ker("sin", qt))
    ept = exp_(mul(p, T))
    sd = mul(s, d)
    return FundamentalPair(expand(mul(ept, add(c, sd))),
                           expand(mul(ept, s, sig)),
                           expand(mul(ept, s, alp)),
                           expand(mul(ept, add(c, mul(MINUS_ONE, sd)))))


def _disc_sign(disc: Expr) -> int:
    if type(disc) is Rat:
        return (disc.value > 0) - (disc.value < 0)
    if decide_equivalence(disc, ZERO).verdict == EQUAL:
        return 0
    raise CaseSplitNeeded([disc])


def pair_residuals(fp: FundamentalPair, lam, alp, sig, gam):
    """Back-substitution residuals of both returned solutions."""
    lam, alp, sig, gam = map(as_expr, (lam, alp, sig, gam))
    out = []
    for F, G in fp.pairs():
        out.append(add(differentiate(F, T),
                       mul(MINUS_ONE, add(mul(lam, F), mul(alp, G)))))
        out.append(add(differentiate(G, T),
                       mul(MINUS_ONE, add(mul(sig, F), mul(gam, G)))))
    return out


def wronskian_at_zero(fp: FundamentalPair) -> Expr:
    """F1 G2 - F2 G1 evaluated at t = 0 (symbolically)."""
    w = add(mul(fp.F1, fp.G2), mul(MINUS_ONE, mul(fp.F2, fp.G1)))
    return substitute(w, {T: ZERO})
