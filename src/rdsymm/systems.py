"""Reaction-diffusion system families and symmetry decisions.

Families:

* triangular  u_t - a*Lap(u) = f1,  v_t - Lap(u) - a*Lap(v) = f2   (a may be 0)
* drift       u_t - p*v_{x_m} = f1,  v_t - Lap(u) = f2             (p != 0)

f1 and f2 hold no t-jet: each system is solved for u_t and v_t, and one
whose right-hand side holds a t-jet is refused when it is built, as is
one whose f1, f2, a or p holds a coordinate x_i with i outside 1..m, or
one of another family.

``symmetry_residual`` applies the second prolongation of a generator to both
equations and eliminates every t-jet through the system (evolution
substitution), leaving polynomials in the spatial jets; a generator is a
symmetry iff both reduce to zero.

The right-hand sides depend on the system alone, so a system keeps them,
as a generator keeps its prolongation: ``RDSystem.rhs`` builds the pair
once and every later check of the same system (against P0, P_a, J_ab, ...)
reuses it.  ``dataclasses.replace`` builds a new system, which builds its
own.  A t-jet's replacement depends only on its right-hand side, m and the
rules, so inside an ``expr.shared_derivations`` block (one corpus row) it is
built once for all the row's systems with an equal right-hand side, and
outside one it is built on each call.

The classifying-equation residuals are transcribed from the classification's
closed displays, with two corrections that the cross-validation suite pins
down against direct prolongation: the second equation carries the
``+ C2*f1`` coupling term, and the diffusion terms on the shifts read
``- a*Lap(B2) - Lap(B1)``.  Each applies its vertical field through
``Generator.prolonged``, as a claim check does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .equality import DIFFERENT, EqDecision, decide_equivalence, vanish
from .expr import (EMPTY_RULES, Expr, ExprError, Jet, KernelRule,
                   MINUS_ONE, ONE, RuleSet, T, U, V, ZERO, add, as_expr,
                   differentiate, expand, is_zero, jet, jets_in, ker, mul,
                   powe, rat, shared, substitute, free_symbols, Rat)
from .fields import Generator, generator, weight_bracket
from .jets import (coords, is_coordinate, laplacian, stray_coordinates,
                   total_derivatives, x_squared)


@dataclass(frozen=True)
class RDSystem:
    m: int
    family: str              # "triangular" | "drift"
    f1: Expr
    f2: Expr
    a: Expr = ZERO           # triangular diffusion constant
    p: Expr = ONE            # drift magnitude (normalized to the last axis)
    rules: RuleSet = field(default_factory=lambda: EMPTY_RULES)
    # the right-hand sides, see ``rhs``; not part of the value
    _rhs: Optional[Tuple[Expr, Expr]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("triangular", "drift"):
            raise ValueError(f"unknown family {self.family!r}")
        # with p = 0 the drift system is the triangular one with a = 0
        if self.family == "drift" and is_zero(self.p):
            raise ValueError("a drift system needs p != 0; with p = 0 it is "
                             "the triangular system with a = 0")
        # evolution substitution reads each equation as solved for u_t or
        # v_t: a t-jet on a right-hand side would be substituted into itself
        for name, f in (("f1", self.f1), ("f2", self.f2)):
            tjets = sorted(str(j) for j in jets_in(f) if j.nt)
            if tjets:
                raise ValueError(f"{name} holds the t-derivative "
                                 f"{', '.join(tjets)}: the system must be "
                                 "solved for u_t and v_t")
        # a coordinate beyond m would be read as a constant: x2 at m = 1 is
        # refused as u_x2 is
        for name, f in (("f1", self.f1), ("f2", self.f2), ("a", self.a),
                        ("p", self.p)):
            stray = stray_coordinates(f, self.m)
            if stray:
                raise ValueError(f"{name} holds the coordinate "
                                 f"{', '.join(stray)} outside dimension "
                                 f"m={self.m}")

    def linear(self) -> Tuple[Expr, Expr]:
        """The diffusion or drift part of each right-hand side."""
        lap_u, lap_v = (add(*[jet(d, 0, (i, i)) for i in range(1, self.m + 1)])
                        for d in "uv")
        if self.family == "triangular":
            return mul(self.a, lap_u), add(lap_u, mul(self.a, lap_v))
        return mul(self.p, jet("v", 0, (self.m,))), lap_u

    def rhs(self) -> Tuple[Expr, Expr]:
        """(linear part + f1, linear part + f2), built on the first call
        and kept on the system."""
        rhs = self._rhs
        if rhs is None:
            lin_u, lin_v = self.linear()
            rhs = add(lin_u, self.f1), add(lin_v, self.f2)
            object.__setattr__(self, "_rhs", rhs)
        return rhs


def triangular(m: int, a, f1: Expr, f2: Expr,
               rules: RuleSet = EMPTY_RULES) -> RDSystem:
    return RDSystem(m, "triangular", f1, f2, a=as_expr(a), rules=rules)


def drift(m: int, p, f1: Expr, f2: Expr,
          rules: RuleSet = EMPTY_RULES) -> RDSystem:
    return RDSystem(m, "drift", f1, f2, p=as_expr(p), rules=rules)


# ---------------------------------------------------------------------------
# drift normalization


@dataclass
class DriftNormalization:
    rotation: Tuple[Tuple[Expr, ...], ...]   # orthogonal, maps old x to new x
    p_norm: Expr
    degenerate: bool                          # True when p = 0


def drift_normalize(p_vec: Sequence) -> DriftNormalization:
    """Orthogonal change of the x-variables sending p to (0, ..., 0, |p|)."""
    p = [as_expr(c) for c in p_vec]
    m = len(p)
    norm2 = add(*[mul(c, c) for c in p])
    ident = tuple(tuple(ONE if i == j else ZERO for j in range(m))
                  for i in range(m))
    if is_zero(norm2):
        return DriftNormalization(ident, ZERO, True)
    norm = powe(norm2, rat(1, 2))
    # Householder reflection with w = p - |p| e_m  (identity if w = 0)
    w = list(p)
    w[m - 1] = add(w[m - 1], mul(MINUS_ONE, norm))
    ww = add(*[mul(c, c) for c in w])
    if is_zero(ww):
        rot = ident
    else:
        inv = powe(ww, MINUS_ONE)
        rot = tuple(tuple(add(ident[i][j], mul(rat(-2), w[i], w[j], inv))
                          for j in range(m)) for i in range(m))
    return DriftNormalization(rot, norm, False)


# ---------------------------------------------------------------------------
# symmetry residuals


def tjet_replacements(system: RDSystem, tjets: Iterable[Jet]
                      ) -> Dict[Jet, Expr]:
    """The closed t-jet schedule: ``tjets`` and each t-jet a replacement
    mentions, written through the system on the solution manifold (the
    right-hand side of its equation, D_x for each spatial index, then D_t
    nt - 1 times), lowest order first by (nt, len(xs), dep, xs): f1 and f2
    hold no t-jet, so a replacement mentions only t-jets before it.  Inside
    a ``shared_derivations`` block each is kept in the block's table under
    its right-hand side, jet, m and rules, so systems with equal right-hand
    sides share it."""
    rhs = system.rhs()
    m, rules = system.m, system.rules
    out, todo = {}, set(tjets)
    while todo:
        j = todo.pop()
        side = rhs[0] if j.dep == "u" else rhs[1]
        r = out[j] = shared((side, j, m, rules), total_derivatives, side,
                            j.nt - 1, j.xs, m, rules)
        if j.nt >= 2:   # with nt = 1 it is D_xs of a right-hand side
            todo |= {k for k in jets_in(r) if k.nt} - out.keys()
    return {j: out[j] for j in
            sorted(out, key=lambda j: (j.nt, len(j.xs), j.dep, j.xs))}


def prolonged_equations(system: RDSystem, x: Generator) -> Tuple[Expr, Expr]:
    """pr X applied to (u_t - rhs_u, v_t - rhs_v), not yet reduced on the
    solution manifold."""
    if x.m != system.m:
        raise ValueError("generator dimension != system dimension")
    rhs_u, rhs_v = system.rhs()
    pr = x.prolonged(system.rules)
    return (pr.apply_to(add(jet("u", 1), mul(MINUS_ONE, rhs_u))),
            pr.apply_to(add(jet("v", 1), mul(MINUS_ONE, rhs_v))))


def evolution_reduce(e: Expr, system: RDSystem) -> Expr:
    """Eliminate every jet carrying t-derivatives using the system, one
    pass per t-order: each pass lowers the highest t-order in e (see
    ``tjet_replacements``), and ``MAX_ORDER`` bounds the orders that total
    derivatives reach."""
    while True:
        tjets = [j for j in jets_in(e) if j.nt >= 1]
        if not tjets:
            return e
        e = substitute(e, tjet_replacements(system, tjets))


def symmetry_residual(system: RDSystem, x: Generator) -> Tuple[Expr, Expr]:
    """pr X applied to both equations, reduced on the solution manifold."""
    raw1, raw2 = prolonged_equations(system, x)
    return evolution_reduce(raw1, system), evolution_reduce(raw2, system)


@dataclass
class SymmetryReport:
    residuals: Tuple[Expr, Expr]
    decisions: Tuple[EqDecision, EqDecision]
    verdict: str                  # holds / fails / undecided

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def decision_path(self) -> str:
        return "+".join(d.path for d in self.decisions)

    @property
    def failing(self) -> Optional[Tuple[Expr, EqDecision]]:
        """(residual, decision) of the first side decided different."""
        for r, d in zip(self.residuals, self.decisions):
            if d.verdict == DIFFERENT:
                return r, d
        return None

    @property
    def counterexample(self) -> Optional[dict]:
        failing = self.failing
        return failing[1].counterexample if failing else None


def is_symmetry(system: RDSystem, x: Generator, seed: int = 0) -> SymmetryReport:
    r1, r2 = symmetry_residual(system, x)
    ds = (decide_equivalence(r1, ZERO, seed=seed),
          decide_equivalence(r2, ZERO, seed=seed + 1))
    verdict = {True: "holds", False: "fails", None: "undecided"}[vanish(ds)]
    return SymmetryReport((r1, r2), ds, verdict)


# ---------------------------------------------------------------------------
# classifying-equation residuals (triangular, a != 0): main symmetries


def _classifying(system: RDSystem, lhs: Tuple[Expr, Expr], phi_u: Expr,
                 phi_v: Expr) -> Tuple[Expr, Expr]:
    """lhs^a - X f^a for both equations, X = phi_u d_u + phi_v d_v."""
    x = generator(system.m, phi_u=phi_u, phi_v=phi_v).prolonged(system.rules)
    return tuple(add(lhs_a, mul(MINUS_ONE, x.apply_to(f)))
                 for lhs_a, f in zip(lhs, (system.f1, system.f2)))

@dataclass
class FullSymmetryData:
    """Coefficient data of the general symmetry for a != 0:
    lam (conformal), mu (dilation), sigma (boosts), omega (exp boosts) with
    rate gamma, plus the main-symmetry functions C1(t), C2(t), B1, B2."""
    lam: Expr = ZERO
    mu: Expr = ZERO
    sigma: Tuple[Expr, ...] = ()
    omega: Tuple[Expr, ...] = ()
    gamma: Expr = ZERO
    C1: Expr = ZERO
    C2: Expr = ZERO
    B1: Expr = ZERO
    B2: Expr = ZERO


def classifying_residual_full(system: RDSystem,
                              data: FullSymmetryData) -> Tuple[Expr, Expr]:
    """Residuals of the full classifying equations for a != 0."""
    if system.family != "triangular" or is_zero(system.a):
        raise ValueError("full classifying equations require triangular a != 0")
    rules = system.rules
    a = system.a
    wu, wv = weight_bracket(a)
    f1, f2 = system.f1, system.f2
    # the weight's linear part on (f1, f2)
    lin_u, lin_v = (substitute(w, {U: f1, V: f2}) for w in (wu, wv))
    m = system.m
    xs = coords(m)
    sigma = tuple(data.sigma) or (ZERO,) * m
    omega = tuple(data.omega) or (ZERO,) * m
    x2 = x_squared(m)
    S_omega = mul(data.gamma, ker("exp", mul(data.gamma, T)),
                  add(*[mul(omega[i], xs[i]) for i in range(m)]))
    S = add(mul(rat(1, 2), data.lam, x2),
            add(*[mul(sigma[i], xs[i]) for i in range(m)]),
            S_omega)
    C1t = differentiate(data.C1, T, rules)
    C2t = differentiate(data.C2, T, rules)
    lam_t = mul(data.lam, rat(m + 4), T)
    # weight on the Euler operator u du + v dv, and S times the Galilei
    # weight
    euler_w = add(data.C1, mul(data.lam, rat(m), T))
    phi_u = add(data.B1, mul(euler_w, U), mul(S, wu))
    phi_v = add(data.B2, mul(euler_w, V), mul(data.C2, U), mul(S, wv))

    # the omega sector also carries the time derivative of its weight,
    # gamma*S_omega times the Galilei weight, on the left-hand sides
    S_omega_t = mul(data.gamma, S_omega)
    lap_B1 = laplacian(data.B1, m, rules)
    lhs1 = add(mul(add(lam_t, data.mu, data.C1), f1),
               mul(S, lin_u), mul(S_omega_t, wu),
               mul(C1t, U), differentiate(data.B1, T, rules),
               mul(MINUS_ONE, a, lap_B1))
    lhs2 = add(mul(add(lam_t, data.mu, data.C1), f2),
               mul(data.C2, f1),
               mul(S, lin_v), mul(S_omega_t, wv),
               mul(C1t, V), mul(C2t, U),
               differentiate(data.B2, T, rules),
               mul(MINUS_ONE, a, laplacian(data.B2, m, rules)),
               mul(MINUS_ONE, lap_B1))
    return _classifying(system, (lhs1, lhs2), phi_u, phi_v)


def classifying_residual_main(system: RDSystem, C1: Expr, C2: Expr,
                              B1: Expr, B2: Expr, mu: Expr) -> Tuple[Expr, Expr]:
    """Residuals of the main-symmetry classifying equations (lhs - rhs): the
    full equations with lam = sigma = omega = gamma = 0."""
    return classifying_residual_full(
        system, FullSymmetryData(mu=mu, C1=C1, C2=C2, B1=B1, B2=B2))


def classifying_residual_drift(system: RDSystem, F: Expr, B1: Expr, B2: Expr,
                               mu: Expr) -> Tuple[Expr, Expr]:
    """Residuals of the drift-family classifying equations (p = 1)."""
    if system.family != "drift":
        raise ValueError("drift classifying equations require the drift family")
    if not (type(system.p) is Rat and system.p.value == 1):
        raise ValueError("normalize the drift to p = 1 first")
    rules = system.rules
    f1, f2 = system.f1, system.f2
    Ft = differentiate(F, T, rules)
    xm = coords(system.m)[-1]
    phi_u = add(B1, mul(F, U))
    phi_v = add(B2, mul(add(F, mu), V))

    lhs1 = add(mul(add(mul(rat(3), mu), F), f1), mul(Ft, U),
               differentiate(B1, T, rules),
               mul(MINUS_ONE, differentiate(B2, xm, rules)))
    lhs2 = add(mul(add(mul(rat(4), mu), F), f2), mul(Ft, V),
               differentiate(B2, T, rules),
               mul(MINUS_ONE, laplacian(B1, system.m, rules)))
    return _classifying(system, (lhs1, lhs2), phi_u, phi_v)


def classifying_residual_a0(system: RDSystem, alpha: Expr, N: Expr, M: Expr,
                            H: Optional[Sequence[Expr]], B1: Expr, B2: Expr,
                            B3: Expr) -> Tuple[Expr, Expr]:
    """Residuals of the classifying equations for the nilpotent case a = 0.

    H is the spatial field (one component per direction, None for zero);
    B3 may depend on u as well as t, x.
    """
    if not (system.family == "triangular" and is_zero(system.a)):
        raise ValueError("a = 0 classifying equations require triangular a = 0")
    rules = system.rules
    m = system.m
    xs = coords(m)
    f1, f2 = system.f1, system.f2
    if H is None:
        H = [ZERO] * m
    div = add(*[differentiate(H[i], xs[i], rules) for i in range(m)])
    wu = add(N, mul(rat(m - 2), div))      # weight on u d_u
    wv = add(M, mul(rat(m + 2), div))      # weight on v d_v
    Nt = differentiate(N, T, rules)
    Mt = differentiate(M, T, rules)
    phi_u = add(B1, mul(wu, U))
    phi_v = add(B2, mul(B3, U), mul(wv, V))

    lhs1 = add(mul(add(alpha, mul(rat(2), N), mul(MINUS_ONE, M),
                       mul(rat(m - 2), div)), f1),
               mul(Nt, U), differentiate(B1, T, rules))
    lhs2 = add(mul(add(alpha, N, mul(rat(m + 2), div)), f2),
               mul(B3, f1), mul(Mt, V),
               mul(differentiate(B3, T, rules), U),
               differentiate(B2, T, rules),
               mul(MINUS_ONE, laplacian(B1, m, rules)),
               mul(rat(2 - m), laplacian(div, m, rules), U))
    return _classifying(system, (lhs1, lhs2), phi_u, phi_v)


# ---------------------------------------------------------------------------
# extension tests (a != 0): Galilei / exp-Galilei / conformal


def galilei_residuals(system: RDSystem) -> Tuple[Expr, Expr]:
    """a f1 = (a(u du + v dv) - u dv) f1 ; a f2 - f1 = (...) f2: a^2 times
    the equations of the Galilei weight W, w^a(f1, f2) = W f^a with w^a
    the weight's linear part."""
    w = weight_bracket(system.a)
    lin = [substitute(c, {U: system.f1, V: system.f2}) for c in w]
    a2 = mul(system.a, system.a)
    return tuple(mul(a2, r) for r in _classifying(system, lin, *w))


def conformal_residuals(system: RDSystem) -> Tuple[Expr, Expr]:
    """(m+4) f^a = m (u du + v dv) f^a."""
    m = rat(system.m)
    return _classifying(system, (mul(m + 4, system.f1),
                                 mul(m + 4, system.f2)),
                        mul(m, U), mul(m, V))


def exp_galilei_gamma(a: Expr, g1: Expr, g2: Expr
                      ) -> Tuple[Optional[bool], Optional[Expr]]:
    """Whether a rate gamma exists for which a(f1 + gamma u) = (a(u du+v
    dv) - u dv) f1 and a(f2 + gamma v) - gamma u = (...) f2 both hold
    (None: undecided), and the rate when it does; g1, g2 are the system's
    ``galilei_residuals`` and a its diffusion constant."""
    try:
        g1 = expand(g1)
    except ExprError:
        pass
    # first equation demands  a*gamma*u = -g1, so gamma = -g1/(a u)
    gamma = mul(MINUS_ONE, g1, powe(mul(a, U), MINUS_ONE))
    if any(type(s) is Jet or is_coordinate(s)
           for s in free_symbols(gamma)):
        return False, None
    # residual of  a(f2 + gamma v) - gamma u - f1 = Op f2,  written via g2
    # (the -f1 coupling is required for consistency with direct prolongation
    # of Ghat; see the worked-example tests)
    r2 = add(g2, mul(a, gamma, V), mul(MINUS_ONE, gamma, U))
    admitted = vanish([decide_equivalence(r2, ZERO)])
    return admitted, (gamma if admitted else None)


@dataclass
class ExtensionReport:
    """Which extended operators the nonlinearities admit; None where the
    decision is undecided."""
    galilei: Optional[bool]
    exp_galilei: Optional[bool]
    conformal: Optional[bool]
    gamma: Optional[Expr] = None


def extension_check(system: RDSystem) -> ExtensionReport:
    """Which extended operators (G, Ghat, K) the nonlinearities admit."""
    if system.family != "triangular" or is_zero(system.a):
        raise ValueError("extension tests apply to triangular a != 0")
    gres = galilei_residuals(system)
    gal = vanish(decide_equivalence(r, ZERO) for r in gres)
    # K is tested only once G is admitted
    conf = vanish(decide_equivalence(r, ZERO)
                  for r in conformal_residuals(system)) if gal else gal
    expg, gamma = exp_galilei_gamma(system.a, *gres)
    return ExtensionReport(gal, expg, conf, gamma)


# ---------------------------------------------------------------------------
# kernel-rule builders


def heat_kernel_rule(name: str, params: Sequence[Expr], a: Expr,
                     nu: Expr) -> KernelRule:
    """psi_t = a*Lap(psi) + nu*psi for psi(params), params = (t, x1..xm):
    rewrites the first derivative in the time slot."""
    n = len(params)
    lap = add(*[ker(name, *params,
                    dvec=tuple(2 if j == i else 0 for j in range(n)))
                for i in range(1, n)])
    template = add(mul(a, lap), mul(nu, ker(name, *params)))
    return KernelRule(name, 0, 1, params, template)


def laplace_kernel_rule(name: str, params: Sequence[Expr],
                        mu: Expr) -> KernelRule:
    """Lap(Psi) = mu*Psi for Psi(params), the Laplacian taken over the
    parameter slots: rewrites the second derivative in the last slot."""
    n = len(params)
    rest = add(*[ker(name, *params,
                     dvec=tuple(2 if j == i else 0 for j in range(n)))
                 for i in range(n - 1)])
    template = add(mul(mu, ker(name, *params)),
                   mul(MINUS_ONE, rest))
    return KernelRule(name, n - 1, 2, params, template)


def w_kernel_rules(name: str, params: Sequence[Expr], f1: Expr, f2: Expr,
                   rules: RuleSet = EMPTY_RULES) -> KernelRule:
    """W_t = f2_v - W_u * f1 for W(params), params = (t, x1..xm, u);
    needs f1, f2_v free of v."""
    n = len(params)
    f2v = differentiate(f2, V, rules)
    for e in (f1, f2v):
        if V in free_symbols(e):
            raise ValueError("W kernel requires f1 and f2_v independent of v")
    wu = ker(name, *params, dvec=(0,) * (n - 1) + (1,))
    template = add(f2v, mul(MINUS_ONE, wu, f1))
    return KernelRule(name, 0, 1, params, template)


def cauchy_riemann_rules(h1: str, h2: str,
                         params: Sequence[Expr]) -> List[KernelRule]:
    """CR pair on params = (x1, x2): H2 derivatives rewrite through H1; H1
    harmonic."""
    h1_x1 = ker(h1, *params, dvec=(1, 0))
    h1_x2 = ker(h1, *params, dvec=(0, 1))
    h1_x1x1 = ker(h1, *params, dvec=(2, 0))
    return [
        KernelRule(h2, 1, 1, params, h1_x1),                       # H2_x2 = H1_x1
        KernelRule(h2, 0, 1, params, mul(MINUS_ONE, h1_x2)),       # H2_x1 = -H1_x2
        KernelRule(h1, 1, 2, params, mul(MINUS_ONE, h1_x1x1)),     # H1 harmonic
    ]
