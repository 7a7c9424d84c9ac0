import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rdsymm
from rdsymm import expr
from rdsymm.expr import (Add, DomainError, Expr, ExprError, Jet, Ker,
                         KernelRule, Mul, ONE, Rat, RuleSet, Sym, ZERO, add,
                         apply_rules, children, cos_, differentiate, exp_,
                         expand, free_symbols, is_int, is_zero, jet, jets_in,
                         ker, ln_, mul, powe, rat, rebuild, sin_, substitute,
                         sym)
from rdsymm.numeric import DPS, eval_at, magnitude
from rdsymm.parser import parse, to_text
from rdsymm.systems import w_kernel_rules

u, v, t = jet("u"), jet("v"), sym("t")
x1 = sym("x1")
nu, mu, lam = sym("nu"), sym("mu"), sym("lam")


# random expression strategy over a small symbol pool
_atoms = st.sampled_from([u, v, t, x1, nu, mu])
_consts = st.integers(min_value=-4, max_value=4).map(rat)
_powers = st.one_of(st.integers(min_value=-2, max_value=3),
                    st.sampled_from([Fraction(1, 2), Fraction(-1, 2),
                                     Fraction(3, 2)]))


def _ln_or_self(e):
    # ln of a non-positive constant raises
    return e if isinstance(e, Rat) and e.value <= 0 else ln_(e)


def _exprs(depth=3):
    base = st.one_of(_atoms, _consts)
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda p: add(*p)),
        st.tuples(sub, sub).map(lambda p: mul(*p)),
        st.tuples(sub, _powers).map(
            lambda p: powe(p[0], rat(p[1])) if not is_zero(p[0]) or p[1] > 0
            else p[0]),
        sub.map(exp_),
        sub.map(_ln_or_self),
        sub.map(sin_),
        sub.map(cos_),
        sub.map(lambda a: ker("F", a, dvec=(1,))),
    )


def _all_nodes(e):
    out = [e]
    for c in children(e):
        out += _all_nodes(c)
    return out


@settings(max_examples=500, deadline=None)
@given(_exprs())
def test_children_rebuild_roundtrip(e):
    # the premise of every walk that hands back a node it did not change
    for n in _all_nodes(e):
        assert rebuild(n, children(n)) is n


def _tower(x, depth):
    # e_{k+1} = sin(e_k) + cos(e_k): 2^k paths through 3k composite nodes
    e = x
    for _ in range(depth):
        e = sin_(e) + cos_(e)
    return e


def _count_children(monkeypatch):
    calls = []

    def counting_children(n):
        calls.append(n)
        return children(n)

    monkeypatch.setattr(expr, "children", counting_children)
    return calls


def test_atoms_visits_each_distinct_node_once(monkeypatch):
    # a fresh atom, so that no node of the tower has its atom set yet
    depth, x = 16, sym("tower_atoms")
    e = _tower(x, depth)
    calls = _count_children(monkeypatch)
    assert free_symbols(e) == {x}
    assert len(calls) == len(set(calls)) == 3 * depth
    calls.clear()
    assert free_symbols(e) == {x}
    assert calls == []


@settings(max_examples=500, deadline=None)
@given(_exprs())
def test_cached_atom_sets_match_a_walk(e):
    for n in _all_nodes(e):
        walked = {a for a in _all_nodes(n) if isinstance(a, (Sym, Jet))}
        assert free_symbols(n) == walked
        assert jets_in(n) == {a for a in walked if isinstance(a, Jet)}


def test_differentiate_skips_subtrees_without_the_atom(monkeypatch):
    tower = _tower(sym("tower_d"), 8)
    e = t * tower + u
    free_symbols(e)
    calls = []
    real = expr._derivative

    def counting(n, s, *rest):
        calls.append(n)
        return real(n, s, *rest)

    monkeypatch.setattr(expr, "_derivative", counting)
    reads = _count_children(monkeypatch)
    assert is_zero(expr.differentiate(tower, u))
    assert calls == [] and reads == []
    calls.clear()
    assert expr.differentiate(e, u) is rat(1)
    assert sorted(calls, key=id) == sorted([e, *e.terms], key=id)
    assert reads == []


def test_substitute_keeps_subtrees_without_bound_atoms(monkeypatch):
    tower = _tower(sym("tower_s"), 8)
    e = t * tower + u
    free_symbols(e)
    reads = _count_children(monkeypatch)
    assert substitute(tower, {u: v}) is tower
    assert reads == []
    assert substitute(e, {u: v}) is t * tower + v
    assert tower not in reads and t * tower not in reads


def test_substitute_walks_each_distinct_node_once(monkeypatch):
    depth, x, y = 8, sym("tower_sub"), sym("tower_sub_image")
    tower, image = _tower(x, depth), _tower(y, depth)
    free_symbols(tower)
    reads = _count_children(monkeypatch)
    assert substitute(tower, {x: y}) is image
    assert len(reads) == len(set(reads)) == 3 * depth


@settings(max_examples=150, deadline=None)
@given(_exprs(2), _exprs(2))
def test_addition_commutes(e1, e2):
    assert add(e1, e2) == add(e2, e1)
    assert mul(e1, e2) == mul(e2, e1)


@settings(max_examples=150, deadline=None)
@given(_exprs(2))
def test_additive_inverse(e):
    assert is_zero(add(e, mul(rat(-1), e)))


@settings(max_examples=500, deadline=None)
@given(_exprs(), _exprs())
def test_equal_structure_is_the_same_node(a, b):
    assert rebuild(a, children(a)) is a
    assert parse(to_text(a)) is a
    assert (a is b) == (a.key() == b.key())
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


class _Forgetful(dict):
    """A computed table cleared every few entries, that is, in the middle
    of any computation longer than that."""

    def __setitem__(self, ident, value):
        if len(self) >= 3:
            self.clear()
        super().__setitem__(ident, value)


@settings(max_examples=200, deadline=None)
@given(_exprs(2), _exprs(2))
def test_clearing_the_computed_table_changes_no_result(a, b):
    def results():
        s = add(a, b)
        return (mul(a, s), powe(s, rat(2)), expand(mul(a, s, s)),
                differentiate(mul(a, exp_(s)), u))

    want = results()
    tables = ("_ADDED", "_MULTIPLIED", "_POWERED")
    kept = {name: getattr(expr, name) for name in tables}
    try:
        for name in tables:
            setattr(expr, name, _Forgetful())
        got = results()
    finally:
        for name, table in kept.items():
            setattr(expr, name, table)
    assert all(g is w for g, w in zip(got, want))


_rationals = st.one_of(st.sampled_from([0, 1, -1, Fraction(-2, 3)]),
                       st.integers(min_value=-6, max_value=6),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=6))


@settings(max_examples=500, deadline=None)
@given(_exprs(), _rationals)
@example(u + 2 * t, Fraction(3, 2))     # a sum: the rational distributes
@example(powe(u, rat(-2)), -1)          # a lone power
@example(exp_(t), 2)                    # an exp kernel
def test_the_fast_paths_give_what_the_general_path_gives(a, value):
    # a rational times one node, a one-term sum and an int's live rational
    # skip the general path; three factors, a second term or a denominator
    # take it
    c = rat(value)
    assert mul(c, a) is mul(c, a, ONE)
    assert mul(a, c) is mul(a, c, ONE)
    assert add(a) is add(a, ZERO)
    assert c is rat(value, 1)


def test_a_dropped_import_is_freed():
    """Importing rdsymm again after dropping it from sys.modules frees the
    first copy: no module-level object outside the package (such as
    typing's cache of subscripted aliases) keeps its classes alive."""
    code = """if True:
        import gc, sys, weakref
        import rdsymm
        first = weakref.ref(rdsymm.expr.Expr)
        for name in [n for n in sys.modules if n.split(".")[0] == "rdsymm"]:
            del sys.modules[name]
        del rdsymm
        import rdsymm
        gc.collect()
        assert first() is None, "the first import of rdsymm is still alive"
    """
    src = Path(rdsymm.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_coefficients_are_canonical():
    """A rational value or coefficient is an int when it is integral and a
    Fraction otherwise, whatever it was computed from."""
    assert rat(Fraction(4, 2)) is rat(2)
    assert type(rat(Fraction(4, 2)).value) is int
    assert rat(Fraction(4, 2)).value == 2
    assert mul(rat(1, 2), rat(2)) is ONE
    # an int to a negative power stays exact
    assert powe(rat(2), rat(-3)) is rat(1, 8)
    assert powe(rat(3), rat(-2)) is rat(1, 9)
    # 3^(1/2) * 3^(-5/2): the exponents of one rational base add up to -2
    assert mul(powe(rat(3), rat(1, 2)), powe(rat(3), rat(-5, 2))) is rat(1, 9)
    half_u = mul(powe(rat(2), rat(-1)), u)
    assert type(half_u.coeff) is Fraction and half_u.coeff == Fraction(1, 2)
    assert type(mul(rat(3), u).coeff) is int


def test_basic_normal_forms():
    assert u * u == powe(u, rat(2))
    assert is_zero(u - u)
    assert is_zero(5 * u - 5 * u)
    assert (u + v) - (v + u) == rat(0)
    assert powe(u, nu) * powe(u, rat(2)) == powe(u, nu + rat(2))
    assert powe(powe(u, rat(2)), rat(3)) == powe(u, rat(6))
    # rational multiples of sums distribute so like terms merge
    assert is_zero((u + v) - u - v)


def test_the_kind_flags_name_their_classes():
    """``leaf`` is true on Rat, Sym and Jet only, ``variable`` on Sym and
    Jet only; both are class attributes, read off the node's class, with
    no slot of their own."""
    kinds = {Rat: rat(2), Sym: sym("a"), Jet: jet("u", 1, (1,)),
             Ker: exp_(sym("a")), Mul: mul(rat(2), sym("a")),
             Add: add(sym("a"), rat(1))}
    assert set(Expr.__subclasses__()) == set(kinds)
    assert Expr.leaf is False and Expr.variable is False
    for cls, node in kinds.items():
        assert type(node) is cls
        assert node.leaf is (cls in (Rat, Sym, Jet)), cls
        assert node.variable is (cls in (Sym, Jet)), cls
        assert node.leaf is (not children(node))
        for c in cls.__mro__:
            assert not {"leaf", "variable"} & set(getattr(c, "__slots__", ()))
    assert {a for a in free_symbols(add(*kinds.values()))} == {
        n for n in kinds.values() if n.variable}


def test_a_power_is_a_one_factor_product():
    sq = powe(u, rat(2))
    assert type(sq) is Mul and sq.coeff == 1 and sq.pairs == ((u, rat(2)),)
    # a power keeps its own order key, so terms sort and print as before
    assert sq.key() == (4, u.key(), rat(2).key())
    for text in ["(-2)^(1/2) + u^2 + v^3 + (u + v)^nu + u*v + 2*u",
                 "((-2)^(1/2))^(1/3)", "(-2*u)^(1/2)"]:
        assert to_text(parse(text)) == text
    assert to_text(differentiate(parse("(u+v)^u"), u)) == (
        "u*(u + v)^(-1 + u) + ln(u + v)*(u + v)^u")
    # the power rule stays one factor of the product rule
    assert to_text(differentiate(parse("v*(u+v)^u"), u)) == (
        "v*(u*(u + v)^(-1 + u) + ln(u + v)*(u + v)^u)")


def _assert_normal(e):
    """The invariants of the normal form on every product and sum in e."""
    for n in _all_nodes(e):
        if isinstance(n, Mul):
            keys = [b.key() for b, _ in n.pairs]
            assert n.coeff != 0 and keys and keys == sorted(set(keys))
            # 1*b is b itself
            assert not (n.coeff == 1 and len(n.pairs) == 1
                        and n.pairs[0][1] is ONE)
            for b, x in n.pairs:
                assert x is not ZERO
                assert not (isinstance(b, Rat) and is_int(x))
                assert not (isinstance(b, Mul) and x is ONE)
                assert not (isinstance(b, Ker) and b.name == "exp") \
                    or x is ONE
            assert sum(isinstance(b, Ker) and b.name == "exp"
                       for b, _ in n.pairs) <= 1
        elif isinstance(n, Add):
            keys = [t.key() for t in n.terms]
            assert len(keys) >= 2 and keys == sorted(set(keys))
            monomials = [t.pairs if isinstance(t, Mul)
                         else None if isinstance(t, Rat) else ((t, ONE),)
                         for t in n.terms]
            assert len(set(monomials)) == len(monomials)
            assert not any(isinstance(t, Add) or t is ZERO for t in n.terms)


_exponents = st.sampled_from([rat(1, 2), rat(-1, 2), rat(1, 3), rat(2),
                              nu, 1 - nu, -1 - nu, mu - nu])


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_constructors_keep_the_normal_form(e):
    _assert_normal(e)
    _assert_normal(expand(e))


@settings(max_examples=300, deadline=None)
@given(_exprs(2), _exprs(2), _exponents, _exponents)
def test_products_of_powers_keep_the_normal_form(a, b, p, q):
    # exponents of one base that add up to 1, an integer or 0
    try:
        e = mul(b, powe(a, p), powe(a, q), powe(a, 1 - p), powe(mul(a, b), q))
    except DomainError:
        assume(False)
    _assert_normal(e)


def test_a_product_base_whose_exponents_add_up_to_1_is_flattened():
    h = powe(-2 * u, rat(1, 2))
    assert mul(v, h, h) is -2 * u * v
    p = sym("p")
    assert mul(v, powe(-u, p), powe(-u, 1 - p)) is -u * v
    w = powe(powe(rat(-2), rat(1, 2)), rat(1, 3))
    assert to_text(mul(u, w, w, w)) == "(-2)^(1/2)*u"


def test_powers_whose_exponents_add_up_to_an_integer():
    half, quarter, p = rat(1, 2), rat(1, 4), sym("p")
    assert mul(powe(rat(2), half), powe(rat(2), half)) is rat(2)
    assert mul(powe(rat(4), quarter), powe(rat(4), quarter)) is rat(2)
    assert mul(powe(rat(2), p), powe(rat(2), 1 - p)) is rat(2)
    assert mul(powe(ZERO, p), powe(ZERO, 1 - p)) is ZERO
    with pytest.raises(DomainError):
        mul(powe(ZERO, p), powe(ZERO, -1 - p))
    assert exp_(ln_(2 * u)) is 2 * u


def test_exp_ln_kernel_laws():
    assert exp_(rat(0)) == rat(1)
    assert ln_(rat(1)) == rat(0)
    assert exp_(ln_(u)) == u
    assert ln_(exp_(u + v)) == u + v
    assert exp_(u) * exp_(v) == exp_(u + v)
    assert exp_(u) * exp_(-u) == rat(1)
    assert ln_(powe(u, nu)) == nu * ln_(u)
    with pytest.raises(DomainError):
        ln_(rat(-2))


def test_trig_parity():
    assert sin_(rat(0)) == rat(0)
    assert cos_(rat(0)) == rat(1)
    assert sin_(-u) == -sin_(u)
    assert cos_(-u) == cos_(u)


def test_expand_distributes():
    e = (u + v) * (u - v)
    assert expand(e) == u * u - v * v
    assert is_zero(expand((2 * v - u * u) * u - (2 * u * v - u ** rat(3))))


def test_expand_reduces_cos_powers():
    e = cos_(t) ** rat(2) + sin_(t) ** rat(2) - 1
    assert is_zero(expand(e))


def test_trig_sign_is_a_fixed_point():
    # a and -a both lead with a negative coefficient
    a = -4 * v + nu * v
    assert ({n for n in _all_nodes(sin_(a)) if isinstance(n, Ker)}
            == {n for n in _all_nodes(sin_(-a)) if isinstance(n, Ker)})
    assert sin_(-a) == -sin_(a)
    assert cos_(-a) == cos_(a)
    e = cos_(x1) * sin_(v * (nu - 4))
    assert expand(e) == cos_(x1) * sin_(nu * v - 4 * v)


def test_expand_expands_what_a_kernel_constructor_rewrites():
    # the exponent expands to 2*ln(u + v), which exp turns into (u + v)^2
    e = exp_(2 * (1 + x1) * ln_(u + v) - 2 * x1 * ln_(u + v))
    assert expand(e) == u * u + 2 * u * v + v * v


def test_expand_walks_a_shared_subtree_once(monkeypatch):
    # F(u + v) sits in 20 terms; one expand call rebuilds it once
    shared = ker("F", u + v)
    e = add(*[mul(sym(f"c{i}"), shared, shared + t) for i in range(20)])
    rebuilt = []

    def counting(n, kids):
        rebuilt.append(n)
        return rebuild(n, kids)

    monkeypatch.setattr(expr, "rebuild", counting)
    out = expand(e)
    assert rebuilt.count(shared) == 1
    monkeypatch.undo()
    assert out == add(*[mul(sym(f"c{i}"), shared, shared)
                        for i in range(20)] +
                      [mul(sym(f"c{i}"), shared, t) for i in range(20)])


def _expanded_or_error(e):
    try:
        return expand(e)
    except ExprError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_exprs(), max_size=4), _exprs())
def test_a_shared_expansion_is_the_one_a_fresh_call_gives(warm, e):
    # a table warmed with other expressions and with e's own subtrees gives
    # e the very node (or the error) that a call outside any block gives
    want = _expanded_or_error(e)
    with expr.shared_derivations():
        for w in [*warm, *children(e)]:
            _expanded_or_error(w)
        assert _expanded_or_error(e) is want
        assert _expanded_or_error(e) is want
    assert _expanded_or_error(e) is want


@pytest.mark.parametrize("enabled", [True, False])
def test_a_derivation_block_pauses_the_collector_and_restores_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with expr.shared_derivations():
            assert not gc.isenabled()
            with expr.shared_derivations():
                assert not gc.isenabled()
            assert not gc.isenabled()    # an inner block leaves it paused
        assert gc.isenabled() is enabled
        with pytest.raises(ZeroDivisionError):
            with expr.shared_derivations():
                1 / 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _rule_sets(kind):
    """A rule set for F, built afresh on every call."""
    s = sym("s")
    if kind == "relation":
        return RuleSet([KernelRule("F", 0, 1, [s], ker("F", s))])  # F' = F
    if kind == "definition":
        return RuleSet([KernelRule("F", 0, 0, [s], s ** 3)])  # F(s) = s^3
    return RuleSet()


def _derived_or_error(e, s, rules):
    try:
        return differentiate(e, s, rules)
    except ExprError as exc:
        return type(exc)


_kinds = st.sampled_from(["none", "relation", "definition"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_exprs(), _atoms, _kinds), max_size=4), _exprs(),
       _exprs(2), _atoms, _kinds)
@example([], powe(rat(0), u - 1), rat(1), u, "none")
def test_a_shared_derivative_is_the_one_a_fresh_call_gives(warm, e, arg, s,
                                                            kind):
    # a table warmed with other derivatives, with de/ds under every rule
    # set (its own built apart) and with the derivatives of e's subtrees
    # gives de/ds the very node (or the error) that a call outside any
    # block gives
    e = add(e, mul(arg, ker("F", arg)))
    want = _derived_or_error(e, s, _rule_sets(kind))
    with expr.shared_derivations():
        for other in ("none", "relation", "definition"):
            _derived_or_error(e, s, _rule_sets(other))
        for w, ws, wk in [*warm, *((c, s, kind) for c in children(e))]:
            _derived_or_error(w, ws, _rule_sets(wk))
        for _ in range(2):
            assert _derived_or_error(e, s, _rule_sets(kind)) is want
    assert _derived_or_error(e, s, _rule_sets(kind)) is want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_exprs(), _atoms), max_size=3), _exprs(),
       _exprs(2), _atoms, _kinds)
@example([(powe(rat(0), u - 1) + t * u, u)], powe(rat(0), u - 1) + t * u,
         rat(1), u, "none")
def test_a_warmed_derivative_memo_gives_what_a_fresh_call_gives(warm, e, arg,
                                                                s, kind):
    # a block whose memos were warmed by other walks, by s and by other
    # atoms, over other expressions and over every subtree of e (a walk
    # that raised included) gives e and each of its subtrees the very node
    # (or the error) that a call outside any block gives
    e = add(e, mul(arg, ker("F", arg)))
    nodes = _all_nodes(e)
    want = [_derived_or_error(n, s, _rule_sets(kind)) for n in nodes]
    with expr.shared_derivations():
        for w, ws in warm:
            _derived_or_error(w, ws, _rule_sets(kind))
        for n in reversed(nodes):
            for a in dict.fromkeys((s, u, x1)):
                _derived_or_error(n, a, _rule_sets(kind))
        got = [_derived_or_error(n, s, _rule_sets(kind)) for n in nodes]
    assert all(g is w for g, w in zip(got, want))


def test_a_block_differentiates_a_shared_subtree_once_per_atom(monkeypatch):
    inner = u * x1 + u     # reached only through F(inner)
    e1, e2 = t * ker("F", inner) + x1, v * ker("F", inner) + t
    pairs = [(e, s) for s in (u, x1) for e in (e1, e2)]
    walks = []
    real = expr._derivative

    def counting(n, s, *rest):
        if n is inner:
            walks.append(s)
        return real(n, s, *rest)

    monkeypatch.setattr(expr, "_derivative", counting)
    with expr.shared_derivations():
        for e, s in pairs:
            differentiate(e, s)
    assert walks == [u, x1]
    # a content-equal rule set shares the memo, another rule set has its own
    walks.clear()
    with expr.shared_derivations():
        for kind in ("relation", "relation", "definition"):
            differentiate(e1, u, _rule_sets(kind))
    assert walks == [u, u]
    # outside a block, and in separate blocks, each call walks it again
    for block in (nullcontext, expr.shared_derivations):
        walks.clear()
        for e, s in pairs:
            with block():
                differentiate(e, s)
        assert walks == [u, u, x1, x1]


@pytest.mark.parametrize("ending", ["normally", "by an exception",
                                    "by a walk that raises"])
def test_a_block_drops_its_derivative_memos(ending):
    s = sym("memo_atom")
    e = ker("G", s)       # held by nothing but the memo once dropped
    gone = weakref.ref(e)
    try:
        with expr.shared_derivations():
            assert differentiate(e, s) is ker("G", s, dvec=(1,))
            del e
            assert gone() is not None
            assert expr._SHARED[(expr._derivative, (s, expr.EMPTY_RULES))]
            if ending == "by an exception":
                raise ZeroDivisionError
            if ending == "by a walk that raises":
                differentiate(powe(rat(0), s - 1), s)    # ln(0)
    except (ZeroDivisionError, DomainError):
        assert ending != "normally"
    assert expr._SHARED is None
    assert gone() is None


def test_rule_sets_compare_by_content():
    s = sym("s")
    first, second = (KernelRule("F", 0, 1, [s], ker("F", s)),
                     KernelRule("G", 0, 0, [s], s ** 2))
    one = RuleSet([first, second])
    twin = RuleSet([KernelRule("F", 0, 1, [sym("s")], ker("F", s)),
                    KernelRule("G", 0, 0, [s], mul(s, s))])
    assert one == twin and hash(one) == hash(twin) and one is not twin
    assert RuleSet() == expr.EMPTY_RULES
    assert hash(RuleSet()) == hash(expr.EMPTY_RULES)
    assert RuleSet([second, first]) != one
    assert RuleSet([first, KernelRule("G", 0, 0, [s], s ** 3)]) != one
    assert RuleSet([first]) != one and one != (first, second)


_POSITIVE_POINT = {u: Fraction(3, 2), v: Fraction(2, 3), t: Fraction(5, 4),
                   x1: Fraction(7, 3), nu: Fraction(3, 5), mu: Fraction(5, 2)}


@settings(max_examples=500, deadline=None)
@given(_exprs())
@example(cos_(x1) * sin_(v * (nu - 4)))
def test_expand_keeps_value_and_is_idempotent(e):
    def opaque(name, dvec, args):
        # one value per kernel: expand may round an argument's value
        return Fraction(3, 7) + sum(dvec)

    try:
        want = eval_at(e, _POSITIVE_POINT, opaque)
        out = expand(e)
        terms = [eval_at(s, _POSITIVE_POINT, opaque)
                 for s in (out.terms if isinstance(out, Add) else (out,))]
        scale = max(1.0, *(magnitude(s) for s in terms))
    except (DomainError, OverflowError):
        assume(False)
    # the terms of a true identity cancel down to rounding noise
    with mpmath.workdps(DPS):
        residual = want - sum(terms)
    assert magnitude(residual) <= 1e-40 * scale
    assert expand(out) == out


def test_differentiate_product_rule():
    assert differentiate(u * v, u) == v
    d = differentiate(exp_(nu * v / u), v)
    assert d == nu * powe(u, rat(-1)) * exp_(nu * v / u)


def test_differentiate_power_and_ln():
    assert differentiate(powe(u, mu), u) == mu * powe(u, mu - 1)
    assert differentiate(ln_(u), u) == powe(u, rat(-1))
    got = differentiate(powe(u, u), u)
    assert is_zero(expand(got - (ln_(u) + 1) * powe(u, u)))


@settings(max_examples=80, deadline=None)
@given(_exprs(2), _exprs(2),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_derivative_linearity(e1, e2, aa, bb):
    s = u
    lhs = differentiate(add(mul(rat(aa), e1), mul(rat(bb), e2)), s)
    rhs = add(mul(rat(aa), differentiate(e1, s)),
              mul(rat(bb), differentiate(e2, s)))
    assert is_zero(expand(lhs - rhs))


def test_substitute_and_noop():
    assert substitute(u * u, {u: rat(0)}) == rat(0)
    assert substitute(exp_(lam * t + nu * x1), {lam: rat(0), nu: rat(0)}) == rat(1)
    e = u * v + nu
    assert substitute(e, {sym("zz"): rat(5)}) == e


def test_substitution_composition_disjoint_domains():
    e = u * v + nu * u
    b1 = {u: v + 1}
    b2 = {nu: rat(3)}
    lhs = substitute(substitute(e, b1), b2)
    combined = dict(b1)
    combined.update(b2)
    rhs = substitute(e, combined)
    assert is_zero(expand(lhs - rhs))


def test_opaque_kernel_chain_rule():
    F = ker("F", 2 * v - u * u)
    dF = differentiate(F, v)
    assert dF == 2 * ker("F", 2 * v - u * u, dvec=(1,))
    dFu = differentiate(F, u)
    assert dFu == -2 * u * ker("F", 2 * v - u * u, dvec=(1,))


def test_kernel_rewrite_rule_terminates():
    F1 = ker("F1", u)
    F2 = ker("F2", u)
    rule = w_kernel_rules("W", [t, x1, u], F1, v * F2)
    rules = RuleSet([rule])
    W = ker("W", t, x1, u)
    wt = differentiate(W, t, rules)
    # W_t = f2_v - W_u f1 with f2_v = F2(u)
    expected = F2 - ker("W", t, x1, u, dvec=(0, 0, 1)) * F1
    assert is_zero(expand(wt - expected))
    # second derivative also closes (no t-derivatives of W remain)
    wtt = differentiate(wt, t, rules)
    assert all(k.dvec[0] == 0 for k in _all_nodes(wtt)
               if isinstance(k, Ker) and k.name == "W")


def test_a_definition_rewrites_the_kernel_and_its_derivatives():
    s = sym("s")
    rules = RuleSet([KernelRule("F", 0, 0, [s], s ** 3)])   # F(s) = s^3
    assert apply_rules(ker("F", x1), rules) is x1 ** 3
    assert apply_rules(ker("F", x1, dvec=(1,)), rules) is 3 * x1 ** 2


def test_a_kernel_of_no_arguments_is_defined_by_a_constant():
    rules = RuleSet([KernelRule("phi", 0, 0, [], rat(2))])
    assert apply_rules(t * ker("phi") + u, rules) is 2 * t + u


def test_apply_rules_reduces_a_shared_kernel_once(monkeypatch):
    s = sym("s")
    calls = []
    original = expr.reduce_kernel

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(expr, "reduce_kernel", counting)
    rules = RuleSet([KernelRule("F", 0, 1, [s], ker("F", s))])   # F' = F
    dF, F = ker("F", x1, dvec=(1,)), ker("F", x1)
    assert apply_rules(t * dF + x1 * dF, rules) is t * F + x1 * F
    assert calls == [("F", (x1,), (1,), rules)]


def _reference_terms(*terms):
    """The terms of ``add(*terms)`` as first written: every monomial is
    rebuilt from its summed coefficient, a term that met no like term
    too."""
    acc = {}
    for t in terms:
        for s in expr.addends(t):
            if s is not ZERO:
                coeff, pairs = expr.term_parts(s)
                acc[pairs] = acc.get(pairs, 0) + coeff
    return sorted((expr._from_parts(c, p) for p, c in acc.items() if c),
                  key=Expr.key)


def _reference_mul(*factors):
    """``mul``'s general path as first written: the arguments of the exp
    factors go through ker("exp", add(...)) again, a lone one too, and
    each base's exponents through ``add``."""
    coeff, bases, exp_args = 1, {}, []
    for f in factors:
        if isinstance(f, Rat):
            coeff *= f.value
            continue
        if isinstance(f, Mul):
            coeff *= f.coeff
        for b, x in f.pairs if isinstance(f, Mul) else ((f, ONE),):
            if isinstance(b, Ker) and b.name == "exp":
                exp_args.append(b.args[0])
            else:
                bases.setdefault(b, []).append(x)
    if coeff == 0:
        return ZERO
    pending = []
    if exp_args:
        e = ker("exp", add(*exp_args))
        if isinstance(e, Ker) and e.name == "exp":
            bases[e] = [ONE]
        else:
            pending.append(e)
    pairs = []
    for b, xs in bases.items():
        x = add(*xs)
        if x is ZERO:
            continue
        if x is not ONE or isinstance(b, (Rat, Mul)):
            p = powe(b, x)
            if expr.lone_power(p) != (b, x):
                pending.append(p)
                continue
        pairs.append((b, x))
    out = expr._make_mul(coeff, sorted(pairs, key=lambda bx: bx[0].key()))
    return mul(out, *pending) if pending else out


def _reference_mapped(n, binding, rules, done):
    """``expr._mapped`` as first written: every node it reaches is rebuilt,
    from children it left as they were too."""
    if isinstance(n, (Sym, Jet)):
        return binding.get(n, n)
    if rules is expr.EMPTY_RULES and free_symbols(n).isdisjoint(binding):
        return n
    out = done.get(n)
    if out is None:
        kids = [_reference_mapped(c, binding, rules, done)
                for c in children(n)]
        if isinstance(n, Ker) and rules.for_name(n.name):
            out = expr.reduce_kernel(n.name, tuple(kids), n.dvec, rules)
        else:
            out = rebuild(n, kids)
        done[n] = out
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(_exprs(2), min_size=2, max_size=4), _rationals)
def test_a_sum_hands_back_each_term_that_met_no_like_term(terms, value):
    # the first addend again, times c, is a like term of it
    like = mul(rat(value), expr.addends(terms[0])[0])
    for ts in (terms, [*terms, like], [like, *terms]):
        got, want = add(*ts), _reference_terms(*ts)
        # a sum's terms are its own: equal terms mean the same node
        assert list(expr.addends(got)) == want if want else got is ZERO


@settings(max_examples=300, deadline=None)
@given(_exprs(2), _exprs(2), _exprs(2), _powers)
def test_a_product_hands_back_its_lone_exp_factor(a, b, c, power):
    assume(not is_zero(a) or power > 0)
    for fs in ([a, exp_(b)], [exp_(b), powe(a, rat(power))],
               [a, exp_(b), mul(c, exp_(c))], [exp_(b), exp_(b)],
               [exp_(ln_(u) + b), c]):
        try:
            want = _reference_mul(*fs)
        except DomainError:
            with pytest.raises(DomainError):
                mul(*fs)
            continue
        assert mul(*fs) is want


_s = sym("s")
_WALK_RULES = [expr.EMPTY_RULES,
               RuleSet([KernelRule("F", 0, 1, [_s], ker("F", _s))]),
               RuleSet([KernelRule("F", 0, 0, [_s], _s ** 3)]),
               RuleSet([KernelRule("G", 0, 0, [_s], _s ** 3)])]


@settings(max_examples=300, deadline=None)
@given(_exprs(), _exprs(2), st.sampled_from(_WALK_RULES))
def test_a_walk_hands_back_the_subtrees_it_did_not_change(e, image, rules):
    # rules for a kernel of e (F), for none (G) or none at all
    for binding in ({}, {u: image}, {sym("absent"): image}):
        try:
            want = _reference_mapped(e, binding, rules, {})
        except DomainError:
            with pytest.raises(DomainError):
                expr._mapped(e, binding, rules, {})
            continue
        assert expr._mapped(e, binding, rules, {}) is want


def test_a_walk_that_changes_nothing_rebuilds_nothing(monkeypatch):
    s = sym("s")
    rules = RuleSet([KernelRule("G", 0, 0, [s], s ** 3)])    # G(s) = s^3
    e = add(ker("F", u + t, dvec=(1,)) * exp_(x1 * v), sin_(t) ** rat(1, 2),
            ln_(u + 2), powe(nu, mu))
    rebuilt = []

    def counting(n, kids):
        rebuilt.append(n)
        return rebuild(n, kids)

    monkeypatch.setattr(expr, "rebuild", counting)
    assert apply_rules(e, rules) is e
    assert substitute(e, {u: u}) is e
    assert rebuilt == []


def test_a_sum_of_distinct_monomials_builds_no_term(monkeypatch):
    terms = [u, 2 * v, t * x1, powe(u, rat(1, 2)), exp_(t), rat(3),
             -nu * u * v, ker("F", u, dvec=(2,))]
    calls = []
    real = expr._from_parts

    def counting(coeff, pairs):
        calls.append(pairs)
        return real(coeff, pairs)

    monkeypatch.setattr(expr, "_ADDED", {})    # no result kept from before
    monkeypatch.setattr(expr, "_from_parts", counting)
    out = add(*terms)
    assert calls == []
    assert sorted(out.terms, key=id) == sorted(terms, key=id)
    assert add(*terms[:4], add(*terms[4:])) is out and calls == []
    add(u, 2 * u)       # a merged monomial is built from its coefficient
    assert calls == [((u, ONE),)]


def test_a_node_set_takes_its_atom_children_as_they_are(monkeypatch):
    """Building a composite node's atom set recurses into its composite
    children only: an atom child goes into the set itself."""
    called = []
    free = expr.free_symbols

    def recording(e):
        called.append(e)
        return free(e)

    monkeypatch.setattr(expr, "free_symbols", recording)
    s, x = sym("_fs_s"), jet("u", 0, (1,))
    inner = add(mul(s, s), rat(3))
    e = add(mul(inner, x), s, ker("sin", mul(s, x)))
    assert free(e) == frozenset((s, x))
    assert called and not any(isinstance(c, (Sym, Jet)) for c in called)
