from fractions import Fraction

import pytest

from rdsymm.equality import (EQUAL, DIFFERENT, SAMPLES, UNDECIDED, Undecided,
                             decide_equivalence)
from rdsymm import expr
from rdsymm.expr import (ZERO, cos_, exp_, expand, is_zero, jet, ker, ln_,
                         powe, rat, sin_, sym)
from rdsymm.fields import generator, h_field
from rdsymm.nmatrix import (CaseSplitNeeded, as_nmatrix, canonical_form,
                            closure_check, fundamental_pair, g1, nmatrix)
from rdsymm.parser import parse, to_text
from rdsymm.systems import extension_check, is_symmetry, triangular
from rdsymm.transforms import VShift, apply_equiv, check_eqv3_admissible

u, v, t = jet("u"), jet("v"), sym("t")


def test_kernel_law_decided_by_normalization():
    d = decide_equivalence(exp_(u + v), exp_(u) * exp_(v))
    assert d.verdict == EQUAL and d.path == "normalize"


def test_zero_to_a_positive_power_decided_by_normalization():
    # u and v are positive on the domain; a parameter may be 0 or negative
    d = decide_equivalence(powe(ZERO, u), ZERO)
    assert d.verdict == EQUAL and d.path == "normalize"
    assert powe(ZERO, u * powe(v, sym("nu")) + rat(1, 2)) is ZERO
    for e in (sym("nu"), u - 1, t):
        assert expr.lone_power(powe(ZERO, e)) == (ZERO, e)


def test_square_decided_by_normalization():
    d = decide_equivalence(u * u, powe(u, rat(2)))
    assert d.verdict == EQUAL and d.path == "normalize"


def test_expansion_oracle_example():
    # independent oracle: expand both sides into monomial dictionaries
    def brute(expr_terms):
        # (coeff, u-power, v-power) triples
        out = {}
        for c, pu, pv in expr_terms:
            key = (pu, pv)
            out[key] = out.get(key, Fraction(0)) + c
        return {k: c for k, c in out.items() if c != 0}

    lhs = brute([(Fraction(2), 1, 1), (Fraction(-1), 3, 0)])   # (2v-u^2)*u
    rhs = brute([(Fraction(2), 1, 1), (Fraction(-1), 3, 0)])   # 2uv - u^3
    assert lhs == rhs
    d = decide_equivalence((2 * v - u * u) * u, 2 * u * v - powe(u, rat(3)))
    assert d.verdict == EQUAL


def test_trig_identity_via_expand():
    d = decide_equivalence(cos_(t) ** rat(2), 1 - sin_(t) ** rat(2))
    assert d.verdict == EQUAL and d.path == "expand"


def test_sound_false_with_counterexample():
    d = decide_equivalence(u * u, u * v)
    assert d.verdict == DIFFERENT
    assert d.counterexample


def test_numeric_layer_handles_opaque_kernels():
    F = ker("F", u)
    d = decide_equivalence(F * u - u * F, ZERO)
    assert d.verdict == EQUAL
    d2 = decide_equivalence(F, ker("F", v))
    assert d2.verdict == DIFFERENT


def test_sin_double_angle_needs_numeric_layer():
    # no exact layer knows sin(2t) = 2 sin(t) cos(t); sampling only agrees
    lhs = sin_(2 * t)
    rhs = 2 * sin_(t) * cos_(t)
    d = decide_equivalence(lhs, rhs)
    assert d.verdict == UNDECIDED and d.path == "numeric"
    assert d.samples == SAMPLES and d.note == f"agreed at {SAMPLES} points"


def test_log_domain_resampling():
    # ln(nu) forces positive resampling of nu rather than failure
    nu = sym("nu")
    d = decide_equivalence(ln_(nu * nu), 2 * ln_(nu))
    assert (d.verdict, d.path, d.samples) == (UNDECIDED, "numeric", SAMPLES)


def test_determinism():
    F = ker("F", u)
    e1 = sin_(2 * t) * F
    e2 = 2 * sin_(t) * cos_(t) * F
    d1 = decide_equivalence(e1, e2, seed=5)
    d2 = decide_equivalence(e1, e2, seed=5)
    assert (d1.verdict, d1.path, d1.samples) == (d2.verdict, d2.path, d2.samples)


def test_terms_beyond_float_range_are_never_agreement():
    # every point puts the single term beyond float range; the cancellation
    # guard compares in mpmath, so the term is still told from noise
    x1 = sym("x1")
    big = powe(t * t + 2, rat(5000))
    d = decide_equivalence(big * exp_(x1), ZERO)
    assert d.verdict == DIFFERENT and d.samples == 1
    assert set(d.counterexample) == {"t", "x1"}
    # huge terms that cancel leave only rounding noise: every point agrees
    huge = powe(u, rat(5000))
    d = decide_equivalence(sin_(2 * x1) * huge, 2 * sin_(x1) * cos_(x1) * huge)
    assert (d.verdict, d.path, d.samples) == (UNDECIDED, "numeric", SAMPLES)
    # an exact rational value is still compared exactly
    assert decide_equivalence(big * v, ZERO).verdict == DIFFERENT


def test_integer_powers_of_negative_transcendental_values():
    # sin(t+k)^2 is sampled at points where sin is negative; an integral
    # power of a negative value is defined, so no point is lost
    x1 = sym("x1")
    e = x1 * sin_(t) ** 2 * sin_(t + 1) ** 2 * sin_(t + 2) ** 2 \
        * sin_(t + 3) ** 2
    d = decide_equivalence(e, ZERO)
    assert d.verdict == DIFFERENT and d.counterexample


# equal where both sides are defined with t, x1 and u_x1 > 0, but t, x_i
# and the higher jets may be negative: no exact layer may call them equal,
# and a power of a square, |b|^k, differs from b^k at a negative point
UNSOUND_FOR_NEGATIVE_BASES = [
    ("(u_x1^2)^(1/2)", "u_x1", DIFFERENT), ("(t^2)^(1/2)", "t", DIFFERENT),
    ("(x1^2)^(1/2)", "x1", DIFFERENT), ("(t^2)^(3/2)", "t^3", DIFFERENT),
    ("ln(u_x1^2)", "2*ln(u_x1)", None), ("ln(t*x1)", "ln(t) + ln(x1)", None),
    ("(t*x1)^(1/2)", "t^(1/2)*x1^(1/2)", None)]


@pytest.mark.parametrize("a, b, verdict", UNSOUND_FOR_NEGATIVE_BASES)
def test_rewrites_that_need_a_positive_base_are_not_made(a, b, verdict):
    ea, eb = parse(a), parse(b)
    assert to_text(ea) == a and to_text(expand(ea)) == a
    assert not is_zero(expand(ea - eb))
    d = decide_equivalence(ea, eb)
    assert d.path == "numeric"
    if verdict is not None:
        assert d.verdict == verdict and min(d.counterexample.values()) < 0


def test_rewrites_that_hold_on_the_domain_are_kept():
    # u and v are positive; ln(b^3) = 3*ln(b) wherever either side is defined
    for a, b in [("ln(x1^3)", "3*ln(x1)"), ("ln(x1^(-1))", "-ln(x1)"),
                 ("ln(u*v)", "ln(u) + ln(v)"), ("(u^2)^(1/2)", "u"),
                 ("(4*u*t)^(1/2)", "2*t^(1/2)*u^(1/2)"),
                 ("(u*t^2)^(1/2)", "u^(1/2)*(t^2)^(1/2)"),
                 ("(t^(1/2))^2", "t")]:
        assert parse(a) is parse(b)


# the one pair that each boundary of the contract is fed: it agrees at every point where
# both sides are defined, but t and x1 may be negative, so no exact layer
# may decide it
LN_PAIR = (parse("ln(t*x1)"), parse("ln(t) + ln(x1)"))
LN_GAP = LN_PAIR[0] - LN_PAIR[1]


def test_equal_is_decided_by_an_exact_layer_only():
    # equal over the common denominator u - v: cleared exactly, on expand
    d = decide_equivalence(parse("(u^2 - v^2)/(u - v)"), u + v)
    assert (d.verdict, d.path) == (EQUAL, "expand")
    assert d.note == "after clearing denominators"
    # equal wherever both sides are defined, and no exact layer may say so
    d = decide_equivalence(*LN_PAIR)
    assert (d.verdict, d.path) == (UNDECIDED, "numeric")
    with pytest.raises(TypeError):
        bool(d)
    assert d.samples > 0 and d.note == f"agreed at {d.samples} points"


def test_clearing_rebases_fractional_powers_of_sums_and_rationals():
    for a, b in [("(t^2 + 1)^(3/2)", "t^2*(t^2 + 1)^(1/2) + (t^2 + 1)^(1/2)"),
                 ("(u + v)^(mu + 2)/(u - v) - (u + v)^(mu + 1)*v/(u - v)",
                  "(u + v)^(mu + 1)*u/(u - v)"),
                 ("11*11^(-1/2)", "11^(1/2)"),
                 ("9/2*(1/3)^(3/2)*u^(3/2)", "3/2*(1/3)^(1/2)*u^(3/2)"),
                 ("1/(u - 1) + 1/(u + 1)", "2*u/(u^2 - 1)")]:
        d = decide_equivalence(parse(a), parse(b))
        assert (d.verdict, d.path) == (EQUAL, "expand"), (a, b)
    # powers of one base with different non-integral parts stay apart
    d = decide_equivalence(parse("(u + v)^(1/2)*(u + v)^(1/3)"),
                           parse("(u + v)^(5/6)"))
    assert d.verdict == EQUAL and d.path == "normalize"
    d = decide_equivalence(parse("(u + 1)^(1/2)"), parse("(u + 2)^(1/2)"))
    assert d.verdict == DIFFERENT


def test_a_sampled_agreement_is_no_symmetry():
    S = triangular(1, sym("a"), LN_GAP, ZERO)
    rep = is_symmetry(S, generator(1, phi_u=u, phi_v=v))
    assert rep.verdict == "undecided" and not rep.holds
    assert rep.decision_path == "numeric+normalize"


def test_a_sampled_agreement_asks_for_a_case_split():
    with pytest.raises(CaseSplitNeeded):           # nmatrix._vanishes
        canonical_form(nmatrix(mu1=LN_GAP))
    with pytest.raises(CaseSplitNeeded):           # nmatrix._disc_sign
        fundamental_pair(ZERO, rat(1), LN_GAP, ZERO)


def test_a_sampled_agreement_is_no_extension_and_no_closure():
    ext = extension_check(triangular(1, sym("a"), LN_GAP, ZERO))
    assert ext.galilei is None and ext.conformal is None
    assert closure_check([g1(), nmatrix(nu1=LN_GAP)], {}) is None


# 0 by the double-angle identity, which no exact layer knows: undecided
SIN_GAP = parse("sin(2*x1) - 2*sin(x1)*cos(x1)")


def test_an_undecided_decision_has_no_truth_value():
    d = decide_equivalence(SIN_GAP, ZERO)
    assert d.verdict == UNDECIDED
    with pytest.raises(TypeError):
        bool(d)
    # nmatrix._disc_sign reads the verdict and still asks for a case split
    with pytest.raises(CaseSplitNeeded):
        fundamental_pair(ZERO, rat(1), SIN_GAP, ZERO)


def test_an_undecided_cauchy_riemann_pair_is_no_violation():
    x1, x2 = sym("x1"), sym("x2")
    with pytest.raises(Undecided, match="could not decide"):
        h_field(2, [x1, x2 + SIN_GAP])


def test_an_undecided_entry_does_not_break_the_n_pattern():
    with pytest.raises(Undecided, match=r"could not decide .* at \(1, 2\)"):
        as_nmatrix(((ZERO, ZERO, ZERO), (ZERO, ZERO, SIN_GAP),
                    (ZERO, ZERO, ZERO)))
    # an entry decided nonzero still breaks it, wherever the undecided one is
    with pytest.raises(ValueError, match=r"breaks the N pattern at \(1, 2\)"):
        as_nmatrix(((SIN_GAP, ZERO, ZERO), (ZERO, ZERO, t),
                    (ZERO, ZERO, ZERO)))


def test_an_undecided_bracket_is_no_failed_closure():
    assert closure_check([g1(), nmatrix(nu1=SIN_GAP)], {}) is None
    assert closure_check([g1(), nmatrix(nu1=SIN_GAP + t)], {}) is False


def test_an_undecided_admissibility_residual_is_no_refusal():
    S = triangular(1, 0, ker("F1", u), v + ker("F2", u))
    ok, residuals = check_eqv3_admissible(S, SIN_GAP)
    assert ok is None and len(residuals) == 2
    with pytest.raises(Undecided, match="admissibility system"):
        apply_equiv(S, VShift(SIN_GAP))
