import random
from fractions import Fraction

import mpmath
import pytest

from rdsymm.expr import (DomainError, cos_, differentiate, exp_, jet, ker,
                         ln_, powe, rat, sin_, sym)
from rdsymm.numeric import (DPS, Sampler, UnboundSymbol, eval_at, magnitude,
                            to_float)

u, v = jet("u"), jet("v")
t = sym("t")


def test_exact_rational_path():
    e = u * u - 1
    assert eval_at(e, {u: 3}) == Fraction(8)
    assert isinstance(eval_at(e, {u: Fraction(1, 2)}), Fraction)


def test_spec_examples():
    e = exp_(sym("nu") * v / u)
    val = eval_at(e, {sym("nu"): 1, u: 1, v: 0})
    assert magnitude(val - 1) < 1e-50
    delta = rat(1, 4) * (sym("mu") - sym("nu")) ** rat(2) + sym("lam") * sym("sig")
    assert eval_at(delta, {sym("mu"): 3, sym("nu"): 1,
                           sym("lam"): 1, sym("sig"): -1}) == 0


def test_high_precision_bound():
    e = exp_(rat(1)) * exp_(rat(-1))
    val = eval_at(e, {})
    assert magnitude(val - 1) < 1e-30


def test_integer_power_of_negative_mpf():
    val = eval_at(sin_(t) ** 2, {t: -1})
    with mpmath.workdps(DPS):
        assert abs(val - mpmath.sin(1) ** 2) < 1e-50


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_at(ln_(u), {u: Fraction(-1)})
    with pytest.raises(DomainError):
        eval_at(powe(u, rat(-1)), {u: 0})
    with pytest.raises(UnboundSymbol):
        eval_at(u + v, {u: 1})


def test_finite_difference_consistency():
    # spec invariant: derivative agrees with central differences to 1e-6
    rng = random.Random(3)
    exprs = [u * u * v + sin_(u), exp_(u / 2) * v, ln_(u + 3) + cos_(v),
             powe(u, rat(5, 2))]
    h = Fraction(1, 10 ** 6)
    for e in exprs:
        de = differentiate(e, u)
        for _ in range(5):
            pt = {u: Fraction(rng.randint(1, 8), rng.randint(1, 3)),
                  v: Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
            up = dict(pt); up[u] = pt[u] + h
            dn = dict(pt); dn[u] = pt[u] - h
            fd = (to_float(eval_at(e, up)) - to_float(eval_at(e, dn))) / (2 * float(h))
            exact = to_float(eval_at(de, pt))
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) / scale < 1e-6


def test_magnitude_beyond_float_range_is_inf():
    assert magnitude(Fraction(10) ** 400) == float("inf")
    assert magnitude(-Fraction(10) ** 400) == float("inf")
    assert magnitude(mpmath.mpf(10) ** 400) == float("inf")


def test_integral_powers_are_exact_only_while_the_result_stays_small():
    # 2^(10^6) has a million bits: the mpmath power takes over
    val = eval_at(powe(u, rat(10 ** 6)), {u: 2})
    assert isinstance(val, mpmath.mpf)
    with mpmath.workdps(DPS):
        assert val == mpmath.power(2, 10 ** 6)
    assert eval_at(powe(t * t + 2, rat(5000)), {t: Fraction(5, 3)}) == \
        Fraction(43, 9) ** 5000


class _CountingSampler(Sampler):
    def __init__(self, rng):
        super().__init__(rng)
        self.calls = 0

    def __call__(self, *key):
        self.calls += 1
        return super().__call__(*key)


def test_eval_at_evaluates_each_distinct_node_once():
    # e_{k+1} = sin(F(e_k)) + cos(F(e_k)): 2^(depth-1) paths reach F(e_0),
    # yet there is one distinct F node per level
    for depth in (4, 8, 12):
        e = t
        for _ in range(depth):
            f = ker("F", e)
            e = sin_(f) + cos_(f)
        sampler = _CountingSampler(random.Random(0))
        point = sampler.point([t], lambda rng, a: Fraction(1, 2))
        want = eval_at(e, point, kernel_values=sampler)
        assert sampler.calls == depth
        # another expression at the same point reads the point's table
        twice = eval_at(2 * e, point, kernel_values=sampler)
        with mpmath.workdps(DPS):
            assert twice == 2 * want
        assert sampler.calls == depth
        # a one-shot evaluation fills a table of its own
        calls = []
        eval_at(e, dict(point), lambda *key: calls.append(key) or 1)
        assert len(calls) == depth
