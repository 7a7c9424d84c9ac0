import gc
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from rdsymm.expr import (Add, DomainError, Expr, ExprError, Jet, Ker, Mul, ONE,
                         Rat, Sym, ZERO, cos_, differentiate, exp_,
                         free_symbols, is_positive, jet, ker, ln_, powe, rat,
                         sin_, sym)
from rdsymm.equality import DIFFERENT, decide_equivalence
from rdsymm.numeric import (DPS, _EXACT_POWER_BITS, Program, Sampler,
                            UnboundSymbol, _add, _exact, _fraction_of, _mul,
                            _power, _qadd, _qmul, _sign, eval_at, magnitude,
                            random_fraction, to_float)
from rdsymm.corpus import load_rows
from rdsymm.fields import Generator
from rdsymm.systems import is_symmetry, triangular
from rdsymm import verify
from rdsymm.verify import instantiate_row, numeric_residual_check, verify_row

u, v = jet("u"), jet("v")
t = sym("t")


def test_exact_rational_path():
    e = u * u - 1
    assert eval_at(e, {u: 3}) == Fraction(8)
    assert isinstance(eval_at(e, {u: Fraction(1, 2)}), Fraction)


def test_an_exact_result_over_integers_is_a_fraction():
    # every node holds an int: the coefficient 3, the exponent 2, the value 5
    got = eval_at(3 * u ** 2 + 5, {u: 2})
    assert type(got) is Fraction and got == 17
    assert type(eval_at(rat(4), {})) is Fraction
    # an int to a negative power stays exact
    got = eval_at(u ** -2, {u: 3})
    assert type(got) is Fraction and got == Fraction(1, 9)


def test_the_core_leaves_no_cyclic_garbage():
    """Building, evaluating and dropping expressions frees everything by
    reference counting: no walker leaves a reference cycle behind for the
    cyclic collector, which is why a derivation block may pause it.  Every
    non-blocked row runs in both modes at seed 0, as ``run_suite`` runs it;
    the failing rows reach the failure report and the numeric layer."""
    rows = {r.key: r for r in load_rows()}
    gc.collect()
    gc.disable()
    try:
        statuses = {verify_row(r, seeds=(0, 1, 2)).status
                    for r in rows.values() if r.status != "blocked"}
        assert "fail" in statuses
        ci = instantiate_row(rows["T9.1"], 0, 2, "witness").claims[0]
        numeric_residual_check(ci.system, ci.generator, points=5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_suite_run_leaves_no_cyclic_garbage(monkeypatch):
    """``run_suite`` pauses the collector for the whole suite, loading and
    the gaps between rows included, which is sound only if a collection
    after it frees nothing: no collection starts before the suite's last
    check ends, and none is needed after it."""
    events = []
    check = verify.is_symmetry

    def checking(*args, **kw):
        out = check(*args, **kw)
        events.append("check")
        return out

    def collecting(phase, info):
        if phase == "start":
            events.append("collection")

    monkeypatch.setattr(verify, "is_symmetry", checking)
    gc.collect()
    gc.callbacks.append(collecting)
    try:
        report = verify.run_suite(tables=[2, 3, 9], seed=0)
    finally:
        gc.callbacks.remove(collecting)
    assert report.counts["fail"] and "check" in events
    last_check = len(events) - events[::-1].index("check")
    assert "collection" not in events[:last_check]
    assert gc.collect() == 0


def test_a_residual_check_of_no_points_is_refused():
    ci = instantiate_row({r.key: r for r in load_rows()}["T9.1"], 0, 2,
                         "witness").claims[0]
    for points in (0, -1):
        with pytest.raises(ValueError):
            numeric_residual_check(ci.system, ci.generator, points=points)


def test_both_numeric_layers_draw_exactly_the_program_atoms(monkeypatch):
    drawn, ran = [], []
    point, run = Sampler.point, Program.run

    def recording_point(self, atoms, *span):
        drawn.append(list(atoms))
        return point(self, atoms, *span)

    def recording_run(self, at, *kernel_values):
        ran.append((self.atoms, list(at)))
        return run(self, at, *kernel_values)

    monkeypatch.setattr(Sampler, "point", recording_point)
    monkeypatch.setattr(Program, "run", recording_run)
    rows = {r.key: r for r in load_rows()}
    ci = instantiate_row(rows["T9.1"], 0, 2, "witness").claims[0]
    for check in (lambda: verify_row(rows["T4.3"], m_values=(1,)),
                  lambda: numeric_residual_check(ci.system, ci.generator,
                                                 points=5)):
        drawn.clear()
        ran.clear()
        check()
        assert ran and [atoms for atoms, _ in ran] == drawn
        assert all(atoms == at for atoms, at in ran)


# u_t = u_xx + uv, v_t = u_xx + v_xx + u; X = -u_t d_u: the replacement of
# u_tt mentions v_t, which no raw residual of X carries
_CROSSCHECKED = triangular(1, 1, u * v, u)


@pytest.mark.parametrize("pi2, want",
                         [(ZERO, "fails"), (jet("v", 1), "holds")],
                         ids=["u_t_alone", "time_translation"])
def test_a_residual_check_agrees_on_a_t_jet_in_a_coefficient(monkeypatch,
                                                             pi2, want):
    point = Sampler.point

    def no_t_jet(self, atoms, *span):
        # every t-jet is replaced through the system, never drawn
        assert not any(isinstance(a, Jet) and a.nt for a in atoms)
        return point(self, atoms, *span)

    monkeypatch.setattr(Sampler, "point", no_t_jet)
    x = Generator(ZERO, (ZERO,), jet("u", 1), pi2)
    ok, worst = numeric_residual_check(_CROSSCHECKED, x)
    assert is_symmetry(_CROSSCHECKED, x).verdict == want
    assert ok == (want == "holds")
    assert (worst == 0) == ok


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


# u, v, t, x_i, parameters and jets of order 1 and 2
SAMPLED_ATOMS = [u, v, t, sym("x1"), sym("x2"), sym("mu"), jet("u", 1),
                 jet("v", 0, (1,)), jet("u", 2), jet("v", 1, (2,)),
                 jet("u", 0, (1, 2))]


# the spans of numeric_residual_check, then the default span
SPANS = [{"nums": (2, 5), "dens": (2, 5)}, {"nums": (5, 8), "dens": (5, 8)},
         {}]


@pytest.mark.parametrize("span", SPANS)
def test_random_fraction_draws_randints_stream(span):
    nums, dens = span.get("nums", (1, 6)), span.get("dens", (1, 3))
    for seed in range(256):
        rng, ref = random.Random(seed), random.Random(seed)
        for positive in (False, True, False):
            num, den = ref.randint(*nums), ref.randint(*dens)
            if not positive and ref.random() < 0.5:
                num = -num
            assert random_fraction(rng, positive, **span) == \
                Fraction(num, den)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("span", [{}, {"nums": (2, 5), "dens": (2, 5)}])
def test_the_sampler_draws_the_declared_domain(span):
    negative = set()
    for seed in range(64):
        point = Sampler(random.Random(seed)).point(SAMPLED_ATOMS, **span)
        rng = random.Random(seed)
        assert list(point.items()) == [
            (a, random_fraction(rng, is_positive(a), **span))
            for a in SAMPLED_ATOMS]
        assert all(point[a] > 0 for a in SAMPLED_ATOMS if is_positive(a))
        negative |= {a for a, val in point.items() if val < 0}
    assert negative == {a for a in SAMPLED_ATOMS if not is_positive(a)}
    assert {u, v} == set(SAMPLED_ATOMS) - negative


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
        program = Program([e, 2 * e])
        for _ in range(2):
            # the second root reads the first one's slots; a second point
            # starts afresh
            point = sampler.point([t])
            before = sampler.calls
            want, twice = program.run(point, sampler)
            assert sampler.calls - before == depth
            with mpmath.workdps(DPS):
                assert twice == 2 * want
        # a one-shot evaluation is a program of its own
        calls = []
        eval_at(e, dict(point), lambda *key: calls.append(key) or 1)
        assert len(calls) == depth


def test_a_program_binds_every_atom_before_it_runs():
    # the walk reaches F(u) before v, yet the missing v is refused before
    # any kernel value is drawn
    calls = []
    program = Program([ker("F", u), ker("F", u) * v + 1])
    assert program.atoms == [u, v]
    run = program.run({u: 1}, lambda *key: calls.append(key) or 2)
    with pytest.raises(UnboundSymbol) as got:
        next(run)
    assert got.value.atom == v and calls == []
    # an atom that a define supplies is read by the expressions after it:
    # a point binds only the rest, and the define's value comes first
    program = Program([3 * v], {v: u + 1})
    assert program.atoms == [u]
    assert list(program.run({u: 1})) == [2, 6]


def test_eval_at_input_contract():
    third = mpmath.mpf(1) / 3          # 53 bits, the default precision
    got = eval_at(u * v + t, {u: 2, v: Fraction(1, 2), t: third})
    with mpmath.workdps(DPS):
        assert got == 1 + third
    # a float is taken exactly, and the arithmetic on it runs at DPS digits
    assert eval_at(u, {u: 0.1}) == mpmath.mpf(0.1)
    got = eval_at(3 * u, {u: 0.1})
    assert isinstance(got, mpmath.mpf)
    with mpmath.workdps(DPS):
        assert got == 3 * mpmath.mpf(0.1)
    # kernel_values may return an int: it is exact, also under a power
    f = ker("F", u)
    got = eval_at(2 * f + powe(f, rat(-1)), {u: 1}, lambda *key: 3)
    assert type(got) is Fraction and got == Fraction(19, 3)


def _reference_power(b, x):
    if isinstance(x, Fraction) and x.denominator == 1:
        if b == 0 and x <= 0:
            raise DomainError("0 to a non-positive power")
        n = int(x)
        if isinstance(b, Fraction) and abs(n) * max(
                b.numerator.bit_length(),
                b.denominator.bit_length()) > _EXACT_POWER_BITS:
            return mpmath.power(b, n)
        return b ** n
    if b < 0:
        raise DomainError("fractional power of negative value")
    if b == 0:
        if x > 0:
            return b * x
        raise DomainError("0 to a non-positive power")
    return mpmath.power(b, x)


def _reference_eval(e, point, kernel_values):
    """eval_at written with Python's operators on Fractions and mpfs under
    ``mpmath.workdps(DPS)``: the rounding that ``eval_at`` must reproduce
    bit for bit."""
    def ev(n):
        if isinstance(n, Rat):
            return Fraction(n.value)
        if isinstance(n, (Sym, Jet)):
            val = point.get(n)
            if val is None:
                raise UnboundSymbol(n)
            return Fraction(val) if isinstance(val, int) else val
        if isinstance(n, Ker):
            args = [ev(a) for a in n.args]
            if n.name == "exp":
                return mpmath.exp(args[0])
            if n.name == "ln":
                if args[0] <= 0:
                    raise DomainError("ln of non-positive value")
                return mpmath.log(args[0])
            if n.name == "sin":
                return mpmath.sin(args[0])
            if n.name == "cos":
                return mpmath.cos(args[0])
            if all(isinstance(a, Fraction) for a in args):
                key = tuple(args)
            else:
                key = tuple(mpmath.nstr(mpmath.mpmathify(a), 40)
                            for a in args)
            return kernel_values(n.name, n.dvec, key)
        if isinstance(n, Mul):
            acc = Fraction(n.coeff)
            for b, x in n.pairs:
                acc = acc * (ev(b) if x is ONE
                             else _reference_power(ev(b), ev(x)))
            return acc
        if isinstance(n, Add):
            return sum((ev(t) for t in n.terms), Fraction(0))
        raise TypeError(n)

    with mpmath.workdps(DPS):
        return ev(e)


def _kernel_table(name, dvec, args):
    """One fixed Fraction per (kernel, derivative, argument-values) key,
    whatever order the keys come in."""
    return random_fraction(random.Random(repr((name, dvec, args))))


def _mpf(num, den, dps):
    with mpmath.workdps(dps):
        return mpmath.mpf(num) / den


# denominators 3 and 7 are not powers of two, so that the conversion of a
# rational that meets an mpf has to round
_fractions = st.builds(Fraction, st.integers(-7, 7),
                       st.sampled_from([1, 3, 7]))
_values = st.one_of(
    st.integers(-3, 3), _fractions,
    st.builds(_mpf, st.integers(-7, 7), st.sampled_from([3, 7]),
              st.sampled_from([15, DPS, 80])))
_consts = st.builds(Fraction, st.integers(-5, 5),
                    st.sampled_from([1, 2, 3, 7]))
_exponents = st.sampled_from([2, 3, -1, -2, Fraction(1, 2), Fraction(3, 2),
                              Fraction(-1, 3), Fraction(2, 7)])


def _built(make, *parts):
    """make's expression of the drawn parts, where construction itself does
    not raise."""
    def build(drawn):
        try:
            return make(*drawn)
        except (DomainError, ExprError):
            return None
    return st.tuples(*parts).map(build).filter(lambda e: e is not None)


_leaves = st.one_of(st.sampled_from([u, v, t]), _consts.map(rat))
# the arguments of exp, ln, sin, cos and of a power's symbolic exponent:
# nested exponentials of unbounded arguments could outgrow any precision
_small = st.one_of(_leaves, _built(lambda c, a, b: c * a + b,
                                   _consts, _leaves, _leaves))


def _compound(sub):
    return st.one_of(
        _built(lambda a, b: a + b, sub, sub),
        _built(lambda c, a, b: c * a * b, _consts, sub, sub),
        _built(lambda a, x: powe(a, rat(x)), sub, _exponents),
        _built(lambda a, b: powe(a, sin_(b)), sub, _small),
        *(_built(fn, _small) for fn in (exp_, ln_, sin_, cos_)),
        _built(lambda a: ker("F", a), sub),
        _built(lambda a: ker("F", a, dvec=(1,)), sub),
        _built(lambda a, b: ker("G", a, b), sub, sub))


_exprs = st.recursive(_leaves, _compound, max_leaves=10)


# powers near _EXACT_POWER_BITS: of an exact base, exact below it (u = 3:
# 100000 bits) and in libmp beyond it (u = 7: 150000 bits); of an inexact base
_big_powers = st.sampled_from([
    powe(u, rat(50000)), powe(v, rat(-50000)),
    powe(sin_(t) + 2, rat(50000)), rat(0)])


@settings(max_examples=300, deadline=None)
@given(_exprs, _big_powers, st.fixed_dictionaries(
    {u: _values, v: _values, t: _values}))
@example(rat(1, 3) * exp_(u), rat(0), {u: Fraction(1, 3), v: 1, t: 1})
@example(exp_(u) + rat(1, 3), rat(0), {u: 1, v: 1, t: 1})
# the coefficient 1 times an 80-digit u rounds u to DPS digits before v
# multiplies it; skipping that product would round only once
@example(u * v, rat(0), {u: _mpf(1, 3, 80), v: 7, t: 1})
def test_eval_at_rounds_as_the_operators_do(e, big, point):
    e = e + big
    try:
        want = _reference_eval(e, point, _kernel_table)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            eval_at(e, point, _kernel_table)
        assert type(got.value) is type(exc)
        return
    got = eval_at(e, point, _kernel_table)
    assert type(got) is type(want)
    # an mpf compares by its raw (sign, mantissa, exponent, bits): every bit
    assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)


@settings(max_examples=150, deadline=None)
@given(_exprs, st.lists(st.fixed_dictionaries(
    {u: _values, v: _values, t: _values}), min_size=3, max_size=3))
def test_a_program_carries_nothing_from_one_point_to_the_next(e, points):
    program = Program([e])
    for point in points:
        try:
            want = _reference_eval(e, point, _kernel_table)
        except Exception as exc:
            with pytest.raises(Exception) as got:
                next(program.run(point, _kernel_table))
            assert type(got.value) is type(exc)
            continue
        got = next(program.run(point, _kernel_table))
        assert type(got) is type(want)
        assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)


_U_T, _U_TT = jet("u", 1), jet("u", 2)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exprs, max_size=3),
       st.lists(st.tuples(st.sampled_from([u, v, t, _U_T, sym("w")]),
                          _exprs), max_size=3).map(dict))
# a schedule in order, out of order, and a define that reads its own atom
@example([_U_TT], {_U_T: u * v, _U_TT: _U_T * u})
@example([_U_TT], {_U_TT: _U_T * u, _U_T: u * v})
@example([], {u: u + 1})
def test_a_program_names_the_atoms_a_point_must_bind(roots, defines):
    read = set()
    for atom, e in defines.items():
        # the expressions up to this define read the atom free: no define
        # before them supplies it
        read |= free_symbols(e)
        if atom in read:
            with pytest.raises(ValueError):
                Program(roots, defines)
            return
    read = read.union(*map(free_symbols, roots))
    assert Program(roots, defines).atoms == sorted(read - set(defines),
                                                   key=Expr.key)


# the program's exact form: ints, and reduced pairs of the private type
_exact_values = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 4))).map(_exact)
# the largest exponent of 3 or 1/3 (2 bits) that _power keeps exact
_EDGE = _EXACT_POWER_BITS // 2


def _same(got, want):
    """got, an exact value of a program, is the Fraction want in the
    program's form: an int when integral, else the reduced pair."""
    return type(got) is type(_exact(want)) and got == _exact(want)


@settings(max_examples=500, deadline=None)
@given(_exact_values, _exact_values, st.integers(-8, 8))
@example(0, _exact(Fraction(1, 2)), 0)
@example(0, 0, -1)
@example(0, 0, _EXACT_POWER_BITS)
@example(0, 0, _EXACT_POWER_BITS + 1)
@example(3, 0, _EDGE)
@example(3, 0, _EDGE + 1)
@example(_exact(Fraction(-1, 3)), 0, -_EDGE)
@example(_exact(Fraction(-1, 3)), 0, -_EDGE - 1)
def test_the_exact_helpers_are_fraction_arithmetic(a, b, n):
    fa, fb = _fraction_of(a), _fraction_of(b)
    assert _same(_qadd(a, b), fa + fb) and _same(_add(a, b), fa + fb)
    assert _same(_qmul(a, b), fa * fb) and _same(_mul(a, b), fa * fb)
    assert _sign(a) == (fa > 0) - (fa < 0)
    if fa == 0 and n <= 0:
        with pytest.raises(DomainError):
            _power(a, n, None)
        return
    got = _power(a, n, None)
    bits = max(fa.numerator.bit_length(), fa.denominator.bit_length())
    if abs(n) * bits <= _EXACT_POWER_BITS:
        assert _same(got, fa ** n)
    else:
        assert type(got) is tuple       # a raw mpf, from libmp's power
        with mpmath.workdps(DPS):
            assert got == mpmath.power(fa, n)._mpf_


def _boundary(x):
    return type(x) is Fraction or type(x) is mpmath.mpf


def test_no_internal_value_leaves_the_module():
    half, third = Fraction(1, 2), Fraction(1, 3)
    f = ker("F", u, v)
    roots = [u * v, u + v, 2 * u, powe(u, rat(-2)), rat(3), f * 6,
             exp_(u) + v, powe(f, rat(2)) - u]
    for point in ({u: 2, v: 3}, {u: half, v: 4}, {u: third, v: Fraction(6)}):
        sampler = Sampler(random.Random(0))
        vals = list(Program(roots).run(point, sampler))
        assert len(vals) == len(roots) and all(map(_boundary, vals))
        assert all(_boundary(eval_at(e, point, sampler)) for e in roots)
        # the kernel's arguments were exact: its key holds Fractions
        assert sampler.kernels and all(
            type(a) is Fraction for _, _, args in sampler.kernels
            for a in args)
    point = Sampler(random.Random(0)).point(SAMPLED_ATOMS)
    assert all(type(val) is Fraction for val in point.values())
    for seed in range(8):
        d = decide_equivalence(u * u + f, u * v + f, seed=seed)
        assert d.verdict == DIFFERENT and d.counterexample
        assert all(type(val) is Fraction
                   for val in d.counterexample.values())
