import random
from fractions import Fraction

import pytest

import rdsymm.nmatrix as nm
from rdsymm.equality import EQUAL, decide_equivalence
from rdsymm.expr import ONE, ZERO, exp_, is_zero, jet, rat, sym
from rdsymm.fields import commutator, named_operator
from rdsymm.nmatrix import (CaseSplitNeeded, algebra_catalog, as_nmatrix,
                            canonical_form, closure_check, conjugate,
                            drift_algebra, fundamental_pair, g1, g2, g2_tilde,
                            g3, g4, g5, g6, mat_commutator, mat_mul, nmatrix,
                            pair_residuals, realize, realized_basis,
                            realized_two_dim, wronskian_at_zero)
from rdsymm.transforms import InapplicableTransform, LinearEquiv

u, v = jet("u"), jet("v")


def _nm_eq(m1, m2):
    return all(bool(decide_equivalence(a, b)) for a, b in
               [(m1.nu1, m2.nu1), (m1.nu2, m2.nu2),
                (m1.mu1, m2.mu1), (m1.mu2, m2.mu2)])


def _rand_nmatrix(rng):
    return nmatrix(*[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(4)])


def _rand_umatrix(rng):
    return LinearEquiv(b1=rat(rng.randint(-4, 4)), b2=rat(rng.randint(-4, 4)),
                       K1=rat(rng.choice([1, 2, 3, -1, -2])),
                       K2=rat(rng.randint(-4, 4)))


def test_umatrix_inverse_exact():
    un = LinearEquiv(b1=rat(1), b2=rat(-2), K1=rat(3), K2=rat(4))
    prod = mat_mul(un.matrix(), un.inverse().matrix())
    for i in range(3):
        for j in range(3):
            expect = rat(1) if i == j else ZERO
            assert bool(decide_equivalence(prod[i][j], expect))


def test_conjugation_identity_and_pattern():
    g = nmatrix(2, 3, 5, 7)
    assert _nm_eq(conjugate(g, LinearEquiv()), g)
    gc = conjugate(g, LinearEquiv(b1=rat(1), b2=rat(2), K1=rat(2),
                                  K2=rat(-1)))
    # pattern checked inside as_nmatrix; diagonal invariants preserved
    assert gc.mu1 == rat(5) and gc.mu2 == rat(7)


def test_a_degenerate_linear_equivalence():
    """A zero K1 or lam has no inverse; conjugation inverts only U, where
    lam plays no part, so lam = 0 conjugates as lam = 1 does."""
    for L in (LinearEquiv(K1=ZERO), LinearEquiv(lam=ZERO)):
        with pytest.raises(InapplicableTransform, match="not invertible"):
            L.inverse()
    with pytest.raises(ValueError, match="K1 != 0"):
        conjugate(g1(), LinearEquiv(K1=ZERO))
    g = nmatrix(2, 3, 5, 7)
    L = dict(b1=rat(1), b2=rat(2), K1=rat(2), K2=rat(-1))
    assert (conjugate(g, LinearEquiv(**L, lam=ZERO)).matrix()
            == conjugate(g, LinearEquiv(**L)).matrix())


def test_conjugation_matrix_multiply_oracle():
    # direct 3x3 Fraction multiply, independent of the Expr machinery
    def to_f(mat):
        return [[Fraction(int(e.value)) if e.value.denominator == 1 else e.value
                 for e in row] for row in
                [[c for c in r] for r in mat]]

    g = nmatrix(1, -2, 3, 4)
    un = LinearEquiv(b1=rat(2), b2=rat(-1), K1=rat(2), K2=rat(3))
    got = conjugate(g, un).matrix()

    gm = [[Fraction(0), Fraction(0), Fraction(0)],
          [Fraction(1), Fraction(3), Fraction(0)],
          [Fraction(-2), Fraction(4), Fraction(3)]]
    um = [[Fraction(1), Fraction(0), Fraction(0)],
          [Fraction(2), Fraction(2), Fraction(0)],
          [Fraction(-1), Fraction(3), Fraction(2)]]
    uinv = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(-1), Fraction(1, 2), Fraction(0)],
            [Fraction(2), Fraction(-3, 4), Fraction(1, 2)]]

    def mm(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    expect = mm(mm(um, gm), uinv)
    for i in range(3):
        for j in range(3):
            gv = got[i][j]
            assert gv.value == expect[i][j]


def test_shear_kills_second_component():
    # g with nu1 = lam != 0, mu = 0: shear K2 = -K1*nu2/nu1 zeroes nu2
    lamv = rat(3)
    g = g2(lamv)          # nu1 = 3, nu2 = 1
    un = LinearEquiv(K1=rat(1), K2=rat(-1, 3))
    gc = conjugate(g, un)
    assert is_zero(gc.nu2) and gc.nu1 == rat(3)


def test_group_action_composition():
    rng = random.Random(11)
    for _ in range(20):
        g = _rand_nmatrix(rng)
        u1 = _rand_umatrix(rng)
        u2 = _rand_umatrix(rng)
        lhs = conjugate(conjugate(g, u1), u2)
        big = mat_mul(u2.matrix(), u1.matrix())
        u21 = LinearEquiv(b1=big[1][0], b2=big[2][0], K1=big[1][1],
                          K2=big[2][1])
        assert _nm_eq(lhs, conjugate(g, u21))


def test_canonical_examples():
    assert canonical_form(g1()).label == "g1"
    cf = canonical_form(nmatrix(nu2=1))
    assert cf.label == "g2~"
    cf6 = canonical_form(nmatrix(nu1=1, mu2=1))
    assert cf6.label == "g6"
    # decision invariant: g^2 != 0 distinguishes g6 from g5
    sq = mat_mul(nmatrix(nu1=1, mu2=1).matrix(), nmatrix(nu1=1, mu2=1).matrix())
    assert any(not is_zero(e) for row in sq for e in row)
    sq5 = mat_mul(g5().matrix(), g5().matrix())
    assert all(is_zero(e) for row in sq5 for e in row)
    # g2 with lam != 0 collapses onto the g3 orbit (shear + scaling)
    assert canonical_form(g2(rat(5))).label == "g3"
    assert canonical_form(nmatrix()).label == "zero"


def test_orbit_soundness_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        g = _rand_nmatrix(rng)
        cf = canonical_form(g)
        # witness identity: scale * U g U^-1 == canonical, exactly
        got = conjugate(g, cf.witness).scale(cf.scale)
        assert _nm_eq(got, cf.canonical)
        # invariance under random conjugation + scaling
        g2c = conjugate(g, _rand_umatrix(rng)).scale(
            Fraction(rng.choice([1, 2, -1, -3])))
        cf2 = canonical_form(g2c)
        assert cf.label == cf2.label
        if cf.label == "g4":
            assert bool(decide_equivalence(cf.invariant, cf2.invariant))


def test_canonical_idempotent():
    for g in [g1(), g3(), g4(), g5(), g6(), g2_tilde()]:
        cf = canonical_form(g)
        assert _nm_eq(cf.canonical, g)
        assert cf.scale == rat(1)
        assert _nm_eq(conjugate(g, cf.witness), g)


def test_case_split_on_symbolic():
    lam = sym("lam")
    with pytest.raises(CaseSplitNeeded):
        canonical_form(nmatrix(mu1=lam))


def test_realize_examples():
    r1 = realize(g1(), 1)
    assert bool(decide_equivalence(r1.pi1, -u))
    assert bool(decide_equivalence(r1.pi2, -v))
    r5 = realize(g5(), 1)
    assert is_zero(r5.pi1) and bool(decide_equivalence(r5.pi2, -u))
    r3 = realize(g3(), 1)
    assert bool(decide_equivalence(r3.pi1, rat(-1))) and is_zero(r3.pi2)
    assert realize(nmatrix(), 1).is_zero()


def test_realize_bracket_compatibility():
    """Field brackets of the realized basis match the matrix brackets
    (the displayed hat-map alone is an anti-homomorphism; the symmetry
    bases enter with the opposite sign, which restores the constants)."""
    rng = random.Random(5)
    for _ in range(10):
        ga = _rand_nmatrix(rng)
        gb = _rand_nmatrix(rng)
        lhs = commutator(realized_basis(ga, 1), realized_basis(gb, 1))
        rhs = realized_basis(as_nmatrix(mat_commutator(ga.matrix(),
                                                       gb.matrix())), 1)
        assert all(bool(decide_equivalence(x, y))
                   for x, y in zip(lhs.coeffs(), rhs.coeffs()))


ALL_ALGEBRAS = ["A2,1", "A2,2", "A2,3", "A2,4", "A2,5", "A2,13",
                "A3,1", "A3,2", "A3,3", "A3,4", "A4"]


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_catalog_closure_matrix_level(name):
    ap = algebra_catalog(name)
    assert closure_check(ap.basis, ap.brackets)


def test_catalog_spot_constants():
    a31 = algebra_catalog("A3,1")
    assert a31.brackets == {(1, 2): {2: Fraction(1)}, (1, 3): {3: Fraction(1)}}
    a25 = algebra_catalog("A2,5")
    assert a25.brackets == {(1, 2): {2: Fraction(1)}}
    with pytest.raises(KeyError):
        algebra_catalog("A9,9")


def test_fundamental_pairs_three_cases():
    mu = sym("mu")
    cases = [
        ((1, 0, 0, 2), "decoupled"),
        ((0, 1, 0, 0), "nilpotent"),
        ((0, 1, -1, 0), "trigonometric"),
        ((2, 3, 1, -1), "distinct real, irrational"),
        ((1, 1, 1, 1), "distinct real"),
        ((3, 2, 0, 3), "repeated"),
        ((1, 4, -1, 1), "complex"),
        # a symbolic trace with a rational discriminant
        ((mu, 1, -1, mu), "symbolic, complex"),
        ((mu, 2, 2, mu), "symbolic, distinct real"),
        ((mu, 0, 0, mu), "symbolic, repeated"),
    ]
    for args, label in cases:
        fp = fundamental_pair(*args)
        for r in pair_residuals(fp, *args):
            assert decide_equivalence(r, ZERO).verdict == EQUAL, label
        # the columns of exp(At): W(0) = det exp(0)
        assert wronskian_at_zero(fp) is ONE, label


def test_fundamental_pair_case_split_on_a_symbolic_discriminant():
    p = sym("p")
    with pytest.raises(CaseSplitNeeded) as exc:
        fundamental_pair(p, 1, 1, 0)
    (disc,) = exc.value.conditions
    assert bool(decide_equivalence(disc, p * p + 4))


def test_fundamental_pair_examples():
    fp = fundamental_pair(1, 0, 0, 2)
    t = sym("t")
    assert fp.F1 is exp_(t)
    assert is_zero(fp.G1)
    fp2 = fundamental_pair(0, 1, 0, 0)
    assert fp2.F2 == t or fp2.F1 == t  # the nilpotent branch carries t


def test_realized_two_dim_catalogs_close():
    for name in ("A2,1", "A2,2", "A2,3", "A2,5", "A2,13"):
        basis, br = realized_two_dim(name, 1, mu=2, nu=3)
        assert closure_check(basis, br), name
    fp = fundamental_pair(1, 0, 0, 2)
    basis, br = realized_two_dim("A2,4", 1, fundamental=fp)
    assert closure_check(basis, br)
    # the span extends to an algebra with time translations: [P0, X1] = X1
    # for the eigenbasis fundamental pair
    p0 = named_operator("P0", 1)
    c = commutator(p0, basis[0])
    assert bool(decide_equivalence(c.pi1, basis[0].pi1))
    assert bool(decide_equivalence(c.pi2, basis[0].pi2))


def test_drift_algebras_close():
    for name in ("A~1", "A~2", "A~3", "A~4", "A~5", "A~6", "A~7"):
        basis, br = drift_algebra(name, 1, mu=2, nu=3)
        assert closure_check(basis, br), name
    # A~2 as a bare pair is not closed: its bracket leaves the span and
    # needs the dv extension the catalog carries as a third element
    basis, _ = drift_algebra("A~2", 1, nu=3)
    got = commutator(basis[0], basis[1])
    assert bool(decide_equivalence(got.pi2, rat(-1)))
    assert is_zero(got.pi1)


def test_nmatrix_names_the_submodule():
    assert nm.canonical_form is canonical_form
    assert nm.nmatrix is nmatrix
