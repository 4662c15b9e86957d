"""Tests for polynomial rings, generators and the so(n) action."""

import gc
import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from test_fock import monomial_weight, packed

import weilcoh.fock as fock
from weilcoh.exterior import bits_of, tuple_of
from weilcoh.fock import Cochain, son_act_cochain
from weilcoh.polyring import (
    FockRing,
    Polynomial,
    Ring,
    SkRing,
    dominant_monomials,
    ideal_piece,
    is_dominant,
    laplacian,
    minor,
    monomials_of_degree,
    pack,
    q_gen,
    r_gen,
    sk_evaluate,
    son_act,
)


# the Fock cubics, the oracle of sk_evaluate on polyring.sk_c_sequence
def c_gen(ring, j):
    """c(j) = sum_i r(i,j) w(i), degree 3."""
    out = ring.zero()
    for i in range(1, ring.k + 1):
        out = out + r_gen(ring, i, j) * ring.w_var(i)
    return out


def compose(self, images):
    """Ring map sending variable i to images[i] (a Polynomial).

    All images must share a common ring; returns the image of self.
    """
    target = images[0].ring
    out = target.zero()
    # cache powers per variable
    powers = [{0: target.one()} for _ in images]
    for e, c in self.terms.items():
        term = target.one().scale(c)
        for i, exp in enumerate(e):
            if exp:
                cache = powers[i]
                top = max(cache)
                while top < exp:
                    cache[top + 1] = cache[top] * images[i]
                    top += 1
                term = term * cache[exp]
        out = out + term
    return out


def random_poly(ring, rng, max_deg=3, nterms=4):
    out = ring.zero()
    for _ in range(nterms):
        term = ring.one().scale(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = term * ring.var(rng.randrange(ring.nvars))
        out = out + term
    return out


def test_arith_basic():
    R = FockRing(1, 1)
    p = R.z_var(1, 1) * R.w_var(1)
    assert len(p.terms) == 1 and p.terms.get((1, 1), 0) == 1

    s = R.z_var(1, 1) + R.w_var(1)
    sq = s * s
    assert sq.terms.get((2, 0), 0) == 1
    assert sq.terms.get((1, 1), 0) == 2
    assert sq.terms.get((0, 2), 0) == 1


def test_arith_r_squared():
    R = FockRing(2, 1)
    p = r_gen(R, 1, 1) * r_gen(R, 1, 1)
    # (z11^2 + z21^2)^2 has 3 terms
    assert len(p.terms) == 3
    assert p.terms.get((2, 2, 0), 0) == 2


def test_ring_mismatch():
    with pytest.raises(ValueError):
        FockRing(1, 1).one() + FockRing(2, 1).one()


def test_partial():
    R = FockRing(1, 1)
    p = R.z_var(1, 1) * R.z_var(1, 1) * R.w_var(1)
    assert p.partial(R.z(1, 1)) == (R.z_var(1, 1) * R.w_var(1)).scale(2)

    R2 = FockRing(1, 2)
    assert not R2.w_var(2).partial(R2.z(1, 1))
    q1 = q_gen(R2, 1)
    assert q1.partial(R2.z(1, 1)).partial(R2.w(1)) == R2.one()


def old_partial(self, vidx):
    """Formal partial derivative with respect to variable vidx (the
    merged form Polynomial.partial had, verbatim but for the name)."""
    items = []
    for e, c in self.terms.items():
        if e[vidx]:
            ne = list(e)
            ne[vidx] -= 1
            items.append((tuple(ne), c * e[vidx]))
    return Polynomial._merge(self.ring, items)


@pytest.mark.parametrize("ring", [FockRing(2, 2), FockRing(3, 1), SkRing(2)],
                         ids=["fock22", "fock31", "sk2"])
def test_partial_matches_the_merged_form(ring):
    # same terms in the same order, for every variable
    rng = random.Random(ring.nvars)
    for _ in range(30):
        p = random_poly(ring, rng, max_deg=4, nterms=8)
        for v in range(ring.nvars):
            got, want = p.partial(v), old_partial(p, v)
            assert list(got.terms.items()) == list(want.terms.items()), (p, v)


def test_monomials_of_degree():
    R = FockRing(1, 1)
    assert len(monomials_of_degree(R, 1)) == 2
    # a negative degree has no monomial, packed or not
    pack_at = partial(pack, bits=3)
    for ring in (R, SkRing(2), Ring(["x", "y"], [2, 3])):
        for d in (-1, -2, -5):
            assert monomials_of_degree(ring, d) == []
            assert dominant_monomials(ring, d) == {}
            assert dominant_monomials(ring, d, pack=pack_at) == {}

    R2 = FockRing(2, 1)
    zvars = range(2)
    ms = monomials_of_degree(R2, 2, zvars)
    assert len(ms) == 3
    assert len(set(ms)) == 3

    S2 = SkRing(2)
    assert len(monomials_of_degree(S2, 2)) == 6
    # weighted degree check
    for e in monomials_of_degree(S2, 3):
        assert S2.monomial_degree(e) == 3


@pytest.mark.parametrize("names,weights", [
    (["x"], [0]),            # a zero weight
    (["x", "y"], [2]),       # fewer weights than names
    (["x"], [1, 2]),         # more weights than names
    (["x"], [-1]),           # a negative weight
])
def test_ring_needs_one_positive_int_weight_per_name(names, weights):
    with pytest.raises(ValueError, match="one positive int weight"):
        Ring(names, weights)


def test_rings_with_valid_weights_construct():
    assert Ring(["x", "y"]).weights == (1, 1)
    assert Ring(["x", "y"], (2, 3)).weights == (2, 3)
    assert Ring([]).nvars == 0
    assert FockRing(2, 3).weights == (1,) * 9
    assert SkRing(2).weights == (2, 2, 2, 1, 1)


def test_monomials_counting_oracle():
    # degree-d monomials in v weight-1 variables number C(d+v-1, d)
    from math import comb

    R = FockRing(3, 2)
    for d in range(5):
        assert len(monomials_of_degree(R, d)) == comb(d + R.nvars - 1, d)


def test_laplacian():
    R = FockRing(1, 1)
    p = R.z_var(1, 1) * R.z_var(1, 1)
    assert laplacian(p, 1, 1) == R.one().scale(2)

    R22 = FockRing(2, 2)
    assert not laplacian(minor(R22, (1, 2), (1, 2)), 1, 2)

    R31 = FockRing(3, 1)
    assert laplacian(r_gen(R31, 1, 1), 1, 1) == R31.one().scale(6)


def test_minors_harmonic_small():
    for n in range(1, 4):
        for k in range(1, 4):
            R = FockRing(n, k)
            import itertools

            for l in range(1, min(n, k) + 1):
                for I in itertools.combinations(range(1, n + 1), l):
                    for J in itertools.combinations(range(1, k + 1), l):
                        f = minor(R, I, J)
                        for i in range(1, k + 1):
                            for j in range(i, k + 1):
                                assert not laplacian(f, i, j), (n, k, I, J)


def test_generators():
    R = FockRing(1, 2)
    q1 = q_gen(R, 1)
    assert q1 == R.z_var(1, 1) * R.w_var(1) + R.z_var(1, 2) * R.w_var(2)

    R22 = FockRing(2, 2)
    m = minor(R22, (1, 2), (1, 2))
    expect = R22.z_var(1, 1) * R22.z_var(2, 2) - R22.z_var(1, 2) * R22.z_var(2, 1)
    assert m == expect

    R11 = FockRing(1, 1)
    c1 = c_gen(R11, 1)
    assert c1 == R11.z_var(1, 1) * R11.z_var(1, 1) * R11.w_var(1)


def test_generator_grading():
    R = FockRing(3, 2)
    for i in range(1, 3):
        for j in range(i, 3):
            g = r_gen(R, i, j)
            assert g.is_homogeneous() and g.degree() == 2
    for a in range(1, 4):
        g = q_gen(R, a)
        assert g.is_homogeneous() and g.degree() == 2
    for j in range(1, 3):
        g = c_gen(R, j)
        assert g.is_homogeneous() and g.degree() == 3
    m = minor(R, (1, 2), (1, 2))
    assert m.is_homogeneous() and m.degree() == 2


def test_sk_evaluate():
    S1 = SkRing(1)
    R21 = FockRing(2, 1)
    p = sk_evaluate(S1.rhat_var(1, 1), R21)
    assert p == r_gen(R21, 1, 1)

    R11 = FockRing(1, 1)
    p = sk_evaluate(S1.what_var(1) * S1.rhat_var(1, 1), R11)
    assert p == c_gen(R11, 1)

    with pytest.raises(ValueError):
        sk_evaluate(S1.what_var(1), FockRing(1, 2))


def test_sk_evaluate_homomorphism():
    rng = random.Random(17)
    S2 = SkRing(2)
    R = FockRing(3, 2)
    for _ in range(5):
        a = random_poly(S2, rng)
        b = random_poly(S2, rng)
        assert sk_evaluate(a + b, R) == sk_evaluate(a, R) + sk_evaluate(b, R)
        assert sk_evaluate(a * b, R) == sk_evaluate(a, R) * sk_evaluate(b, R)


def test_sk_evaluate_matches_compose():
    # the memoized evaluation against the plain ring map, twice over so
    # that the second pass reads the images kept on the ring
    rng = random.Random(23)
    for n, k in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        S, R = SkRing(k), FockRing(n, k)
        images = [r_gen(R, i, j) for i, j in S.pairs]
        images += [R.w_var(i) for i in range(1, k + 1)]
        polys = [random_poly(S, rng, max_deg=4) for _ in range(4)]
        for _ in range(2):
            for p in polys:
                assert sk_evaluate(p, R) == compose(p, images)


def test_sk_evaluate_preserves_degree():
    S2 = SkRing(2)
    R = FockRing(3, 2)
    p = S2.rhat_var(1, 2) * S2.what_var(1)
    assert p.degree() == 3
    assert sk_evaluate(p, R).degree() == 3


def test_son_act_basics():
    R = FockRing(2, 1)
    assert not son_act(1, 2, r_gen(R, 1, 1))
    assert son_act(1, 2, R.z_var(1, 1)) == R.z_var(2, 1)
    assert son_act(1, 2, R.z_var(2, 1)) == -R.z_var(1, 1)
    with pytest.raises(ValueError):
        son_act(2, 1, R.z_var(1, 1))


def test_son_act_q_span():
    R = FockRing(2, 1)
    got = son_act(1, 2, q_gen(R, 1))
    assert got == q_gen(R, 2)
    assert son_act(1, 2, q_gen(R, 2)) == -q_gen(R, 1)


def test_son_act_derivation():
    rng = random.Random(5)
    R = FockRing(3, 2)
    for _ in range(6):
        p = random_poly(R, rng)
        q = random_poly(R, rng)
        a, b = sorted(rng.sample(range(1, 4), 2))
        lhs = son_act(a, b, p * q)
        rhs = son_act(a, b, p) * q + p * son_act(a, b, q)
        assert lhs == rhs


def son_act_oracle(a, b, p):
    """The so(n) generator X_ab acting as the derivation
    sum_i ( z(b,i) d/dz(a,i) - z(a,i) d/dz(b,i) ); w variables fixed."""
    if not a < b:
        raise ValueError("need a < b")
    ring = p.ring
    out = ring.zero()
    for i in range(1, ring.k + 1):
        out = out + ring.z_var(b, i) * p.partial(ring.z(a, i))
        out = out - ring.z_var(a, i) * p.partial(ring.z(b, i))
    return out


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3)])
def test_son_act_matches_the_product_form(n, k):
    # son_act merges son_act_monomial over the terms; the oracle is the
    # derivation written with Polynomial products
    rng = random.Random(11 * n + k)
    R = FockRing(n, k)
    for _ in range(8):
        p = random_poly(R, rng, max_deg=4, nterms=6)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                assert son_act(a, b, p) == son_act_oracle(a, b, p), (a, b)


def rotate_oracle(a, b, bits):
    """X_ab on omega_I with X.omega_a = omega_b, X.omega_b = -omega_a,
    each index replaced in place and the result sorted: {bits: sign}."""
    I = tuple_of(bits)
    out = {}
    for src, dst, sign in ((a, b, 1), (b, a, -1)):
        if src in I and dst not in I:
            J = [dst if x == src else x for x in I]
            inversions = sum(x > y for t, x in enumerate(J) for y in J[t + 1:])
            out[bits_of(sorted(J))] = sign * (-1) ** inversions
    return out


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1)])
def test_gen_act_basis_matches_son_act_cochain(n, k):
    # on every basis cochain omega_I (x) z^e (w's included, degree <= 3),
    # the row of fock._gen_act_basis, packed, equals
    # son_act_cochain(...).to_row(3), and it is the product form of the
    # action plus the in-place rotation of the form indices; a key
    # collision in _gen_act_basis would lose a term that the merged forms
    # keep
    R = FockRing(n, k)
    mons = [e for d in range(4) for e in monomials_of_degree(R, d)]
    for ell in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), ell):
            bits = bits_of(I)
            for e in mons:
                mono = Polynomial(R, {e: 1})
                c = Cochain(R, ell, {bits: mono})
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        want = {(bits, f): v for f, v in
                                son_act_oracle(a, b, mono).terms.items()}
                        for nb, sign in rotate_oracle(a, b, bits).items():
                            want[nb, e] = sign
                        row = fock._gen_act_basis(n, k, a, b, bits, e)
                        assert row == want, (I, e, a, b)
                        assert son_act_cochain(a, b, c).to_row(3) == \
                            packed(R, want, 3)


def test_gen_act_basis_emission_order():
    # per column the z(a,i) shift, then the z(b,i) shift, then the
    # rotation of the form indices: this order numbers the rows of the
    # joint kernel's torus matrices.  FockRing(2, 2) has the index layout
    # z(1,1), z(2,1), z(1,2), z(2,2), w(1), w(2); X_12 on omega_1 (x) e
    e = (1, 1, 1, 0, 0, 1)
    assert list(fock._gen_act_basis(2, 2, 1, 2, 0b01, e).items()) == [
        ((0b01, (0, 2, 1, 0, 0, 1)), 1),
        ((0b01, (2, 0, 1, 0, 0, 1)), -1),
        ((0b01, (1, 1, 0, 1, 0, 1)), 1),
        ((0b10, e), 1),
    ]


def test_son_act_kills_all_r():
    R = FockRing(4, 3)
    for a in range(1, 5):
        for b in range(a + 1, 5):
            for i in range(1, 4):
                for j in range(i, 4):
                    assert not son_act(a, b, r_gen(R, i, j))


def test_equivariance_rational_rotation():
    # g = [[3/5,-4/5],[4/5,3/5]] acting on the rows of the z-matrix;
    # f |-> f(g^{-1} Z), taken through the integer matrix 5 g^{-1} so that
    # a z-homogeneous f of degree d maps to 5^d f(g^{-1} Z).  r is fixed
    # (g orthogonal), the 1x1 minors mix by the matrix of g^{-1}, and the
    # top minor is fixed (det g = 1).
    R = FockRing(2, 2)
    g5 = [[3, -4], [4, 3]]  # 5 g
    ginv5 = [[g5[0][0], g5[1][0]], [g5[0][1], g5[1][1]]]  # inverse = transpose
    images = []
    for i in range(1, 3):
        for a in range(1, 3):
            img = R.zero()
            for b in range(1, 3):
                img = img + R.z_var(b, i).scale(ginv5[a - 1][b - 1])
            images.append(img)
    images += [R.w_var(1), R.w_var(2)]

    for i in range(1, 3):
        for j in range(i, 3):
            r = r_gen(R, i, j)
            assert compose(r, images) == r.scale(5 ** 2)

    for j in range(1, 3):
        for a in range(1, 3):
            got = compose(minor(R, (a,), (j,)), images)
            expect = R.zero()
            for b in range(1, 3):
                expect = expect + minor(R, (b,), (j,)).scale(ginv5[a - 1][b - 1])
            assert got == expect

    top = minor(R, (1, 2), (1, 2))
    assert compose(top, images) == top.scale(5 ** 2)


def test_minor_index_validation():
    R = FockRing(2, 2)
    with pytest.raises(ValueError):
        minor(R, (2, 1), (1, 2))
    with pytest.raises(ValueError):
        minor(R, (1,), (1, 2))
    with pytest.raises(ValueError):
        minor(R, (1, 3), (1, 2))
    with pytest.raises(ValueError, match="column indices out of range"):
        minor(R, (1, 2), (1, 3))


def test_scale_rejects_non_int_scalars():
    R = FockRing(1, 1)
    x = R.var(0)
    for c in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x.scale(c)
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * x
    assert type(x.scale(3).terms.get((1, 0), 0)) is int
    assert (3 * x) == (x * 3) == x.scale(3)


def test_monomials_of_degree_leaves_no_cycle():
    # the enumeration must free its lists by reference counting alone
    gc.collect()
    gc.disable()
    try:
        monomials_of_degree(FockRing(2, 2), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dominant_monomials_leaves_no_cycle():
    gc.collect()
    gc.disable()
    try:
        dominant_monomials(FockRing(2, 2), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def dominant_blocks(ring, d, varset=None):
    """The dominant-weight blocks of monomials_of_degree, by filtering."""
    out = {}
    for m in monomials_of_degree(ring, d, varset):
        mu = ring.weight(m)
        if is_dominant(mu):
            out.setdefault(mu, []).append(m)
    return out


@pytest.mark.parametrize("ring", [
    FockRing(1, 1), FockRing(2, 2), FockRing(3, 3), FockRing(2, 4),
    FockRing(4, 2), FockRing(1, 3), SkRing(2), SkRing(3),
    Ring(["x", "y", "z"], [1, 2, 1]),
], ids=["fock11", "fock22", "fock33", "fock24", "fock42", "fock13", "sk2",
        "sk3", "x1y2z1"])
def test_dominant_monomials_are_the_dominant_blocks(ring):
    # same weights in the same order, and each block in monomial order
    for d in range(-1, 7):
        got = dominant_monomials(ring, d)
        assert list(got.items()) == list(dominant_blocks(ring, d).items())


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 3), (4, 3), (2, 4)])
def test_dominant_z_monomials_are_the_dominant_z_blocks(n, k):
    # on the z variables alone: the blocks whose monomials hold no w,
    # in the same order, each in monomial order
    ring = FockRing(n, k)
    z = range(n * k)
    for d in range(-1, 6):
        got = dominant_monomials(ring, d, z)
        assert list(got.items()) == list(dominant_blocks(ring, d, z).items())
        assert got == {mu: mons for mu, mons in dominant_monomials(
            ring, d).items() if sum(mu) == d}


def test_sk_evaluate_memo_leaves_no_cycle():
    # the images kept on the ring are plain term dicts: a ring and its
    # memo must be freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        S, R = SkRing(2), FockRing(2, 2)
        for p in (S.rhat_var(1, 2) * S.rhat_var(1, 1), S.what_var(2),
                  S.rhat_var(2, 2) * S.rhat_var(1, 2) * S.what_var(1)):
            assert sk_evaluate(p, R)
        assert R._rhat_images
        del S, R, p
        assert gc.collect() == 0
    finally:
        gc.enable()


def act(swap, p):
    """The image of p under a column transposition of its ring."""
    return Polynomial(p.ring, {tuple(e[v] for v in swap): c
                               for e, c in p.terms.items()})


@pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (3, 2)])
def test_ring_weights_agree_with_the_evaluation(n, k):
    # FockRing.weight is the column degree minus the w degree, and
    # SkRing.weight is the Fock weight of every monomial of the image
    R, S = FockRing(n, k), SkRing(k)
    for e in monomials_of_degree(R, 2):
        assert R.weight(e) == monomial_weight(R, e)
    for d in range(4):
        for expo in monomials_of_degree(S, d):
            image = sk_evaluate(Polynomial(S, {expo: 1}), R)
            assert {R.weight(e) for e in image.terms} == {S.weight(expo)}


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 3)])
def test_column_swaps_are_the_adjacent_transpositions(n, k):
    # the swap (j j+1) of each ring permutes the columns of the generators
    # and commutes with sk_evaluate; q is fixed, r(i,l) and c(i) move
    R, S = FockRing(n, k), SkRing(k)
    assert len(R.column_swaps) == len(S.column_swaps) == k - 1
    for j, (fswap, sswap) in enumerate(zip(R.column_swaps, S.column_swaps),
                                       start=1):
        tau = {j: j + 1, j + 1: j}
        for a in range(1, n + 1):
            assert act(fswap, q_gen(R, a)) == q_gen(R, a)
        for i in range(1, k + 1):
            ti = tau.get(i, i)
            assert act(fswap, R.w_var(i)) == R.w_var(ti)
            assert act(fswap, c_gen(R, i)) == c_gen(R, ti)
            for l in range(i, k + 1):
                assert act(fswap, r_gen(R, i, l)) == \
                    r_gen(R, ti, tau.get(l, l))
        for d in range(4):
            for expo in monomials_of_degree(S, d):
                m = Polynomial(S, {expo: 1})
                assert sk_evaluate(act(sswap, m), R) == \
                    act(fswap, sk_evaluate(m, R))
                assert S.weight(act(sswap, m).terms.popitem()[0]) == \
                    tuple(S.weight(expo)[tau.get(i, i) - 1]
                          for i in range(1, k + 1))


def test_generic_ring_has_no_columns():
    R = Ring(["x", "y"], [2, 3])
    assert R.column_swaps == ()
    assert R.weight((4, 1)) == ()


def test_ideal_piece_is_the_products():
    # the rows by exponent shift are the products m * f
    R = FockRing(2, 2)
    gens = [q_gen(R, 1), c_gen(R, 2)]
    for t in range(5):
        got = ideal_piece(R, gens, t)
        want = [Polynomial(R, {e: 1}) * f for f in gens
                for e in monomials_of_degree(R, t - f.degree())]
        assert got == want
