"""Property-based checks of the algebraic substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcoh.exterior import wedge_bits
from weilcoh.fock import Cochain, degree_reader, diff, row_bits
from weilcoh.polyring import FockRing, Polynomial, pack, unpack

from test_fock import monomial_weight, packed, unpacked

RING = FockRing(2, 2)


@st.composite
def polynomials(draw, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_exp))
                     for _ in range(RING.nvars))
        coeff = draw(st.integers(-3, 3))
        if coeff:
            terms[expo] = coeff
    return Polynomial(RING, terms)


@settings(deadline=None, max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (b - b) == a


@settings(deadline=None, max_examples=60)
@given(polynomials(), polynomials(), st.integers(0, 5))
def test_partial_is_a_derivation(a, b, v):
    lhs = (a * b).partial(v)
    rhs = a.partial(v) * b + a * b.partial(v)
    assert lhs == rhs


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_wedge_associative_and_graded_commutative(a, b, c):
    def w(x, y):
        return wedge_bits(x, y)

    sa, ab = w(a, b)
    sb, ba = w(b, a)
    if sa:
        pa, pb = bin(a).count("1"), bin(b).count("1")
        assert ab == ba and sa == sb * (-1) ** (pa * pb)
    else:
        assert sb == 0

    s1, x = w(a, b)
    left = (s1 * w(x, c)[0], w(x, c)[1]) if s1 else (0, 0)
    s2, y = w(b, c)
    right = (s2 * w(a, y)[0], w(a, y)[1]) if s2 else (0, 0)
    if left[0] and right[0]:
        assert left == right
    else:
        assert left[0] == right[0] == 0


@st.composite
def monomial_cochains(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ring = FockRing(n, k)
    bits = draw(st.integers(0, (1 << n) - 1))
    expo = tuple(draw(st.integers(0, 2)) for _ in range(ring.nvars))
    coeff = draw(st.integers(1, 3))
    return Cochain(ring, bits.bit_count(),
                   {bits: Polynomial(ring, {expo: coeff})})


@settings(deadline=None, max_examples=150)
@given(monomial_cochains(), st.sampled_from(["full", "d2", "dm2"]))
def test_diff_preserves_torus_weight(c, mode):
    ring = c.ring
    (p,) = c.parts.values()
    (mu,) = {monomial_weight(ring, e) for e in p.terms}
    for q in diff(c, mode).parts.values():
        assert {monomial_weight(ring, e) for e in q.terms} == {mu}


@pytest.mark.parametrize("D", range(15))
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_row_labels_keep_order_add_and_read_the_degree(D, data):
    # a call of top degree D: every exponent tuple of degree <= D + 2 (a
    # row or its image) under any index set of the ring's forms
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    ring = FockRing(n, k)
    B, N = row_bits(D), ring.nvars

    def pair(top):
        e = [0] * N
        for v in data.draw(st.lists(st.integers(0, N - 1), max_size=top)):
            e[v] += 1
        return data.draw(st.integers(0, (1 << n) - 1)), tuple(e)

    def label(bits, e):
        return bits << B * N | pack(e, B)

    a, b = pair(D + 2), pair(D + 2)
    x, y = label(*a), label(*b)
    # the labels order as the pairs (bits, e), and the bits sit on top
    assert (x < y) == (a < b) and (x == y) == (a == b)
    # unpacking inverts packing
    assert unpack(pack(a[1], B), B, N) == unpack(x, B, N) == a[1]
    # the degree reading is sum(e) up to D + 2
    read = degree_reader(ring, D)
    assert read(x) == sum(a[1]) and read(y) == sum(b[1])
    # a label plus a packed exponent tuple adds with no carry while the
    # degree stays <= D + 2
    _, m = pair(D + 2 - sum(a[1]))
    assert x + pack(m, B) == label(a[0], tuple(map(sum, zip(a[1], m))))


@pytest.mark.parametrize("D", range(15))
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_cochain_rows_round_trip_in_pair_order(D, data):
    # a cochain of a call of top degree D, every term of degree <= D + 2:
    # to_row is the test-side packing of its terms in their order, reads
    # back digit by digit to them, and from_row inverts it; the labels
    # order as the pairs (bits, e); a term of degree D + 3 is refused
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    ring = FockRing(n, k)
    N = ring.nvars
    ell = data.draw(st.integers(0, n))
    forms = [b for b in range(1 << n) if b.bit_count() == ell]

    def expo(degree):
        e = [0] * N
        for v in data.draw(st.lists(st.integers(0, N - 1),
                                    min_size=degree, max_size=degree)):
            e[v] += 1
        return tuple(e)

    terms = [((data.draw(st.sampled_from(forms)),
               expo(data.draw(st.integers(0, D + 2)))),
              data.draw(st.integers(-3, 3)))
             for _ in range(data.draw(st.integers(0, 6)))]
    c = Cochain.from_terms(ring, ell, terms)
    pairs = {(bits, e): v for bits, f in c.parts.items()
             for e, v in f.terms.items()}
    row = c.to_row(D)
    assert list(row.items()) == list(packed(ring, pairs, D).items())
    assert list(unpacked(ring, row, D).items()) == list(pairs.items())
    assert Cochain.from_row(ring, ell, row, D) == c
    assert sorted(row, key=lambda x: unpacked(ring, {x: 1}, D).popitem()) \
        == sorted(row)
    # the top degree D + 2 is taken, D + 3 refused
    top = Cochain(ring, ell, {forms[0]: Polynomial(ring, {expo(D + 2): 1})})
    assert Cochain.from_row(ring, ell, top.to_row(D), D) == top
    with pytest.raises(ValueError, match="above a row of top degree"):
        (c + Cochain(ring, ell, {forms[-1]: Polynomial(
            ring, {expo(D + 3): 1})})).to_row(D)
