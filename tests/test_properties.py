"""Property-based checks of the algebraic substrate."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weilcoh.exterior import wedge_bits
from weilcoh.fock import Cochain, diff
from weilcoh.polyring import FockRing, Polynomial

from test_fock import monomial_weight

RING = FockRing(2, 2)


@st.composite
def polynomials(draw, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_exp))
                     for _ in range(RING.nvars))
        coeff = Fraction(draw(st.integers(-3, 3)))
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


@settings(deadline=None, max_examples=60)
@given(polynomials())
def test_graded_parts_sum_to_whole(p):
    total = Polynomial(RING, {})
    for d in range(p.degree() + 1 if p else 1):
        total = total + p.graded_part(d)
    assert total == p


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
@given(monomial_cochains(), st.sampled_from(["full", "d2", "dm2", "graded"]))
def test_diff_preserves_torus_weight(c, mode):
    ring = c.ring
    (p,) = c.parts.values()
    (mu,) = {monomial_weight(ring, e) for e in p.terms}
    for q in diff(c, mode).parts.values():
        assert {monomial_weight(ring, e) for e in q.terms} == {mu}
