"""Tests for exterior algebra signs, Hodge star and index-tuple signs."""

import itertools
import random

import pytest

from weilcoh.exterior import (
    bits_of,
    contract_bits,
    star_bits,
    tuple_of,
    wedge_bits,
)

# the insertion/removal sign is the oracle of the d' identities in test_fock
from test_fock import tuple_sign


def all_indices(n):
    """Every index set inside {1..n}, as a bitmask."""
    for l in range(n + 1):
        for c in itertools.combinations(range(1, n + 1), l):
            yield bits_of(c)


def B(*indices):
    return bits_of(indices)


def test_bits_roundtrip():
    assert tuple_of(bits_of((1, 3, 4))) == (1, 3, 4)
    assert bits_of(()) == 0
    with pytest.raises(ValueError):
        bits_of((3, 1))


def test_wedge_basic():
    assert wedge_bits(B(1), B(2)) == (1, B(1, 2))
    assert wedge_bits(B(2), B(1)) == (-1, B(1, 2))
    assert wedge_bits(B(2), B(1, 3)) == (-1, B(1, 2, 3))
    assert wedge_bits(B(1), B(1, 2)) == (0, 0)


def test_wedge_associative_graded_commutative():
    rng = random.Random(11)
    n = 5
    idx = list(all_indices(n))
    for _ in range(60):
        I, J, K = rng.choice(idx), rng.choice(idx), rng.choice(idx)
        s1, b1 = wedge_bits(I, J)
        left = (0, 0) if not s1 else tuple(
            (s1 * s, b) for s, b in [wedge_bits(b1, K)]
        )[0]
        s2, b2 = wedge_bits(J, K)
        right = (0, 0) if not s2 else tuple(
            (s2 * s, b) for s, b in [wedge_bits(I, b2)]
        )[0]
        assert (left[0], left[0] and left[1]) == (right[0], right[0] and right[1])

        # graded commutativity
        sij, bij = wedge_bits(I, J)
        sji, bji = wedge_bits(J, I)
        sign = (-1) ** (I.bit_count() * J.bit_count())
        assert sij == sign * sji
        if sij:
            assert bij == bji


def test_hodge_star_examples():
    assert star_bits(B(1), 2) == (1, B(2))
    assert star_bits(B(2), 2) == (-1, B(1))
    assert star_bits(B(1, 3), 3) == (-1, B(2))
    assert star_bits(B(), 2) == (1, B(1, 2))


def test_hodge_star_normalization():
    # omega_I ^ *(omega_I) = vol, for every I, n <= 6
    for n in range(1, 7):
        for I in all_indices(n):
            s, comp = star_bits(I, n)
            ws, wb = wedge_bits(I, comp)
            assert ws * s == 1 and wb == (1 << n) - 1


def test_hodge_star_involution_sign():
    for n in range(1, 7):
        for I in all_indices(n):
            s1, once = star_bits(I, n)
            s2, twice = star_bits(once, n)
            l = I.bit_count()
            assert s1 * s2 == (-1) ** (l * (n - l))
            assert twice == I


def test_contract():
    assert contract_bits(1, B(1, 2)) == (1, B(2))
    assert contract_bits(2, B(1, 2)) == (-1, B(1))
    assert contract_bits(3, B(1, 2)) == (0, 0)
    assert contract_bits(3, B(1, 2, 3)) == (1, B(1, 2))


def test_wedge_and_star_identity():
    # omega_alpha ^ *(omega_I) = (-1)^(|I|-1) * (contraction of omega_I)
    for n in range(1, 6):
        for I in all_indices(n):
            m = I.bit_count()
            for alpha in range(1, n + 1):
                ss, comp = star_bits(I, n)
                ws, wb = wedge_bits(1 << (alpha - 1), comp)
                lhs = (ss * ws, wb) if ws else (0, 0)

                cs, cb = contract_bits(alpha, I)
                if cs:
                    s2, comp2 = star_bits(cb, n)
                    rhs = ((-1) ** (m - 1) * cs * s2, comp2)
                else:
                    rhs = (0, 0)
                assert lhs == rhs, (n, tuple_of(I), alpha)


def test_star_commutes_with_reflection():
    # g flips omega_1; * o g = det(g) * g o * on all basis forms
    for n in range(1, 6):
        for I in all_indices(n):
            # lhs = *(g omega_I), rhs = det(g) g(*omega_I), det(g) = -1
            g_sign = -1 if I & 1 else 1
            s, comp = star_bits(I, n)
            lhs = (g_sign * s, comp)
            g_on_star = -1 if comp & 1 else 1
            rhs = ((-1) * g_on_star * s, comp)
            assert lhs == rhs, (n, tuple_of(I))


def test_tuple_sign():
    assert tuple_sign((1, 3), 2, "insert") == (-1, (1, 2, 3))
    assert tuple_sign((1, 3), 1, "insert") == (0, None)
    assert tuple_sign((1, 3), 3, "remove") == (-1, (1,))
    assert tuple_sign((1, 3), 2, "remove") == (0, None)
    with pytest.raises(ValueError):
        tuple_sign((1,), 2, "shuffle")


def test_tuple_sign_insert_remove_inverse():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 6)
        J = tuple(sorted(rng.sample(range(1, k + 1), rng.randint(0, k))))
        i = rng.randint(1, k)
        s, J2 = tuple_sign(J, i, "insert")
        if s:
            s2, J3 = tuple_sign(J2, i, "remove")
            assert J3 == J and s2 == s
