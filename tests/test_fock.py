"""Tests for the cochain complex: differentials, named cochains,
involutions, the so(n) action, invariants and direct cohomology."""

import itertools
import random
from fractions import Fraction

import pytest

from weilcoh.exterior import bits_of
from weilcoh.fock import (
    Cochain,
    Phi_J,
    diff,
    direct_cohomology_dims,
    invariant_dim,
    invariant_family,
    involution,
    named_cochain,
    outer_product,
    phi1,
    phik,
    pm_basis_vectors,
    son_act_cochain,
    split_pm,
    star_Phi_J,
)
from weilcoh.linalg import rank_of_rows
from weilcoh.polyring import (
    FockRing,
    SkRing,
    c_gen,
    monomials_of_degree,
    q_gen,
    r_gen,
    sk_evaluate,
    son_act,
)


def tuple_sign(J, i, mode):
    """Insertion/removal sign for index tuples inside {1..k}.

    insert: (0, None) if i in J, else ((-1)^{J(i)}, sorted J + {i}).
    remove: (0, None) if i not in J, else ((-1)^{J(i)}, J - {i}).
    J(i) is the number of elements of J less than i.
    """
    J = tuple(J)
    below = sum(1 for j in J if j < i)
    sign = (-1) ** below
    if mode == "insert":
        if i in J:
            return 0, None
        return sign, tuple(sorted(J + (i,)))
    if mode == "remove":
        if i not in J:
            return 0, None
        return sign, tuple(j for j in J if j != i)
    raise ValueError("mode must be insert or remove")


def random_cochain(ring, rng, ell, nterms=3, max_deg=3):
    parts = {}
    c = Cochain(ring, ell)
    for _ in range(nterms):
        I = tuple(sorted(rng.sample(range(1, ring.n + 1), ell)))
        p = ring.one().scale(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            p = p * ring.var(rng.randrange(ring.nvars))
        c = c + Cochain(ring, ell, {bits_of(I): p} if p else {})
    return c


def test_diff_on_constant():
    R = FockRing(2, 1)
    one = Cochain(R, 0, {0: R.one()})
    d = diff(one)
    assert d.ell == 1
    assert d.parts[1] == -(R.z_var(1, 1) * R.w_var(1))
    assert d.parts[2] == -(R.z_var(2, 1) * R.w_var(1))


def test_phi1_closed():
    for n in range(1, 5):
        R = FockRing(n, 1)
        assert not diff(phi1(R))


def test_phik_closed_small():
    for n in range(1, 5):
        for k in range(1, n + 1):
            R = FockRing(n, k)
            assert not diff(named_cochain("phik", R)), (n, k)


def test_phik_outer_product_agrees():
    for n in range(2, 4):
        for k in range(2, n + 1):
            R = FockRing(n, k)
            assert phik(R) == Phi_J(R, tuple(range(1, k + 1)))


def test_outer_product_phi1_phi1():
    R1 = FockRing(2, 1)
    prod = outer_product(phi1(R1), phi1(R1))
    R2 = FockRing(2, 2)
    assert prod == Phi_J(R2, (1, 2))


def test_product_rule():
    rng = random.Random(42)
    n = 3
    for _ in range(8):
        ka, kb = rng.randint(1, 2), rng.randint(1, 2)
        ea, eb = rng.randint(0, 2), rng.randint(0, 2)
        a = random_cochain(FockRing(n, ka), rng, ea)
        b = random_cochain(FockRing(n, kb), rng, eb)
        lhs = diff(outer_product(a, b))
        rhs = outer_product(diff(a), b) + outer_product(a, diff(b)).scale(
            (-1) ** a.ell
        )
        assert lhs == rhs


def test_dprime_on_PhiJ():
    # d'(Phi_J) = sum_i w_i (-1)^{J(i)} Phi_{J union i}
    R = FockRing(3, 2)
    for jsize in range(0, 3):
        for J in itertools.combinations(range(1, 3), jsize):
            lhs = diff(Phi_J(R, J), "graded")
            rhs = Cochain(R, jsize + 1)
            for i in range(1, 3):
                s, J2 = tuple_sign(J, i, "insert")
                if s:
                    rhs = rhs + Phi_J(R, J2).mul_poly(R.w_var(i)).scale(s)
            assert lhs == rhs, J


def test_dprime_on_starPhiJ():
    # d'(*Phi_J) = (-1)^(|J|-1) sum_{j in J} (-1)^{J(j)} c_j *Phi_{J - j}
    for n in range(2, 5):
        for k in range(1, 3):
            R = FockRing(n, k)
            for jsize in range(1, k + 1):
                for J in itertools.combinations(range(1, k + 1), jsize):
                    lhs = diff(star_Phi_J(R, J), "graded")
                    rhs = Cochain(R, n - jsize + 1)
                    for j in J:
                        s, J2 = tuple_sign(J, j, "remove")
                        rhs = rhs + star_Phi_J(R, J2).mul_poly(
                            c_gen(R, j)
                        ).scale(s)
                    assert lhs == rhs.scale((-1) ** (jsize - 1)), (n, k, J)


def random_invariant_cochain(ring, rng, ell, max_deg=3):
    """Random rational combination of the invariant spanning family."""
    c = Cochain(ring, ell)
    fam = invariant_family(ring, "full", ell, range(max_deg + 1))
    for d in range(max_deg + 1):
        for v in fam[d]:
            x = rng.randint(-3, 3)
            if x:
                c = c + v.scale(x)
    return c


def test_d_squared_pieces():
    # d2 and dm2 square to zero on arbitrary cochains; the full d and the
    # cross terms need the relative (invariant) complex, where the
    # obstruction -- an so(n) rotation -- vanishes
    rng = random.Random(7)
    for n, k in [(2, 1), (3, 2), (2, 2)]:
        R = FockRing(n, k)
        for ell in range(0, n):
            c = random_cochain(R, rng, ell)
            assert not diff(diff(c, "d2"), "d2")
            assert not diff(diff(c, "dm2"), "dm2")
            assert not diff(diff(c, "graded"), "graded")

            ci = random_invariant_cochain(R, rng, ell)
            assert not diff(diff(ci))
            anti = diff(diff(ci, "d2"), "dm2") + diff(diff(ci, "dm2"), "d2")
            assert not anti


def test_full_is_d2_plus_dm2():
    rng = random.Random(8)
    R = FockRing(3, 2)
    c = random_cochain(R, rng, 1)
    assert diff(c) == diff(c, "d2") + diff(c, "dm2")


def test_involution_iota():
    R = FockRing(2, 1)
    assert involution(phi1(R), "iota") == phi1(R)
    w1 = Cochain(R, 1, {bits_of((1,)): R.one()})
    assert involution(w1, "iota") == -w1
    # involution squared is the identity
    rng = random.Random(9)
    c = random_cochain(R, rng, 1)
    assert involution(involution(c, "iota"), "iota") == c


def test_involution_iota_prime():
    # [vol (x) p], p of degree a in the w's, has eigenvalue (-1)^(n+a)
    for n in (2, 3):
        R = FockRing(n, 1)
        vol = (1 << n) - 1
        for a in range(4):
            p = R.one()
            for _ in range(a):
                p = p * R.w_var(1)
            c = Cochain(R, n, {vol: p})
            got = involution(c, "iota_prime")
            assert got == c.scale((-1) ** (n + a)), (n, a)


def test_involutions_commute_with_diff():
    rng = random.Random(10)
    for n, k in [(2, 1), (3, 2)]:
        R = FockRing(n, k)
        for which in ("iota", "iota_prime"):
            c = random_cochain(R, rng, 1)
            assert involution(diff(c), which) == diff(involution(c, which))


def test_split_pm():
    R = FockRing(3, 2)
    for J in [(1,), (1, 2)]:
        p, m = split_pm(Phi_J(R, J))
        assert p == Phi_J(R, J) and not m
        p, m = split_pm(star_Phi_J(R, J))
        assert not p and m == star_Phi_J(R, J)
    rng = random.Random(11)
    c = random_cochain(R, rng, 2)
    p, m = split_pm(c)
    assert p + m == c
    assert involution(p, "iota") == p
    assert involution(m, "iota") == -m


def test_son_act_cochain():
    for n in (2, 3):
        for k in (1, 2):
            R = FockRing(n, k)
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    for slot in range(1, k + 1):
                        assert not son_act_cochain(a, b, phi1(R, slot))
    R = FockRing(2, 1)
    c = Cochain(R, 1, {bits_of((1,)): R.one()})
    got = son_act_cochain(1, 2, c)
    assert got == Cochain(R, 1, {bits_of((2,)): R.one()})
    R3 = FockRing(3, 1)
    vol = Cochain(R3, 3, {bits_of((1, 2, 3)): R3.one()})
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        assert not son_act_cochain(a, b, vol)


def test_diff_commutes_with_son_act():
    rng = random.Random(12)
    for n, k in [(2, 1), (3, 2)]:
        R = FockRing(n, k)
        c = random_cochain(R, rng, 1)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                assert diff(son_act_cochain(a, b, c)) == son_act_cochain(
                    a, b, diff(c)
                )


def brute_invariant_dim(ring, ell, d):
    """Oracle: joint kernel of every generator on the full graded piece."""
    basis = []
    for I in itertools.combinations(range(1, ring.n + 1), ell):
        for e in monomials_of_degree(ring, d):
            basis.append((bits_of(I), e))
    if ring.n == 1:
        return len(basis)
    rows = {}
    for t, (bits, e) in enumerate(basis):
        from weilcoh.polyring import Polynomial

        c = Cochain(ring, ell, {bits: Polynomial(ring, {e: Fraction(1)})})
        for a in range(1, ring.n + 1):
            for b in range(a + 1, ring.n + 1):
                img = son_act_cochain(a, b, c)
                for key, v in img.to_row().items():
                    rows.setdefault((a, b, key), {})[t] = v
    return len(basis) - rank_of_rows(rows.values())


def test_invariant_dim_trivial():
    R = FockRing(3, 2)
    assert invariant_dim(R, 0, 0) == 1
    assert invariant_dim(FockRing(3, 1), 1, 1) == 1  # spanned by phi_1
    assert invariant_dim(FockRing(2, 1), 0, 2) == 2  # r_11 and w_1^2


def test_invariant_dim_vs_bruteforce():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        R = FockRing(n, k)
        for ell in range(0, n + 1):
            for d in range(0, 4):
                assert invariant_dim(R, ell, d) == brute_invariant_dim(
                    R, ell, d
                ), (n, k, ell, d)


def test_invariant_dim_degenerate():
    R = FockRing(2, 1)
    assert invariant_dim(R, 3, 2) == 0
    assert invariant_dim(R, -1, 2) == 0
    assert invariant_dim(R, 1, -1) == 0


def test_pm_basis_vectors_edges():
    R = FockRing(3, 2)
    k = R.k
    fam = pm_basis_vectors(R, "plus", k, k)
    assert len(fam) == 1 and fam[0] == phik(R)
    assert pm_basis_vectors(R, "plus", k + 1, k + 1) == []
    vol_fam = pm_basis_vectors(R, "minus", 3, 0)
    assert len(vol_fam) == 1
    assert vol_fam[0] == Cochain(R, 3, {bits_of((1, 2, 3)): R.one()})


def test_pm_families_independent_and_complete():
    # rank(plus) + rank(minus) = invariant dim, and each family is free
    for n, k in [(3, 1), (3, 2)]:
        R = FockRing(n, k)
        for ell in range(0, n + 1):
            for d in range(0, 5):
                plus = [c.to_row() for c in pm_basis_vectors(R, "plus", ell, d)]
                minus = [c.to_row() for c in pm_basis_vectors(R, "minus", ell, d)]
                assert rank_of_rows(plus) == len(plus)
                assert rank_of_rows(minus) == len(minus)
                assert len(plus) + len(minus) == invariant_dim(R, ell, d), (
                    n, k, ell, d,
                )


def test_invariant_family_joint_kernel_route():
    # k >= n goes through the joint kernel; sizes must match invariant_dim
    R = FockRing(2, 2)
    for ell in range(0, 3):
        fam = invariant_family(R, "full", ell, range(4))
        for d in range(4):
            rows = [c.to_row() for c in fam[d]]
            assert rank_of_rows(rows) == len(rows)
            assert len(rows) == invariant_dim(R, ell, d)
            plus = invariant_family(R, "plus", ell, [d])[d]
            minus = invariant_family(R, "minus", ell, [d])[d]
            assert len(plus) + len(minus) == len(rows)
            for c in plus:
                p, m = split_pm(c)
                assert p == c and not m
            for c in minus:
                p, m = split_pm(c)
                assert m == c and not p


def test_direct_cohomology_31():
    R = FockRing(3, 1)
    rep = direct_cohomology_dims(R, "plus", 0, 6, 4)
    assert all(v == 0 for v in rep.dims.values())
    assert all(rep.stabilized.values())

    rep = direct_cohomology_dims(R, "plus", 1, 6, 4)
    assert [rep.dims[t] for t in range(7)] == [0, 1, 0, 1, 0, 1, 0]
    assert all(rep.stabilized.values())

    rep = direct_cohomology_dims(R, "full", 2, 4, 4)
    assert all(v == 0 for v in rep.dims.values())

    # H^3(C_-) carries S_1/(c_1): dims 1,1,2,1,2 up to degree 4
    rep = direct_cohomology_dims(R, "minus", 3, 4, 4)
    assert [rep.dims[t] for t in range(5)] == [1, 1, 2, 1, 2]
    assert all(rep.stabilized.values())


def test_direct_cohomology_buffer_validation():
    R = FockRing(2, 1)
    with pytest.raises(ValueError):
        direct_cohomology_dims(R, "full", 0, 2, 3)


def test_named_cochain_errors():
    R = FockRing(2, 3)
    with pytest.raises(ValueError):
        named_cochain("PhiJ", R, J=(1, 2, 3))
    with pytest.raises(ValueError):
        named_cochain("nope", R)


def _all_int(polys):
    return all(type(c) is int for p in polys for c in p.terms.values())


def test_integer_inputs_give_int_coefficients():
    # the complex has integer coefficients end to end; only a rational
    # scalar (the 1/2 of split_pm) may bring in a Fraction
    R = FockRing(3, 2)
    dphi = diff(phi1(R), "full")
    assert dphi and _all_int(dphi.parts.values())
    for part in ("plus", "minus"):
        fam = pm_basis_vectors(R, part, 1, 3)
        assert fam and _all_int(p for c in fam for p in c.parts.values())
    S = SkRing(2)
    m = S.rhat_var(1, 2) * S.what_var(1) * S.what_var(2)
    images = [sk_evaluate(m, R), son_act(1, 2, q_gen(R, 1))]
    assert all(images) and _all_int(images)
    Rk = FockRing(2, 2)  # k >= n: the joint-kernel route
    fams = invariant_family(Rk, "full", 1, range(4))
    assert any(fams.values())
    assert _all_int(p for fam in fams.values() for c in fam
                    for p in c.parts.values())
