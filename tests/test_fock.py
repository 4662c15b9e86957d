"""Tests for the cochain complex: differentials, named cochains,
involutions, the so(n) action, invariants and direct cohomology."""

import itertools
import random
import sys
from dataclasses import dataclass, field

import pytest

from weilcoh import verify
from weilcoh.exterior import bits_of, star_bits
import weilcoh.fock as fock
from weilcoh.fock import (
    Cochain,
    Phi_J,
    _block_filtration,
    _check_weight,
    diff,
    direct_cohomology_dims,
    dominant_rows,
    invariant_dims,
    invariant_family,
    involution,
    outer_product,
    phi1,
    pm_basis_vectors,
    row_diff,
    sk_model_pairs,
    son_act_cochain,
)
from weilcoh.linalg import (
    Eliminator,
    SparseRationalMatrix,
    kernel_basis,
    rank_of_rows,
    span_intersect_window,
)
from weilcoh.polyring import (
    FockRing,
    Polynomial,
    SkRing,
    is_dominant,
    minor,
    monomials_of_degree,
    orbit_size,
    q_gen,
    r_gen,
    sk_evaluate,
    son_act,
)
from weilcoh.spectral import SpectralComputer
from test_spectral import sk_model_basis, sk_model_d2_row


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


def mul_poly(c, p):
    """The cochain c with every part multiplied by the polynomial p."""
    return Cochain(c.ring, c.ell, {b: f * p for b, f in c.parts.items()})


def cochain_of_row(ring, ell, row):
    """A {(bits, exponent): int} family row read as a cochain of level
    ell."""
    return Cochain.from_terms(ring, ell, row.items())


def random_cochain(ring, rng, ell, nterms=3, max_deg=3):
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


def phik(ring):
    """The k-fold outer exterior product of phi_1 (equals Phi_{(1..k)})."""
    c = phi1(FockRing(ring.n, 1))
    for _ in range(ring.k - 1):
        c = outer_product(c, phi1(FockRing(ring.n, 1)))
    return c


def test_phik_closed_small():
    for n in range(1, 5):
        for k in range(1, n + 1):
            R = FockRing(n, k)
            assert not diff(Phi_J(R, tuple(range(1, k + 1)))), (n, k)


def test_phik_outer_product_agrees():
    for n in range(2, 4):
        for k in range(2, n + 1):
            R = FockRing(n, k)
            assert phik(R) == Phi_J(R, tuple(range(1, k + 1)))


@pytest.mark.parametrize("n,k,J,message", [
    (3, 2, (1, 2, 3), "|J| exceeds k"),
    (2, 3, (1, 2, 3), "|J| exceeds n"),
    (1, 1, (1, 1), "|J| exceeds k"),  # both exceeded: k is checked first
])
def test_phi_J_raises_beyond_k_and_n(n, k, J, message):
    # no family is built, not even the zero cochain
    with pytest.raises(ValueError) as exc:
        Phi_J(FockRing(n, k), J)
    assert str(exc.value) == message


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
    # d'(Phi_J) = sum_i w_i (-1)^{J(i)} Phi_{J union i}, with d' = -d2
    R = FockRing(3, 2)
    for jsize in range(0, 3):
        for J in itertools.combinations(range(1, 3), jsize):
            lhs = -diff(Phi_J(R, J), "d2")
            rhs = Cochain(R, jsize + 1)
            for i in range(1, 3):
                s, J2 = tuple_sign(J, i, "insert")
                if s:
                    rhs = rhs + mul_poly(Phi_J(R, J2), R.w_var(i)).scale(s)
            assert lhs == rhs, J


def test_dprime_on_starPhiJ():
    # d'(*Phi_J) = (-1)^(|J|-1) sum_{j in J} (-1)^{J(j)} c_j *Phi_{J - j},
    # with d' = -d2; test_polyring imports this module, so c_gen is
    # imported here
    from test_polyring import c_gen

    for n in range(2, 5):
        for k in range(1, 3):
            R = FockRing(n, k)
            for jsize in range(1, k + 1):
                for J in itertools.combinations(range(1, k + 1), jsize):
                    lhs = -diff(old_star_Phi_J(R, J), "d2")
                    rhs = Cochain(R, n - jsize + 1)
                    for j in J:
                        s, J2 = tuple_sign(J, j, "remove")
                        rhs = rhs + mul_poly(old_star_Phi_J(R, J2),
                                             c_gen(R, j)).scale(s)
                    assert lhs == rhs.scale((-1) ** (jsize - 1)), (n, k, J)


def random_invariant_cochain(ring, rng, ell, max_deg=3):
    """Random integer combination of the invariant spanning family."""
    c = Cochain(ring, ell)
    fam = invariant_family(ring, "full", ell, range(max_deg + 1))
    for d in range(max_deg + 1):
        for _, row in fam[d]:
            x = rng.randint(-3, 3)
            if x:
                c = c + cochain_of_row(ring, ell, row).scale(x)
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

            ci = random_invariant_cochain(R, rng, ell)
            assert not diff(diff(ci))
            anti = diff(diff(ci, "d2"), "dm2") + diff(diff(ci, "dm2"), "d2")
            assert not anti


def test_full_is_d2_plus_dm2():
    rng = random.Random(8)
    R = FockRing(3, 2)
    c = random_cochain(R, rng, 1)
    assert diff(c) == diff(c, "d2") + diff(c, "dm2")


def test_diff_rejects_unknown_modes():
    # d' = -d2 has no mode of its own
    c = phi1(FockRing(2, 1))
    for mode in ("graded", "dprime", ""):
        with pytest.raises(ValueError):
            diff(c, mode)


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


def split_pm(c):
    """(2 plus, 2 minus) = (c + iota c, c - iota c), where c = plus + minus
    with iota (x) iota eigenvalues +1 and -1; doubled to stay integral."""
    ic = involution(c, "iota")
    return c + ic, c - ic


def test_split_pm():
    R = FockRing(3, 2)
    for J in [(1,), (1, 2)]:
        p, m = split_pm(Phi_J(R, J))
        assert p == Phi_J(R, J).scale(2) and not m
        p, m = split_pm(old_star_Phi_J(R, J))
        assert not p and m == old_star_Phi_J(R, J).scale(2)
    rng = random.Random(11)
    c = random_cochain(R, rng, 2)
    p, m = split_pm(c)
    assert p + m == c.scale(2)
    assert c and c.scale(0) == Cochain(R, 2)
    assert involution(p, "iota") == p
    assert involution(m, "iota") == -m


def test_son_act_cochain():
    for n in (2, 3):
        for k in (1, 2):
            R = FockRing(n, k)
            assert phi1(R) == Phi_J(R, (1,))
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    for slot in range(1, k + 1):
                        assert not son_act_cochain(a, b, Phi_J(R, (slot,)))
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

        c = Cochain(ring, ell, {bits: Polynomial(ring, {e: 1})})
        for a in range(1, ring.n + 1):
            for b in range(a + 1, ring.n + 1):
                img = son_act_cochain(a, b, c)
                for key, v in img.to_row().items():
                    rows.setdefault((a, b, key), {})[t] = v
    return len(basis) - rank_of_rows(rows.values())


def test_invariant_dim_trivial():
    R = FockRing(3, 2)
    assert invariant_dims(R, 0, 0) == [1]
    assert invariant_dims(FockRing(3, 1), 1, 1)[1] == 1  # spanned by phi_1
    assert invariant_dims(FockRing(2, 1), 0, 2)[2] == 2  # r_11 and w_1^2


def test_invariant_dim_vs_bruteforce():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (3, 3)]:
        R = FockRing(n, k)
        for ell in range(0, n + 1):
            dims = invariant_dims(R, ell, 3)
            for d in range(0, 4):
                assert dims[d] == brute_invariant_dim(R, ell, d), (
                    n, k, ell, d)


def test_invariant_dim_degenerate():
    R = FockRing(2, 1)
    assert invariant_dims(R, 3, 2) == [0, 0, 0]
    assert invariant_dims(R, -1, 2) == [0, 0, 0]
    assert invariant_dims(R, 1, -1) == []


def test_pm_basis_vectors_edges():
    R = FockRing(3, 2)
    k = R.k
    fam = pm_basis_vectors(R, "plus", k, k)
    assert len(fam) == 1 and cochain_of_row(R, k, fam[0]) == phik(R)
    assert pm_basis_vectors(R, "plus", k + 1, k + 1) == []
    vol_fam = pm_basis_vectors(R, "minus", 3, 0)
    assert len(vol_fam) == 1
    assert cochain_of_row(R, 3, vol_fam[0]) == \
        Cochain(R, 3, {bits_of((1, 2, 3)): R.one()})


def test_pm_families_independent_and_complete():
    # rank(plus) + rank(minus) = invariant dim, and each family is free
    for n, k in [(3, 1), (3, 2)]:
        R = FockRing(n, k)
        for ell in range(0, n + 1):
            dims = invariant_dims(R, ell, 4)
            for d in range(0, 5):
                plus = pm_basis_vectors(R, "plus", ell, d)
                minus = pm_basis_vectors(R, "minus", ell, d)
                assert rank_of_rows(plus) == len(plus)
                assert rank_of_rows(minus) == len(minus)
                assert len(plus) + len(minus) == dims[d], (
                    n, k, ell, d,
                )


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_families_span_the_invariants(n, k):
    # the Phi / *Phi families span the invariants for every k (free for
    # k <= n); invariant_dims is the independent joint-kernel count
    R = FockRing(n, k)
    for ell in range(n + 1):
        fam = invariant_family(R, "full", ell, range(4))
        dims = invariant_dims(R, ell, 3)
        for d in range(4):
            rows = [row for _, row in fam[d]]
            dim = dims[d]
            assert rank_of_rows(rows) == dim, (ell, d)
            if k <= n:
                assert len(rows) == dim, (ell, d)
            plus = pm_basis_vectors(R, "plus", ell, d)
            minus = pm_basis_vectors(R, "minus", ell, d)
            assert rank_of_rows(plus) + rank_of_rows(minus) == dim, (ell, d)
            for c in (cochain_of_row(R, ell, row) for row in plus):
                p, m = split_pm(c)
                assert p == c.scale(2) and not m
            for c in (cochain_of_row(R, ell, row) for row in minus):
                p, m = split_pm(c)
                assert m == c.scale(2) and not p


def _zrow_cochain(R, ell, row):
    """A z-form row {(bits, z-expo): int} as a cochain of R."""
    parts = {}
    for (bits, ze), v in row.items():
        parts.setdefault(bits, {})[ze + (0,) * R.k] = v
    return Cochain(R, ell, {b: Polynomial(R, t) for b, t in parts.items()})


# The joint-kernel route before the column symmetry: every column-degree
# vector eliminated, none counted by its orbit.  Kept as the oracle.
def full_zform_invariant_rows(n, k, ell, dz):
    """Basis rows {(bits, z-expo): int} of the SO(n)-invariants of
    Lambda^ell (x) Pol_z(dz)."""
    if ell < 0 or ell > n or dz < 0:
        return []
    nz = n * k
    zmons = [e[:nz] for e in monomials_of_degree(FockRing(n, k), dz,
                                                  range(nz))]
    basis = [
        (bits_of(I), ze)
        for I in itertools.combinations(range(1, n + 1), ell)
        for ze in zmons
    ]
    if n == 1:
        return [{be: 1} for be in basis]

    torus = [(2 * j + 1, 2 * j + 2) for j in range(n // 2)]
    remaining = [(i, i + 1) for i in range(2, n) if i % 2 == 0]

    blocks = {}
    for be in basis:
        blocks.setdefault(fock._torus_block_key(n, k, *be), []).append(be)

    W = []  # list of {(bits, ze): int}
    for members in blocks.values():
        # column t: the torus images of member t
        columns = [{(g, tgt): v for g, (a, b) in enumerate(torus)
                    for tgt, v in fock._gen_act_basis(n, k, a, b, bits,
                                                      ze).items()}
                   for bits, ze in members]
        if not any(columns):
            for be in members:
                W.append({be: 1})
            continue
        for vec in kernel_basis(SparseRationalMatrix(columns)):
            W.append({members[t]: v for t, v in vec.items()})

    if not remaining or not W:
        return W

    # X_{2,3}, X_{4,5}, ... keep every column degree, and the rows of W
    # come from torus blocks, each of one column-degree vector, so the
    # invariants are a direct sum over those vectors.  Per vector, the
    # rows (v | X_g v), v in W, span the graph of the generators on
    # span(W); the part of that span with no image is the invariants,
    # read off in the (bits, ze) labels
    groups = {}
    for wvec in W:
        _, ze = next(iter(wvec))
        groups.setdefault(_col_degrees(n, k, ze), []).append(wvec)
    out = []
    for rows in groups.values():
        graph = []
        for wvec in rows:
            row = dict(wvec)
            for g, (a, b) in enumerate(remaining):
                for (bits, ze), coef in wvec.items():
                    for tgt, v in fock._gen_act_basis(n, k, a, b, bits,
                                                      ze).items():
                        key = (g, *tgt)
                        nv = row.get(key, 0) + coef * v
                        if nv:
                            row[key] = nv
                        elif key in row:
                            del row[key]
            graph.append(row)
        out.extend(span_intersect_window(graph, lambda c: len(c) == 2))
    return out


def _col_degrees(n, k, ze):
    """z-degree in each column of a monomial (columns are contiguous)."""
    return tuple(sum(ze[j * n:(j + 1) * n]) for j in range(k))


ZFORM_CASES = [(n, k, 4) for n, k in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3),
                                       (3, 3)]] + [(4, 3, 3)]


@pytest.mark.parametrize("n,k,window", ZFORM_CASES)
def test_dominant_zform_blocks_match_the_full_route(n, k, window):
    # the dominant column-degree blocks, each counted with its orbit size,
    # have as many rows as the route over every column-degree vector
    for ell in range(-1, n + 2):
        for dz in range(window + 1):
            blocks = fock._zform_invariant_rows(n, k, ell, dz)
            assert sum(orbit_size(c) * len(rows)
                       for c, rows in blocks.items()) == \
                len(full_zform_invariant_rows(n, k, ell, dz)), (ell, dz)
            for c, rows in blocks.items():
                assert is_dominant(c) and sum(c) == dz, c
                for row in rows:
                    assert all(_col_degrees(n, k, ze) == c
                               for _, ze in row), (ell, dz, c)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_zform_rows_are_invariant(n, k):
    # every row of the joint-kernel route is killed by every X_{a,a+1},
    # applied here through the cochain action, not the basis action the
    # route uses
    R = FockRing(n, k)
    for ell in range(n + 1):
        for dz in range(4):
            for rows in fock._zform_invariant_rows(n, k, ell,
                                                   dz).values():
                assert rank_of_rows(rows) == len(rows)
                for row in rows:
                    c = _zrow_cochain(R, ell, row)
                    assert c
                    for a in range(1, n):
                        assert not son_act_cochain(a, a + 1, c), (ell, dz, a)


def test_direct_cohomology_31():
    R = FockRing(3, 1)
    rep = direct_cohomology_dims(R, "plus", 0, 6)
    assert all(v == 0 for v in rep.values())

    rep = direct_cohomology_dims(R, "plus", 1, 6)
    assert [rep[t] for t in range(7)] == [0, 1, 0, 1, 0, 1, 0]

    rep = direct_cohomology_dims(R, "full", 2, 4)
    assert all(v == 0 for v in rep.values())

    # H^3(C_-) carries S_1/(c_1): dims 1,1,2,1,2 up to degree 4
    rep = direct_cohomology_dims(R, "minus", 3, 4)
    assert [rep[t] for t in range(5)] == [1, 1, 2, 1, 2]


def test_cohom_reads_the_domain_through_D_minus_2(monkeypatch):
    # without a store the domain level is read through degree D - 2 only:
    # each family row of either level is differentiated once, by one
    # row_diff call, logged here with the level of its row
    R, ell, D = FockRing(3, 2), 3, 3
    coc = invariant_family(R, "minus", ell, range(D + 1), dominant=True)
    dom = invariant_family(R, "minus", ell - 1, range(D - 1), dominant=True)
    levels = []

    def recorded(n, k, row):
        levels.append(next(iter(row))[0].bit_count())
        return row_diff(n, k, row)

    monkeypatch.setattr(fock, "row_diff", recorded)
    direct_cohomology_dims(R, "minus", ell, D)
    ncoc, ndom = sum(map(len, coc.values())), sum(map(len, dom.values()))
    assert ndom and levels.count(ell - 1) == ndom
    assert levels.count(ell) == ncoc and len(levels) == ncoc + ndom


def _all_int(polys):
    return all(type(c) is int for p in polys for c in p.terms.values())


def test_integer_inputs_give_int_coefficients():
    # the complex has integer coefficients end to end
    R = FockRing(3, 2)
    dphi = diff(phi1(R), "full")
    assert dphi and _all_int(dphi.parts.values())
    for part in ("plus", "minus"):
        fam = pm_basis_vectors(R, part, 1, 3)
        assert fam and all(type(c) is int for row in fam
                           for c in row.values())
    S = SkRing(2)
    m = S.rhat_var(1, 2) * S.what_var(1) * S.what_var(2)
    images = [sk_evaluate(m, R), son_act(1, 2, q_gen(R, 1))]
    assert all(images) and _all_int(images)
    Rk = FockRing(2, 2)  # k >= n
    fams = invariant_family(Rk, "full", 1, range(4))
    assert any(fams.values())
    assert all(type(c) is int for fam in fams.values() for _, row in fam
               for c in row.values())


# ---------------------------------------------------------------------------
# the weight grading: only dominant blocks are eliminated


# The route before the weight split and before the descent lemma: one
# elimination per slice s = z-degree - w-degree over the whole family,
# with the domain read through max_degree + buffer + 4 and each cell
# called stabilized when three buffers agree.  Kept as the oracle.
@dataclass
class BufferedReport:
    dims: dict = field(default_factory=dict)         # degree -> dim of gr_d H
    filtration: dict = field(default_factory=dict)   # degree -> dim F_d H
    stabilized: dict = field(default_factory=dict)   # degree -> bool


def _bidegree(c):
    """(z-degree, w-degree) of a bihomogeneous cochain; None if zero."""
    ring = c.ring
    nz = ring.n * ring.k
    for p in c.parts.values():
        for e in p.terms:
            return sum(e[:nz]), sum(e[nz:])
    return None


def slice_direct_cohomology_dims(ring, part, ell, max_degree, buffer=4):
    """Graded dimensions of H^ell of the invariant complex.

    The cohomology is filtered (not graded) by polynomial degree; the
    reported cell at degree t is gr_t = F_t - F_{t-1} where
    F_t = dim{cocycles of degree <= t} - dim(coboundaries inside degree
    <= t).  Cocycles are exact; the coboundary span is computed from the
    domain truncated at max_degree + buffer and certified stable by
    recomputation at buffer + 2 and buffer + 4.

    The differential changes (z-degree, w-degree) by (+1,+1) or (-1,-1),
    so everything splits over s = z-degree - w-degree and each slice is
    eliminated separately.
    """
    if buffer < 2 or buffer % 2:
        raise ValueError("buffer must be even and >= 2")
    D = max_degree
    maxdom = D + buffer + 4

    coc = invariant_family(ring, part, ell, range(D + 1))
    dom = invariant_family(ring, part, ell - 1, range(maxdom + 1)) \
        if ell >= 1 else {d: [] for d in range(maxdom + 1)}

    def skey(c):
        bd = _bidegree(c)
        return None if bd is None else bd[0] - bd[1]

    # slice families by s = z-degree - w-degree (preserved by d)
    coc_s = {}
    for d in range(D + 1):
        for _, row in coc[d]:
            v = cochain_of_row(ring, ell, row)
            s = skey(v)
            if s is not None:
                coc_s.setdefault(s, {}).setdefault(d, []).append(v)
    dom_s = {}
    for d in range(maxdom + 1):
        for _, row in dom[d]:
            v = cochain_of_row(ring, ell - 1, row)
            s = skey(v)
            if s is not None:
                dom_s.setdefault(s, {}).setdefault(d, []).append(v)

    snapshots = [buffer, buffer + 2, buffer + 4]
    # F[snap][t] accumulated over slices
    F = {b: [0] * (D + 1) for b in snapshots}

    for s in set(coc_s) | set(dom_s):
        rank_v = [0] * (D + 1)
        rank_dv = [0] * (D + 1)
        ev = Eliminator()
        edv = Eliminator()
        for t in range(D + 1):
            for v in coc_s.get(s, {}).get(t, []):
                ev.add_row(v.to_row())
                dv = diff(v, "full")
                if dv:
                    edv.add_row(dv.to_row())
            rank_v[t] = ev.rank
            rank_dv[t] = edv.rank
        # coboundary windows: one elimination, pivot order by degree
        # descending so that the pivot rows with small pivot degree count
        # the span inside every window at once
        eb = Eliminator()
        win = {}
        prev = 0
        for b in snapshots:
            for t in range(prev, D + b + 1):
                for u in dom_s.get(s, {}).get(t, []):
                    du = diff(u, "full")
                    if du:
                        eb.add_row({
                            (-(sum(e)), bits, e): c
                            for (bits, e), c in du.to_row().items()
                        })
            prev = D + b + 1
            counts = [0] * (D + 1)
            for pivot in eb.pivots:
                deg = -pivot[0]
                if deg <= D:
                    counts[deg] += 1
            run = 0
            wt = [0] * (D + 1)
            for t in range(D + 1):
                run += counts[t]
                wt[t] = run
            win[b] = wt
        for b in snapshots:
            for t in range(D + 1):
                F[b][t] += rank_v[t] - rank_dv[t] - win[b][t]

    rep = BufferedReport()
    for t in range(D + 1):
        grs = [F[b][t] - (F[b][t - 1] if t else 0) for b in snapshots]
        rep.dims[t] = grs[0]
        rep.filtration[t] = F[buffer][t]
        rep.stabilized[t] = grs[0] == grs[1] == grs[2]
    return rep


def monomial_weight(ring, e):
    """z-degree in column j minus the degree in w_j."""
    return tuple(
        sum(e[ring.z(a, j)] for a in range(1, ring.n + 1)) - e[ring.w(j)]
        for j in range(1, ring.k + 1)
    )


def weights_of(ring, row):
    return {monomial_weight(ring, e) for _, e in row}


def row_pair_blocks(ring, ell, families):
    """The (weight, row) pairs of invariant_family at level ell grouped by
    weight, {weight: {degree: [(row, full-d image row)]}}, in family
    order; each image is diff of the row read as a cochain."""
    out = {}
    for d, pairs in families.items():
        for mu, row in pairs:
            out.setdefault(mu, {}).setdefault(d, []).append(
                (row, diff(cochain_of_row(ring, ell, row), "full").to_row()))
    return out


WEIGHT_CASES = [(n, k, part) for n, k in [(2, 2), (3, 2), (2, 3)]
                for part in ("plus", "minus", "full")]


@pytest.mark.parametrize("n,k,part", WEIGHT_CASES)
def test_weight_blocks_symmetric_and_sum_to_slices(n, k, part):
    # every block, dominant or not: the block at sigma mu equals the block
    # at mu, the orbit-weighted dominant sum is the sum over all blocks,
    # and both are the filtration of the buffered slice route
    R = FockRing(n, k)
    D, buffer = (2, 2) if k < 3 else (1, 2)
    for ell in range(n + 1):
        coc_all = invariant_family(R, part, ell, range(D + 1))
        dom_all = invariant_family(R, part, ell - 1, range(D - 1))
        for lvl, fam_all in ((ell, coc_all), (ell - 1, dom_all)):
            fam_dom = invariant_family(R, part, lvl, list(fam_all),
                                       dominant=True)
            for d, pairs in fam_all.items():
                assert fam_dom[d] == [(mu, row) for mu, row in pairs
                                      if is_dominant(mu)]
        coc = row_pair_blocks(R, ell, coc_all)
        dom = row_pair_blocks(R, ell - 1, dom_all)
        blocks = {mu: _block_filtration(coc.get(mu, {}), dom.get(mu, {}), D)
                  for mu in set(coc) | set(dom)}
        total = [0] * (D + 1)
        weighted = [0] * (D + 1)
        for mu, block in blocks.items():
            for sigma in itertools.permutations(range(k)):
                assert blocks[tuple(mu[i] for i in sigma)] == block, mu
            for t in range(D + 1):
                total[t] += block[t]
                if is_dominant(mu):
                    weighted[t] += orbit_size(mu) * block[t]
        assert weighted == total
        oracle = slice_direct_cohomology_dims(R, part, ell, D, buffer)
        assert all(oracle.stabilized.values())
        assert [oracle.filtration[t] for t in range(D + 1)] == total
        rep = direct_cohomology_dims(R, part, ell, D)
        assert rep == oracle.dims


@pytest.mark.parametrize("n,k,part,D", [(3, 1, "plus", 6), (3, 1, "minus", 6),
                                        (1, 2, "full", 4)])
def test_short_domain_matches_the_buffered_slices(n, k, part, D):
    # the domain through degree D - 2 (the descent lemma) against the
    # buffered slice route, at every level
    R = FockRing(n, k)
    for ell in range(n + 1):
        oracle = slice_direct_cohomology_dims(R, part, ell, D)
        assert all(oracle.stabilized.values()), ell
        rep = direct_cohomology_dims(R, part, ell, D)
        assert rep == oracle.dims, ell


def ordered(blocks):
    """{weight: {degree: pairs}} as nested lists in their order, every
    iterator of dominant_rows read."""
    return [(mu, [(d, list(pairs)) for d, pairs in block.items()])
            for mu, block in blocks.items()]


@pytest.mark.parametrize("n,k,part", [(2, 2, "full"), (3, 2, "minus"),
                                      (2, 3, "plus"), (1, 2, "full")])
def test_dominant_rows_are_the_pages_store(n, k, part):
    # the one builder: the pages store, one call per level read into
    # lists, is the window read at once, with the same weights, pairs and
    # order; both are the dominant blocks of the whole family in family
    # order
    R, D = FockRing(n, k), 3
    comp = SpectralComputer(R, part, D)
    for ell in range(n + 1):
        rows = ordered(dominant_rows(R, part, ell, range(D + 1)))
        assert ordered(comp.blocks[ell]) == rows, ell
        blocks = row_pair_blocks(R, ell,
                                 invariant_family(R, part, ell, range(D + 1)))
        assert rows == ordered({mu: block for mu, block in blocks.items()
                                if is_dominant(mu)}), ell


def test_orbit_size():
    assert orbit_size((0,)) == 1
    assert orbit_size((2, 1, 0)) == 6
    assert orbit_size((1, 1, 0)) == 3
    assert orbit_size((-1, -1, -1, 4)) == 4
    assert is_dominant((3, 1, 1, -2)) and not is_dominant((0, 1))


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 3), (2, 2), (2, 3),
                                 (1, 2)])
def test_family_weights_from_construction(n, k):
    # pm_basis_vectors emits m . Phi_J (or m . *Phi_J) for the S_k
    # monomials m in lex order and the J in combination order; each has
    # weight(m) + e_J, read here off the S_k variables' images
    R = FockRing(n, k)
    sk = SkRing(k)
    images = {}
    for i in range(1, k + 1):
        images[sk.what(i)] = [-(j == i) for j in range(1, k + 1)]
        for j in range(i, k + 1):
            images[sk.rhat(i, j)] = [(a == i) + (a == j)
                                     for a in range(1, k + 1)]
    for part, jsize in (("plus", lambda ell: ell),
                        ("minus", lambda ell: n - ell)):
        for ell in range(n + 1):
            for d in range(5):
                base = d - jsize(ell)
                fam = pm_basis_vectors(R, part, ell, d)
                if jsize(ell) > k or base < 0:
                    assert fam == []
                    continue
                predicted = []
                for expo in monomials_of_degree(sk, base):
                    mw = [sum(x * images[v][a] for v, x in enumerate(expo))
                          for a in range(k)]
                    for J in itertools.combinations(range(1, k + 1),
                                                    jsize(ell)):
                        predicted.append(tuple(
                            mw[a] + (a + 1 in J) for a in range(k)))
                assert [weights_of(R, row) for row in fam] == \
                    [{mu} for mu in predicted], (part, ell, d)


@pytest.mark.parametrize("patch", ["Phi_J", "sk_evaluate"])
def test_builder_refuses_a_vector_of_the_wrong_weight(patch, monkeypatch):
    R = FockRing(3, 2)
    if patch == "Phi_J":
        monkeypatch.setattr(fock, "Phi_J", lambda ring, J: mul_poly(
            Phi_J(ring, J), ring.w_var(1)))
    else:
        monkeypatch.setattr(fock, "sk_evaluate", lambda p, ring:
                            sk_evaluate(p, ring) * ring.z_var(1, 2))
    with pytest.raises(ValueError, match="weight"):
        pm_basis_vectors(R, "plus", 1, 3)


# The two family builders as they were before both read the pairs of
# fock.sk_model_pairs, verbatim apart from their names and the removed
# Cochain.mul_poly read as mul_poly above: the oracles of the one
# enumeration and, flattened by to_row, of the rows of invariant_family;
# old_star_Phi_J is also the oracle of the minus bases.


def old_star_Phi_J(ring, J):
    """Hodge dual family: sum over I of f_{I,J} (x) *(omega_I)."""
    J = tuple(J)
    l = len(J)
    if l > ring.k:
        raise ValueError("|J| exceeds k")
    if l > ring.n:
        raise ValueError("|J| exceeds n")
    out = Cochain(ring, ring.n - l)
    for I in itertools.combinations(range(1, ring.n + 1), l):
        s, comp = star_bits(bits_of(I), ring.n)
        out = out + Cochain(ring, ring.n - l, {comp: minor(ring, I, J).scale(s)})
    return out


def old_pm_basis_vectors(ring, part, ell, d, dominant=False):
    """The spanning family of C_+ (m . Phi_J) or C_- (m . *Phi_J) at
    bidegree (ell, d), with m running over S_k-monomials of the
    complementary degree; only the vectors of dominant weight if
    dominant is set.  The family spans for every k and is dependent for
    k > n (see the module docstring).  Each Phi_J / *Phi_J is built once
    per call and each m is evaluated once.  m . Phi_J and m . *Phi_J have
    weight weight(m) + e_J, so a pair (m, J) of other weight costs
    nothing."""
    n, k = ring.n, ring.k
    if ell < 0 or ell > n or d < 0:
        return []
    if part == "plus":
        jsize = ell
        base = d - ell
    elif part == "minus":
        jsize = n - ell
        base = d - (n - ell)
    else:
        raise ValueError("part must be plus or minus")
    if jsize < 0 or jsize > k or base < 0:
        return []
    build = Phi_J if part == "plus" else old_star_Phi_J
    gens = []
    for J in itertools.combinations(range(1, k + 1), jsize):
        c = build(ring, J)
        if c:
            eJ = tuple(int(j in J) for j in range(1, k + 1))
            _check_weight(c.parts.values(), eJ)
            gens.append((eJ, c))
    sk = SkRing(k)
    out = []
    for expo in monomials_of_degree(sk, base):
        mw = sk.weight(expo)
        m = None
        for eJ, c in gens:
            if dominant and not is_dominant([a + b for a, b in zip(mw, eJ)]):
                continue
            if m is None:
                m = sk_evaluate(Polynomial(sk, {expo: 1}), ring)
                _check_weight((m,), mw)
            out.append(mul_poly(c, m))
    return out


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (2, 2), (3, 3), (2, 3),
                                 (1, 2)])
def test_builders_match_the_previous_builders(n, k):
    # k < n, k = n and k > n: every family of both parts at every level
    # through degree 4, dominant or not, equal vector by vector and in
    # order, each paired with the weight of every monomial it has
    R = FockRing(n, k)
    for part in ("plus", "minus"):
        for ell in range(-1, n + 2):
            jsize = ell if part == "plus" else n - ell
            for d in range(-1, 5):
                if d < jsize:
                    # no S_k monomial has the negative degree d - |J|
                    assert not list(sk_model_pairs(SkRing(k), n, part, ell,
                                                   d, False)), (part, ell, d)
                for dominant in (False, True):
                    old = [list(v.to_row().items()) for v in
                           old_pm_basis_vectors(R, part, ell, d, dominant)]
                    # the same rows, key for key and in order
                    pairs = invariant_family(R, part, ell, [d], dominant)[d]
                    assert [list(row.items()) for _, row in pairs] == old, \
                        (part, ell, d, dominant)
                    if not dominant:
                        assert [list(row.items()) for row in
                                pm_basis_vectors(R, part, ell, d)] == old
                    # each paired with the weight of its every monomial
                    for mu, row in pairs:
                        assert {R.weight(e) for _, e in row} == {mu}, \
                            (part, ell, d)
    # one call across degrees and both parts: degree, then plus before
    # minus, then family order
    for ell in range(n + 1):
        for dominant in (False, True):
            rows = invariant_family(R, "full", ell, range(5), dominant)
            assert list(rows) == list(range(5))
            assert {d: [row for _, row in pairs]
                    for d, pairs in rows.items()} == \
                {d: [v.to_row() for part in ("plus", "minus")
                     for v in old_pm_basis_vectors(R, part, ell, d,
                                                   dominant)]
                 for d in range(5)}, (ell, dominant)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
def test_family_bases_are_built_once_per_ring(n, k, monkeypatch):
    # every level of both parts, twice over: each Phi_J is built, and
    # weight-checked, once per ring, every *Phi_J base is read off it,
    # term for term the old *Phi_J, and a fresh ring builds them again
    built = []

    def counted(ring, J):
        built.append(J)
        return Phi_J(ring, J)

    monkeypatch.setattr(fock, "Phi_J", counted)
    every_J = sorted(J for size in range(min(n, k) + 1)
                     for J in itertools.combinations(range(1, k + 1), size))
    for R in (FockRing(n, k), FockRing(n, k)):
        built.clear()
        for _ in range(2):
            for ell in range(n + 1):
                invariant_family(R, "full", ell, range(4))
        assert sorted(built) == every_J
        for J in every_J:
            assert fock._family_base(R, "minus", J) == [
                (bits, list(f.terms.items()))
                for bits, f in old_star_Phi_J(R, J).parts.items()], J
        assert len(built) == len(every_J)


# the S_k model for k < n: m . Phi_J and m . *Phi_J as pairs (J, m)
MODEL_SHAPES = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]


def model_vector(ring, sk, part, J, expo):
    """The cochain m . Phi_J (plus) or m . *Phi_J (minus) of a model pair."""
    base = Phi_J(ring, J) if part == "plus" else old_star_Phi_J(ring, J)
    return mul_poly(base, sk_evaluate(Polynomial(sk, {expo: 1}), ring))


@pytest.mark.parametrize("n,k", MODEL_SHAPES)
def test_sk_model_d2_rows_match_diff(n, k):
    # every model d2 row, evaluated term by term, is the Fock d2 of the
    # evaluated cochain, sign for sign: every S_k monomial of degree <= 4
    # (<= 3 for k = 3), every J, both parts
    R, sk = FockRing(n, k), SkRing(k)
    for d in range((4 if k < 3 else 3) + 1):
        for expo in monomials_of_degree(sk, d):
            for part in ("plus", "minus"):
                for size in range(k + 1):
                    for J in itertools.combinations(range(1, k + 1), size):
                        v = model_vector(R, sk, part, J, expo)
                        got = Cochain(R, v.ell + 1)
                        for (J2, e2), c in sk_model_d2_row(
                                sk, part, J, expo).items():
                            got = got + model_vector(R, sk, part, J2,
                                                     e2).scale(c)
                        assert got.to_row() == diff(v, "d2").to_row(), \
                            (part, J, expo)


@pytest.mark.parametrize("n,k", MODEL_SHAPES)
def test_sk_model_basis_is_the_dominant_family(n, k):
    # evaluated, the model pairs of a cell are the dominant family of
    # invariant_family, block by block and in family order
    R, sk = FockRing(n, k), SkRing(k)
    for part in ("plus", "minus"):
        for ell in range(n + 1):
            for d in range(5):
                fam = {}
                for mu, row in invariant_family(R, part, ell, [d],
                                                dominant=True)[d]:
                    fam.setdefault(mu, []).append(cochain_of_row(R, ell, row))
                model = sk_model_basis(sk, n, part, ell, d)
                assert {mu: [model_vector(R, sk, part, J, m)
                             for J, m in pairs]
                        for mu, pairs in model.items()} == fam, \
                    (part, ell, d)


# The merges that Cochain.from_terms replaced, and verify's two random
# builders before it, verbatim apart from their names and the module's
# helpers read as fock.<name>: the oracles of the one merge.


def old_diff(c, mode="full"):
    """The differential (or one of its pieces) applied to a cochain.

    mode: full = d2 + dm2; d2 = the -z_{alpha j} w_j term; dm2 = the
    second-derivative term.  The graded differential d' is -d2, and its
    consumers take ranks only, which ignore the sign, so it has no mode
    of its own.
    """
    if mode not in ("full", "d2", "dm2"):
        raise ValueError("unknown mode %r" % mode)
    ring = c.ring
    n, k = ring.n, ring.k
    acc = {}  # bits -> {expo: coef}

    def bump(bits, poly, sign):
        if not poly:
            return
        tgt = acc.setdefault(bits, {})
        for e, v in poly.terms.items():
            nv = tgt.get(e, 0) + sign * v
            if nv:
                tgt[e] = nv
            elif e in tgt:
                del tgt[e]

    for bits, f in c.parts.items():
        for alpha in range(1, n + 1):
            s, nb = fock.wedge_bits(1 << (alpha - 1), bits)
            if not s:
                continue
            for j in range(1, k + 1):
                if mode in ("full", "dm2"):
                    bump(nb, f.partial(ring.z(alpha, j)).partial(ring.w(j)), s)
                if mode in ("full", "d2"):
                    bump(nb, ring.z_var(alpha, j) * ring.w_var(j) * f, -s)

    parts = {b: Polynomial(ring, t) for b, t in acc.items() if t}
    return Cochain(ring, c.ell + 1, parts)


def old_outer_product(a, b):
    """(omega_I (x) f) ^ (omega_J (x) g) = (omega_I ^ omega_J) (x) f g',
    with g' the polynomial g relabeled to the fresh vector slots."""
    if a.ring.n != b.ring.n:
        raise ValueError("mismatched n")
    n = a.ring.n
    k1, k2 = a.ring.k, b.ring.k
    big = FockRing(n, k1 + k2)
    out = Cochain(big, a.ell + b.ell)
    for bi, f in a.parts.items():
        fe = fock._embed_poly(f, big, 0)
        for bj, g in b.parts.items():
            s, nb = fock.wedge_bits(bi, bj)
            if not s:
                continue
            ge = fock._embed_poly(g, big, k1)
            out = out + Cochain(big, a.ell + b.ell, {nb: (fe * ge).scale(s)})
    return out


def old_son_act_cochain(a, b, c):
    """The generator X_ab acting as a derivation: the rotation of the form
    indices (X.omega_a = omega_b, X.omega_b = -omega_a) plus the polyring
    action on coefficients.  Normalized so that X.phi_1 = 0.  The merge of
    _gen_act_basis over the terms of c."""
    if not a < b:
        raise ValueError("need a < b")
    ring = c.ring
    acc = {}  # bits -> [(expo, coef)]
    for bits, f in c.parts.items():
        for e, v in f.terms.items():
            for (nb, ne), x in fock._gen_act_basis(ring.n, ring.k, a, b, bits,
                                                   e).items():
                acc.setdefault(nb, []).append((ne, v * x))
    return Cochain(ring, c.ell, {nb: Polynomial._merge(ring, items)
                                 for nb, items in acc.items()})


def old_involution(c, which):
    """iota and iota_prime part by part: each polynomial with x |-> -x
    substituted for the flipped variables, times the sign of its form."""
    ring = c.ring

    def sign_flip(p, vidxs):
        return Polynomial(ring, {e: -v if sum(e[i] for i in vidxs) % 2
                                 else v for e, v in p.terms.items()})

    if which == "iota":
        zvars = [ring.z(1, i) for i in range(1, ring.k + 1)]
        return Cochain(ring, c.ell, {
            bits: sign_flip(p, zvars).scale(-1 if bits & 1 else 1)
            for bits, p in c.parts.items()})
    if which == "iota_prime":
        wvars = [ring.w(i) for i in range(1, ring.k + 1)]
        s = (-1) ** c.ell
        return Cochain(ring, c.ell, {b: sign_flip(p, wvars).scale(s)
                                     for b, p in c.parts.items()})
    raise ValueError("unknown involution %r" % which)


def old_random_cochain(ring, rng, ell):
    """Three random terms, each a monomial of degree <= 3."""
    c = Cochain(ring, ell)
    for _ in range(3):
        I = tuple(sorted(rng.sample(range(1, ring.n + 1), ell)))
        p = ring.one().scale(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 3)):
            p = p * ring.var(rng.randrange(ring.nvars))
        c = c + Cochain(ring, ell, {bits_of(I): p} if p else {})
    return c


def old_random_invariant_cochain(ring, rng, ell):
    """A random combination of the invariant families of degree <= 3."""
    c = Cochain(ring, ell)
    for pairs in invariant_family(ring, "full", ell, range(4)).values():
        for _, row in pairs:
            x = rng.randint(-3, 3)
            if x:
                c = c + cochain_of_row(ring, ell, row).scale(x)
    return c


MERGE_SHAPES = [(1, 1), (2, 2), (3, 2), (2, 3)]


def merge_inputs(R, rng):
    """Random cochains at every level, their full d (whose d is zero, so
    every term of d d cancels) and a random invariant cochain."""
    out = []
    for ell in range(R.n + 1):
        c = random_cochain(R, rng, ell, nterms=6)
        out += [c, diff(c)] if ell < R.n else [c]
    out.append(random_invariant_cochain(R, rng, 1, max_deg=2))
    return out


@pytest.mark.parametrize("n,k", MERGE_SHAPES)
def test_diff_matches_the_previous_merge(n, k):
    # the same terms in the same order: the rows of the direct route and
    # the pages are labeled in that order
    R = FockRing(n, k)
    for c in merge_inputs(R, random.Random(100 * n + k)):
        for mode in ("full", "d2", "dm2"):
            got, want = diff(c, mode), old_diff(c, mode)
            assert got == want, (c, mode)
            assert list(got.to_row().items()) == \
                list(want.to_row().items()), (c, mode)


ROW_DIFF_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,k", ROW_DIFF_SHAPES)
def test_row_diff_is_diff_on_the_family_rows(n, k):
    # every plus and minus family vector at every level through degree
    # 5: the closed-form row differential is diff's row,
    # term for term and in order, and the merge before from_terms agrees
    R = FockRing(n, k)
    for ell in range(n + 1):
        fam = invariant_family(R, "full", ell, range(6))
        for row in (row for pairs in fam.values() for _, row in pairs):
            v = cochain_of_row(R, ell, row)
            got = row_diff(n, k, row)
            assert list(got.items()) == \
                list(diff(v, "full").to_row().items()), v
            assert got == old_diff(v).to_row(), v


@pytest.mark.parametrize("n,k", MERGE_SHAPES)
def test_row_diff_is_diff_on_any_row(n, k):
    # arbitrary rows, their index sets interleaved: row_diff groups the
    # terms by index set in order of first appearance, as from_terms does
    rng = random.Random(500 * n + k)
    R = FockRing(n, k)
    for c in merge_inputs(R, rng):
        terms = list(c.to_row().items())
        rng.shuffle(terms)
        row = dict(terms)
        want = diff(Cochain.from_terms(R, c.ell, terms), "full").to_row()
        assert list(row_diff(n, k, row).items()) == list(want.items()), c
    assert row_diff(n, k, {}) == {}


def test_dominant_rows_multiply_only_in_minors_and_images(monkeypatch):
    # the family rows are merged products of row terms and their images
    # come from row_diff: no Cochain is differentiated or flattened, and
    # Polynomial products run only inside minor and the memoised images
    # of sk_evaluate (_rhat_image, and r_gen, the r(i,j) it multiplies by)
    def refuse(*args, **kwargs):
        raise AssertionError("Cochain route called")

    mul, callers = Polynomial.__mul__, set()

    def logged(self, other):
        callers.add(sys._getframe(1).f_code.co_name)
        return mul(self, other)

    monkeypatch.setattr(fock, "diff", refuse)
    monkeypatch.setattr(Cochain, "to_row", refuse)
    monkeypatch.setattr(Polynomial, "__mul__", logged)
    for n, k, part in ((2, 2, "full"), (3, 2, "minus"), (2, 3, "plus")):
        R = FockRing(n, k)
        for ell in range(n + 1):
            for block in dominant_rows(R, part, ell, range(5)).values():
                for pairs in block.values():
                    assert all(row and img is not None
                               for row, img in pairs)
    assert callers == {"minor", "_rhat_image", "r_gen"}


@pytest.mark.parametrize("n,k", MERGE_SHAPES)
def test_son_act_cochain_matches_the_previous_merge(n, k):
    R = FockRing(n, k)
    for c in merge_inputs(R, random.Random(200 * n + k)):
        for a, b in itertools.combinations(range(1, n + 1), 2):
            got, want = son_act_cochain(a, b, c), old_son_act_cochain(a, b, c)
            assert got == want, (c, a, b)
            assert list(got.to_row().items()) == \
                list(want.to_row().items()), (c, a, b)


@pytest.mark.parametrize("n,k", MERGE_SHAPES)
def test_involution_matches_the_previous_sign_flip(n, k):
    R = FockRing(n, k)
    for c in merge_inputs(R, random.Random(400 * n + k)):
        for which in ("iota", "iota_prime"):
            got, want = involution(c, which), old_involution(c, which)
            assert got == want, (c, which)
            assert list(got.to_row().items()) == \
                list(want.to_row().items()), (c, which)
        with pytest.raises(ValueError, match="unknown involution"):
            involution(c, "iota_second")


@pytest.mark.parametrize("n,k", MERGE_SHAPES)
def test_outer_product_matches_the_previous_sum(n, k):
    # k splits as k1 + k2 with k2 >= 1; for k = 1 both factors take k = 1
    rng = random.Random(300 * n + k)
    k1 = max(1, k - 1)
    R1, R2 = FockRing(n, k1), FockRing(n, max(1, k - k1))
    for _ in range(6):
        a = random_cochain(R1, rng, rng.randint(0, n), nterms=5)
        b = random_cochain(R2, rng, rng.randint(0, n), nterms=5)
        for x, y in ((a, b), (diff(a), b), (a, diff(b)), (b, a)):
            assert outer_product(x, y) == old_outer_product(x, y), (x, y)


@pytest.mark.parametrize("n,k", MERGE_SHAPES)
def test_verify_random_cochains_match_the_previous_sums(n, k):
    # the same cochains from the same draws, leaving the generator in the
    # same state, so the verify documents do not change
    R = FockRing(n, k)
    rows = {}  # the family rows of each level, shared by the draws

    def random_invariant(ring, rng, ell):
        return verify._random_invariant_cochain(ring, rng, ell, rows)

    for new, old in ((verify._random_cochain, old_random_cochain),
                     (random_invariant, old_random_invariant_cochain)):
        r1, r2 = random.Random(n * k), random.Random(n * k)
        for _ in range(8):
            ell = r1.randint(0, n)
            assert ell == r2.randint(0, n)
            assert new(R, r1, ell) == old(R, r2, ell), (new, ell)
            assert r1.getstate() == r2.getstate()


def test_closedness_builds_each_level_once(monkeypatch):
    # the random invariant cochains of one suite call share the family
    # rows of each level they draw
    built = []

    def counted(ring, part, ell, degrees, dominant=False):
        built.append(ell)
        return invariant_family(ring, part, ell, degrees, dominant)

    monkeypatch.setattr(verify, "invariant_family", counted)
    assert all(v["pass"] for v in verify.suite_closedness(3, 2, 0))
    assert built and len(built) == len(set(built))


def test_from_terms_inverts_to_row():
    rng = random.Random(7)
    for n, k in MERGE_SHAPES:
        R = FockRing(n, k)
        for c in merge_inputs(R, rng):
            assert Cochain.from_terms(R, c.ell, c.to_row().items()) == c
        assert Cochain.from_terms(R, 1, []) == Cochain(R, 1)


def test_from_terms_merges_repeated_and_cancelling_keys():
    R = FockRing(2, 2)
    x, y = R.z_var(1, 1), R.w_var(2) * R.z_var(2, 1)
    (ex,), (ey,) = x.terms, y.terms
    got = Cochain.from_terms(R, 1, [
        ((0b01, ex), 2), ((0b10, ey), 1), ((0b01, ex), 3),
        ((0b10, ey), -1), ((0b01, ey), 4), ((0b10, ex), 0)])
    assert got == Cochain(R, 1, {0b01: x.scale(5) + y.scale(4)})
    assert list(got.parts) == [0b01]
    # a key that cancels and comes back is added again
    got = Cochain.from_terms(R, 1, [((0b10, ex), 1), ((0b10, ex), -1),
                                    ((0b10, ex), 6)])
    assert got == Cochain(R, 1, {0b10: x.scale(6)})
    # on random terms with many collisions: the sum of the one-term
    # cochains
    rng = random.Random(8)
    mons = [e for d in range(3) for e in monomials_of_degree(R, d)][:6]
    for _ in range(20):
        terms = [((rng.choice((0b01, 0b10)), rng.choice(mons)),
                  rng.randint(-2, 2)) for _ in range(12)]
        want = Cochain(R, 1)
        for (bits, e), v in terms:
            want = want + Cochain(R, 1, {bits: Polynomial(R, {e: v} if v
                                                          else {})})
        assert Cochain.from_terms(R, 1, terms) == want
    with pytest.raises(ValueError, match="bad index set"):
        Cochain.from_terms(R, 2, [((0b01, ex), 1)])
