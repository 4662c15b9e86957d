"""Tests for the polynomial-degree spectral sequence."""

import itertools

import pytest

import weilcoh.fock as fock
import weilcoh.spectral as spectral
from weilcoh.fock import (
    diff,
    direct_cohomology_dims,
    invariant_family,
    invariant_quotient_dims,
    orbit_size,
)
from weilcoh.fock import sk_model_d2_row, sk_model_pairs, sk_model_table
from weilcoh.linalg import Eliminator, rank_of_rows
from weilcoh.polyring import (
    FockRing,
    Polynomial,
    SkRing,
    q_gen,
    sk_c_sequence,
)
from weilcoh.spectral import (
    SpectralComputer,
    e1_dims,
    einf_and_converge,
    regrade,
    unregrade,
)


def z_dim(comp, ell, mu, t, dx_bound):
    """dim { x in span(weight-mu family at ell, deg <= t) : deg(dx) <=
    dx_bound } as rank(family) - rank(out-of-bound parts of the images),
    with no kernel rows."""
    ev, eout = Eliminator(), Eliminator()
    for row, img in comp._pairs_upto(ell, mu, t):
        ev.add_row(row)
        eout.add_row({key: v for key, v in img.items()
                      if sum(key[1]) > dx_bound})
    return ev.rank - eout.rank


def page_oracle(comp, r):
    """E_r by dim Z_r minus the rank of the B_r + Z_{r-1} rows."""
    dims = {}
    for ell in range(comp.ring.n + 1):
        for t in range(comp.D + 1):
            total = 0
            for mu in comp.blocks[ell]:
                zdim = z_dim(comp, ell, mu, t, t + 2 - r)
                if zdim == 0:
                    continue
                denom = Eliminator()
                for row in comp.b_rows(ell, mu, t, t - 3 + r):
                    denom.add_row(row)
                for row in comp.z_rows(ell, mu, t - 1, t + 2 - r):
                    denom.add_row(row)
                total += orbit_size(mu) * (zdim - denom.rank)
            if total:
                dims[regrade(ell, t)] = total
    return dims


@pytest.mark.parametrize("n,k,part,D", [
    (3, 1, "full", 3), (2, 2, "full", 2), (1, 2, "full", 3),
    (2, 1, "plus", 3),
    (2, 3, "full", 1),  # k > n: the families are dependent
])
def test_pages_match_rank_oracle(n, k, part, D):
    comp = SpectralComputer(FockRing(n, k), part, D)
    for r in (1, 2, 3, 5, 7):
        assert comp.page(r).dims == page_oracle(comp, r), r


@pytest.mark.parametrize("n,k,part,D", [
    (2, 2, "full", 3), (1, 2, "full", 3), (3, 1, "full", 4),
    (2, 1, "minus", 4),
])
def test_e1_two_ways(n, k, part, D):
    # graded d2 ranks against the Z/B formula at r = 1
    R = FockRing(n, k)
    page1 = SpectralComputer(R, part, D).page(1)
    assert e1_dims(R, part, D).dims == page1.dims


@pytest.mark.parametrize("n,k,part,D", [
    (2, 1, "full", 6), (3, 1, "full", 8), (3, 2, "full", 6),
    (3, 2, "minus", 6), (4, 2, "full", 6), (4, 3, "full", 5),
])
def test_e1_model_matches_the_fock_route(n, k, part, D):
    # k < n: the S_k model's counts and d2 rows against the evaluated
    # families and their Fock d2
    R = FockRing(n, k)
    assert e1_dims(R, part, D).dims == spectral._e1_fock(R, part, D).dims


# The model E_1 as it was before one table per call and one Eliminator
# per cell, verbatim apart from the names: sk_model_basis once per
# (part, ell, t) and one rank_of_rows per weight block.  Kept as the
# oracle of the one-pass route.


def sk_model_basis(sk, n, part, ell, d):
    """{weight: [(J, m)]} of the dominant pairs of sk_model_pairs.  For
    k < n these vectors are a basis of the dominant invariant cochains
    (the paper's theorem), so nothing is evaluated."""
    out = {}
    for mu, J, expo in sk_model_pairs(sk, n, part, ell, d, True):
        out.setdefault(mu, []).append((J, expo))
    return out


def old_e1_model(ring, part, max_degree):
    n = ring.n
    sk = SkRing(ring.k)
    parts = ("plus", "minus") if part == "full" else (part,)

    def level_ranks(ell):
        for t in range(max_degree + 1):
            rv = ri = 0
            for p in parts:
                for mu, basis in sk_model_basis(sk, n, p, ell, t).items():
                    mult = orbit_size(mu)
                    rv += mult * len(basis)
                    ri += mult * rank_of_rows(sk_model_d2_row(sk, p, J, m)
                                              for J, m in basis)
            yield rv, ri

    return spectral._e1_page(n, max_degree, level_ranks)


@pytest.mark.parametrize("n,k,D,parts", [
    (2, 1, 8, ("full",)), (3, 1, 8, ("full",)),
    (3, 2, 8, ("plus", "minus", "full")), (4, 2, 8, ("full",)),
    (4, 3, 6, ("full",)), (5, 2, 8, ("full",)), (8, 3, 6, ("full",)),
])
def test_e1_model_matches_the_per_block_route(n, k, D, parts):
    R = FockRing(n, k)
    for part in parts:
        assert e1_dims(R, part, D).dims == old_e1_model(R, part, D).dims, \
            part


@pytest.mark.parametrize("n,k,D", [(2, 1, 8), (3, 2, 8), (4, 3, 6),
                                   (5, 4, 5)])
def test_model_table_holds_the_pairs_of_every_cell(n, k, D):
    # each entry is the dominant blocks of sk_model_basis, with their
    # orbit sizes, in the same order; plus at level |J| and minus at
    # level n - |J| read the same entry, and nothing else is in the table
    sk = SkRing(k)
    table = sk_model_table(sk, D)
    read = set()
    for part in ("plus", "minus"):
        for ell in range(n + 1):
            jsize = ell if part == "plus" else n - ell
            for t in range(D + 1):
                want = [(orbit_size(mu), pairs) for mu, pairs in
                        sk_model_basis(sk, n, part, ell, t).items()]
                assert table.get((jsize, t - jsize), []) == want, \
                    (part, ell, t)
                if (jsize, t - jsize) in table:
                    read.add((jsize, t - jsize))
    assert read == set(table)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_model_d2_preserves_the_weight(k):
    # the lemma behind one Eliminator per cell: every label (J', m') of
    # the d2 row of (J, m) has the weight of (J, m), so the rows of
    # different weight blocks have disjoint columns
    sk = SkRing(k)
    n = k + 1

    def weight(J, m):
        return tuple(a + (j in J) for j, a in enumerate(sk.weight(m), 1))

    for d in range(7):
        for part in ("plus", "minus"):
            for ell in range(n + 1):
                for mu, J, m in sk_model_pairs(sk, n, part, ell, d, False):
                    assert weight(J, m) == mu
                    row = sk_model_d2_row(sk, part, J, m)
                    assert all(weight(J2, m2) == mu for J2, m2 in row), \
                        (part, J, m)


def test_e1_model_builds_no_fock_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fock route called")

    for name in ("diff", "invariant_family"):
        monkeypatch.setattr(spectral, name, refuse)
    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    assert e1_dims(FockRing(3, 2), "full", 6).dims


def test_regrade_round_trip():
    for ell in range(-1, 6):
        for t in range(0, 12):
            assert unregrade(*regrade(ell, t)) == (ell, t)
    # the diagonal cochain classes sit at q = 0, the volume row at q = -n
    assert regrade(3, 3) == (3, 0)
    assert regrade(4, 0) == (8, -4)


def test_e1_concentration_k_less_n():
    # (n,k) = (3,2): the +1 part lives on the ell = k row with binomial
    # dims 1, 3 at degrees 2, 4; the -1 part on the ell = n row with the
    # quotient dims 1, 2, 6, 8, 16 at degrees 0..4
    R = FockRing(3, 2)
    plus = e1_dims(R, "plus", 4)
    assert plus.dims == {regrade(2, 2): 1, regrade(2, 4): 3}
    minus = e1_dims(R, "minus", 4)
    expect = {regrade(3, t): d for t, d in enumerate([1, 2, 6, 8, 16])}
    assert minus.dims == expect


def test_e1_top_row_is_invariant_quotient():
    # k >= n: the top row of E_1 is the invariant part of P_k/(q)
    R = FockRing(2, 2)
    got = e1_dims(R, "full", 4)
    quo = invariant_quotient_dims(R, [q_gen(R, 1), q_gen(R, 2)], 4)
    expect = {regrade(2, t): d for t, d in quo.items() if d}
    assert got.dims == expect
    # and nothing below the top row
    assert all(unregrade(p, q)[0] == 2 for (p, q) in got.dims)


# the hypothesis of the descent lemma (fock module docstring): E_1 = 0
# at every level that is a domain, so every coboundary inside degree
# <= t is d of a cochain of degree <= t - 2
DESCENT_SHAPES = [
    (1, 1, "full", 6), (2, 1, "plus", 6), (2, 1, "minus", 6),
    (2, 1, "full", 6), (3, 1, "full", 6), (4, 1, "full", 5),
    (1, 2, "full", 5), (2, 2, "full", 4), (2, 2, "plus", 4),
    (3, 2, "minus", 5), (3, 2, "plus", 5), (3, 2, "full", 4),
    (2, 3, "full", 3), (2, 3, "minus", 3), (1, 3, "full", 4),
    (4, 3, "full", 3),
]


@pytest.mark.parametrize("n,k,part,D", DESCENT_SHAPES)
def test_e1_vanishes_at_every_domain_level(n, k, part, D):
    # E_1 sits on level n, except the +1 part for k < n, which sits on
    # level k and has no level k + 1 for it to be the domain of.  iota
    # splits the complex into its parts, and the lemma holds part by
    # part, so for k < n the full complex is checked one part at a time.
    # For k < n e1_dims runs on the S_k model, so the Fock route is run
    # as well: the certificate then covers fock.diff itself
    R = FockRing(n, k)
    parts = ("plus", "minus") if part == "full" and k < n else (part,)
    routes = (e1_dims, spectral._e1_fock) if k < n else (e1_dims,)
    for p in parts:
        for route in routes:
            levels = {unregrade(*cell)[0] for cell in route(R, p, D).dims}
            assert levels <= ({k} if p == "plus" and k < n else {n}), \
                (p, route.__name__)
    if k < n and "plus" in parts:
        assert not any(invariant_family(R, "plus", k + 1,
                                        range(D + 1)).values())


def lex_leading(poly, first):
    """The exponent of the lex-leading term of poly, with the variables
    of first ranked above the others, which follow in index order."""
    order = list(first) + [v for v in range(poly.ring.nvars)
                           if v not in first]
    return max(poly.terms, key=lambda e: [e[v] for v in order])


def exponent(monomial):
    (e,) = monomial.terms
    return e


def pairwise_coprime(exponents):
    return all(not any(a and b for a, b in zip(x, y))
               for x, y in itertools.combinations(exponents, 2))


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3),
                                 (3, 4), (4, 4)])
def test_q_leading_terms_are_pairwise_coprime(n, k):
    # k >= n, lex with z_11 > ... > z_nn first: LT(q_a) = z_aa w_a, so the
    # q_a are a Groebner basis of a complete intersection
    R = FockRing(n, k)
    diagonal = [R.z(a, a) for a in range(1, n + 1)]
    lts = [lex_leading(q_gen(R, a), diagonal) for a in range(1, n + 1)]
    assert lts == [exponent(R.z_var(a, a) * R.w_var(a))
                   for a in range(1, n + 1)]
    assert pairwise_coprime(lts)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_c_leading_terms_are_pairwise_coprime(k):
    # lex with rhat_11 > ... > rhat_kk first: LT(c_j) = rhat_jj what_j
    S, cs = sk_c_sequence(k)
    diagonal = [S.rhat(j, j) for j in range(1, k + 1)]
    lts = [lex_leading(c, diagonal) for c in cs]
    assert lts == [exponent(S.rhat_var(j, j) * S.what_var(j))
                   for j in range(1, k + 1)]
    assert pairwise_coprime(lts)


def test_pages_monotone_and_stable():
    comp = SpectralComputer(FockRing(3, 1), "full", 3)
    pages = {r: comp.page(r).dims for r in (1, 2, 3, 5, 7)}
    cells = set().union(*pages.values())
    rs = sorted(pages)
    for a, b in zip(rs, rs[1:]):
        for c in cells:
            assert pages[b].get(c, 0) <= pages[a].get(c, 0)
    # this example degenerates immediately
    assert pages[1] == pages[7]


def test_converge_n3_k1():
    R = FockRing(3, 1)
    rep = einf_and_converge(R, "full", 4)
    assert rep.ok
    # E_infinity = E_1 here
    assert rep.einf.dims == e1_dims(R, "full", 4).dims
    # and both match the graded direct cohomology
    assert rep.einf.dims == rep.gr_dims


def test_converge_n2_k2_small_window():
    rep = einf_and_converge(FockRing(2, 2), "full", 2)
    assert rep.ok
    assert rep.einf.dims == rep.gr_dims
    assert rep.gr_dims == {regrade(2, t): d for t, d in
                           enumerate([1, 2, 7])}


def test_pages_build_each_family_once(monkeypatch):
    # the direct route reads the store of the pages, so a pages call
    # differentiates exactly what its SpectralComputer alone does
    calls = []

    def counted(c, mode="full"):
        calls.append(mode)
        return diff(c, mode)

    monkeypatch.setattr(fock, "diff", counted)
    monkeypatch.setattr(spectral, "diff", counted)
    SpectralComputer(FockRing(2, 2), "full", 2)
    alone = len(calls)
    calls.clear()
    einf_and_converge(FockRing(2, 2), "full", 2)
    assert alone and len(calls) == alone


class LoggedCell:
    """A stored cell of a SpectralComputer that logs its key each time it
    is read."""

    def __init__(self, pairs, key, log):
        self.pairs, self.key, self.log = pairs, key, log

    def __iter__(self):
        self.log.add(self.key)
        return iter(self.pairs)


@pytest.mark.parametrize("n,k,part,D", [(1, 1, "full", 2),
                                        (2, 2, "full", 1),
                                        (2, 2, "full", 3)])
def test_shared_route_reads_its_whole_domain(n, k, part, D):
    # the route reads the store's cocycle level through degree D and the
    # blocks of the same weights at the domain level through degree
    # D - 2, and nothing else
    R = FockRing(n, k)
    comp = SpectralComputer(R, part, D)
    reads, unread = set(), set()
    for ell, level in comp.blocks.items():
        for mu, block in level.items():
            for d in block:
                block[d] = LoggedCell(block[d], (ell, mu, d), reads)
    for ell in range(n + 1):
        reads.clear()
        rep = direct_cohomology_dims(R, part, ell, D, store=comp)
        want = {(ell, mu, d) for mu, block in comp.blocks[ell].items()
                for d in block}
        if ell >= 1:
            domain = {(ell - 1, mu, d)
                      for mu, block in comp.blocks[ell - 1].items()
                      for d in block}
            want |= {(lvl, mu, d) for lvl, mu, d in domain
                     if mu in comp.blocks[ell] and d <= D - 2}
            unread |= domain - want
        assert reads == want, ell
        alone = direct_cohomology_dims(R, part, ell, D)
        assert rep.dims == alone.dims, ell
    # the store holds domain cells that the route must skip
    assert unread


def test_nonzero_d4_dies_at_e5():
    # a hand-built filtered complex: x at level 0, degree 4, and y at
    # level 1, degree 2, with d x = y.  d lowers the degree by 2, so it
    # is a d_4 from (-4, 4) to (0, 1): both cells live through E_4 and
    # die at E_5.  Shifting the B_r domain bound t - 3 + r either way
    # changes E_4.
    comp = object.__new__(SpectralComputer)
    comp.ring = FockRing(1, 1)
    comp.D = 4
    x = {(0, (4, 0)): 1}
    y = {(1, (2, 0)): 1}
    comp.blocks = {0: {(0,): {4: [(x, y)]}}, 1: {(0,): {2: [(y, {})]}}}
    for r in range(1, 5):
        assert comp.page(r).dims == {(-4, 4): 1, (0, 1): 1}, r
    for r in range(5, 8):
        assert comp.page(r).dims == {}, r
