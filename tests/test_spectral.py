"""Tests for the polynomial-degree spectral sequence."""

import itertools
import json

import pytest

import weilcoh.fock as fock
import weilcoh.spectral as spectral
from weilcoh import cli
from weilcoh.fock import (
    degree_reader,
    direct_cohomology_dims,
    invariant_family,
    invariant_quotient_dims,
    orbit_size,
    pm_basis_vectors,
    row_bits,
)
from weilcoh.fock import sk_model_pairs
from weilcoh.koszul import regular_sequence_check
from weilcoh.linalg import Eliminator, rank_of_rows
from weilcoh.polyring import (
    FockRing,
    Polynomial,
    SkRing,
    pack,
    q_gen,
    sk_c_sequence,
)
from weilcoh.spectral import (
    SpectralComputer,
    e1_dims,
    einf_and_converge,
    regrade,
)


def z_dim(comp, ell, mu, t, dx_bound):
    """dim { x in span(weight-mu family at ell, deg <= t) : deg(dx) <=
    dx_bound } as rank(family) - rank(out-of-bound parts of the images),
    with no kernel rows; the degrees are read off the images unpacked
    digit by digit."""
    from test_fock import unpacked  # test_fock imports this module

    ev, eout = Eliminator(), Eliminator()
    for row, img in comp._pairs_upto(ell, mu, t):
        ev.add_row(row)
        eout.add_row({key: v for key, v in
                      unpacked(comp.ring, img, comp.D).items()
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
                dims[ell, t] = total
    return dims


@pytest.mark.parametrize("n,k,part,D", [
    (3, 1, "full", 3), (2, 2, "full", 2), (1, 2, "full", 3),
    (2, 1, "plus", 3),
    (2, 3, "full", 1),  # k > n: the families are dependent
])
def test_pages_match_rank_oracle(n, k, part, D):
    comp = SpectralComputer(FockRing(n, k), part, D)
    for r in (1, 2, 3, 5, 7):
        assert comp.page(r) == page_oracle(comp, r), r


@pytest.mark.parametrize("n,k,part,D", [
    (2, 2, "full", 3), (1, 2, "full", 3), (3, 1, "full", 4),
    (2, 1, "minus", 4),
])
def test_e1_two_ways(n, k, part, D):
    # graded d2 ranks against the Z/B formula at r = 1
    R = FockRing(n, k)
    page1 = SpectralComputer(R, part, D).page(1)
    assert e1_dims(R, part, D) == page1


@pytest.mark.parametrize("n,k,part,D", [
    (2, 1, "full", 6), (3, 1, "full", 8), (3, 2, "full", 6),
    (3, 2, "minus", 6), (4, 2, "full", 6), (4, 3, "full", 5),
])
def test_e1_model_matches_the_fock_route(n, k, part, D):
    # k < n: the quotients of the Koszul prefix tables against the
    # evaluated families and their Fock d2
    R = FockRing(n, k)
    assert e1_dims(R, part, D) == spectral._e1_fock(R, part, D)


# The model E_1 as it was computed before it was read off the Koszul
# prefix tables: the d2 rows of the S_k model in closed form, one
# monomial per term, and every cell of the page eliminated, with
# sk_model_basis once per (part, ell, t) and one rank_of_rows per weight
# block.  Kept as the oracle of the Koszul route, which computes only
# the ends of the two complexes.


def sk_model_d2_row(sk, part, J, expo):
    """The d2 row {(J', m'): coef} of m . Phi_J (plus) or m . *Phi_J
    (minus), m the S_k monomial expo, in the pairs of sk_model_pairs:

        d2(m Phi_J)  = -sum_{i not in J} (-1)^#{j in J : j < i}
                           (what_i m) Phi_{J + i}
        d2(m *Phi_J) = -sum_{j in J} (-1)^(p_j + |J| + 1)
                           (c_j m) *Phi_{J - j},

    with c_j = sum_i rhat(i,j) what(i) and p_j the 0-based position of j
    in J.  Each term is one monomial, and distinct terms have distinct
    keys.  The plus formula assumes |J| + 1 <= n, as k < n gives."""
    k = sk.k
    row = {}
    if part == "plus":
        for i in range(1, k + 1):
            if i in J:
                continue
            below = sum(j < i for j in J)
            e = list(expo)
            e[sk.what(i)] += 1
            row[tuple(sorted(J + (i,))), tuple(e)] = -(-1) ** below
        return row
    for p, j in enumerate(J):
        sign = -(-1) ** (p + len(J) + 1)
        rest = J[:p] + J[p + 1:]
        for i in range(1, k + 1):
            e = list(expo)
            e[sk.rhat(i, j)] += 1
            e[sk.what(i)] += 1
            row[rest, tuple(e)] = sign
    return row


def sk_model_basis(sk, n, part, ell, d):
    """{weight: [(J, m)]} of the dominant pairs of sk_model_pairs.  For
    k < n these vectors are a basis of the dominant invariant cochains
    (the paper's theorem), so nothing is evaluated."""
    out = {}
    for mu, J, expo in sk_model_pairs(sk, n, part, ell, d, True):
        out.setdefault(mu, []).append((J, expo))
    return out


def old_e1_model(ring, part, max_degree):
    """The E_1 page cell by cell on the S_k model: the cell (ell, t) has
    the orbit-weighted rank of its basis less that of its d2 image and of
    the d2 image of the cell (ell - 1, t - 2) below it."""
    n = ring.n
    sk = SkRing(ring.k)
    parts = ("plus", "minus") if part == "full" else (part,)
    img_rank = {}  # (ell, t) -> orbit-weighted rank of the d2-image
    data = {}
    for ell in range(n + 1):
        for t in range(max_degree + 1):
            rv = ri = 0
            for p in parts:
                for mu, basis in sk_model_basis(sk, n, p, ell, t).items():
                    mult = orbit_size(mu)
                    rv += mult * len(basis)
                    ri += mult * rank_of_rows(sk_model_d2_row(sk, p, J, m)
                                              for J, m in basis)
            img_rank[ell, t] = ri
            dim = rv - ri - img_rank.get((ell - 1, t - 2), 0)
            if dim:
                data[ell, t] = dim
    return data


@pytest.mark.parametrize("n,k,D,parts", [
    (2, 1, 8, ("full",)), (3, 1, 8, ("full",)),
    (3, 2, 8, ("plus", "minus", "full")), (4, 2, 8, ("full",)),
    (4, 3, 6, ("full",)), (5, 2, 8, ("full",)), (8, 3, 6, ("full",)),
    (5, 4, 7, ("plus", "minus", "full")),
    (3, 2, 1, ("plus",)),  # below degree k: no +1 table is read
])
def test_e1_model_matches_the_per_block_route(n, k, D, parts):
    R = FockRing(n, k)
    for part in parts:
        assert e1_dims(R, part, D) == old_e1_model(R, part, D), \
            part


def test_e1_model_refuses_a_failed_certificate(monkeypatch):
    # the page is read off the quotient only when the regularity
    # certificate of the same table passes; a failure is no argument
    # error, so it is not a ValueError
    def failing(spec, hilb):
        cert = regular_sequence_check(spec, hilb)
        cert.failure_degree[-1] = 5
        return cert

    monkeypatch.setattr(spectral, "regular_sequence_check", failing)
    for part, model in (("plus", "w"), ("minus", "c"), ("full", "w")):
        with pytest.raises(RuntimeError) as exc:
            e1_dims(FockRing(3, 2), part, 6)
        assert str(exc.value) == ("E_1 model %s: the sequence is not "
                                  "regular, failure degrees [5]" % model)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_model_d2_preserves_the_weight(k):
    # the lemma behind the per-block ranks of old_e1_model: every label
    # (J', m') of the d2 row of (J, m) has the weight of (J, m), so the
    # rows of different weight blocks have disjoint columns
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
    # the c sequence is built from S_k products, so only a product in a
    # FockRing is refused
    def refuse(*args, **kwargs):
        raise AssertionError("Fock route called")

    mul = Polynomial.__mul__

    def sk_only(self, other):
        if isinstance(self.ring, FockRing):
            refuse()
        return mul(self, other)

    for name in ("diff", "invariant_family"):
        monkeypatch.setattr(spectral, name, refuse)
    monkeypatch.setattr(Polynomial, "__mul__", sk_only)
    assert e1_dims(FockRing(3, 2), "full", 6)


PART_ERROR = "part must be plus, minus or full"


@pytest.mark.parametrize("n,k", [(3, 2), (2, 2)])
def test_e1_rejects_an_unknown_part(n, k):
    # the Koszul route (k < n) and the Fock route (k >= n) alike
    with pytest.raises(ValueError) as exc:
        e1_dims(FockRing(n, k), "bogus", 3)
    assert str(exc.value) == PART_ERROR


# the other entry points that take a part
PART_ENTRY_POINTS = {
    "invariant_family": lambda R: invariant_family(R, "bogus", 1, ()),
    "pm_basis_vectors": lambda R: pm_basis_vectors(R, "bogus", 1, 0),
    "direct_cohomology_dims": lambda R: direct_cohomology_dims(
        R, "bogus", 1, 3),
    "einf_and_converge": lambda R: einf_and_converge(R, "bogus", 2),
}


@pytest.mark.parametrize("n,k", [(3, 2), (2, 2)])
@pytest.mark.parametrize("entry", sorted(PART_ENTRY_POINTS))
def test_unknown_part_is_rejected_first(entry, n, k):
    # invariant_family, where every Fock route starts, checks the part
    # before anything else, also when it is asked for no degree at all
    with pytest.raises(ValueError) as exc:
        PART_ENTRY_POINTS[entry](FockRing(n, k))
    assert str(exc.value) == PART_ERROR


def test_regrade_round_trip():
    # the diagonal cochain classes sit at q = 0, the volume row at q = -n
    assert regrade(3, 3) == (3, 0)
    assert regrade(4, 0) == (8, -4)


def test_e1_concentration_k_less_n():
    # (n,k) = (3,2): the +1 part lives on the ell = k row with binomial
    # dims 1, 3 at degrees 2, 4; the -1 part on the ell = n row with the
    # quotient dims 1, 2, 6, 8, 16 at degrees 0..4
    R = FockRing(3, 2)
    plus = e1_dims(R, "plus", 4)
    assert plus == {(2, 2): 1, (2, 4): 3}
    minus = e1_dims(R, "minus", 4)
    expect = {(3, t): d for t, d in enumerate([1, 2, 6, 8, 16])}
    assert minus == expect


def test_e1_top_row_is_invariant_quotient():
    # k >= n: the top row of E_1 is the invariant part of P_k/(q)
    R = FockRing(2, 2)
    got = e1_dims(R, "full", 4)
    quo = invariant_quotient_dims(R, [q_gen(R, 1), q_gen(R, 2)], 4)
    expect = {(2, t): d for t, d in quo.items() if d}
    assert got == expect
    # and nothing below the top row
    assert all(ell == 2 for ell, t in got)


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
    # For k < n e1_dims reads only the ends of the two Koszul complexes
    # off the prefix tables, so the lower levels are computed by the
    # model oracle, on the model's d2 rows, and by the Fock route, on
    # fock.diff itself
    R = FockRing(n, k)
    parts = ("plus", "minus") if part == "full" and k < n else (part,)
    routes = (e1_dims, old_e1_model, spectral._e1_fock) if k < n \
        else (e1_dims,)
    for p in parts:
        for route in routes:
            levels = {ell for ell, t in route(R, p, D)}
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
    pages = {r: comp.page(r) for r in (1, 2, 3, 5, 7)}
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
    assert rep.einf == e1_dims(R, "full", 4)
    # and both match the graded direct cohomology
    assert rep.einf == rep.gr_dims


def test_converge_n2_k2_small_window():
    rep = einf_and_converge(FockRing(2, 2), "full", 2)
    assert rep.ok
    assert rep.einf == rep.gr_dims
    assert rep.gr_dims == {(2, t): d for t, d in enumerate([1, 2, 7])}


def test_a_page_that_disagrees_is_a_mismatch(monkeypatch, capsys):
    # one cell added to the E_infinity page, zero on both routes: the
    # report lists it as its one mismatch, with one agreement less, and
    # pages exits 1 with it in the verdict's detail
    R, D, cell = FockRing(2, 2), 2, (0, 1)
    clean = einf_and_converge(R, "full", D)
    assert clean.ok and cell not in clean.einf and cell not in clean.gr_dims
    page = SpectralComputer.page

    def bumped(self, r):
        out = page(self, r)
        out[cell] = out.get(cell, 0) + 1
        return out

    monkeypatch.setattr(SpectralComputer, "page", bumped)
    rep = einf_and_converge(R, "full", D)
    assert not rep.ok
    assert rep.mismatches == [(cell, 1, 0)]
    assert rep.agreements == clean.agreements - 1
    assert cli.main("pages --n 2 --k 2 --max-degree 2".split()) == 1
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict == {
        "name": "Einf matches graded cohomology", "pass": False,
        "detail": "agreements %d, mismatches [((0, 1), 1, 0)]"
        % rep.agreements}


def count_family_builds(monkeypatch):
    """[(level, vectors)] of every fock.invariant_family call, the name
    under which the cohom and pages routes build their families."""
    built, family = [], fock.invariant_family

    def counted(ring, part, ell, degrees, dominant=False):
        out = family(ring, part, ell, degrees, dominant)
        built.append((ell, sum(map(len, out.values()))))
        return out

    monkeypatch.setattr(fock, "invariant_family", counted)
    return built


def test_cohom_and_pages_rows_have_int_labels(monkeypatch, capsys):
    # every row and image that the direct route and the pages eliminate,
    # each pair logged as dominant_rows yields it, is on int labels
    seen, rows = [], fock.dominant_rows

    def logged(pairs):
        for pair in pairs:
            seen.append(pair)
            yield pair

    def checked(ring, part, ell, degrees):
        return {mu: {d: logged(pairs) for d, pairs in block.items()}
                for mu, block in rows(ring, part, ell, degrees).items()}

    monkeypatch.setattr(fock, "dominant_rows", checked)
    monkeypatch.setattr(spectral, "dominant_rows", checked)
    for argv in ("cohom --n 2 --k 3 --part full --ell 0..2 --max-degree 3",
                 "cohom --n 3 --k 2 --part minus --ell 3 --max-degree 3",
                 "pages --n 2 --k 2 --max-degree 3"):
        seen.clear()
        assert cli.main(argv.split()) == 0, argv
        assert seen and all(type(x) is int for row, img in seen
                            for x in (*row, *img)), argv
    capsys.readouterr()


def test_e1_fock_rows_have_int_labels(monkeypatch, capsys):
    # every row that the Fock route of E_1 eliminates, family row and d2
    # image alike, is on int labels: each add_row argument of its
    # Eliminators is logged, at k > n and at k = n
    seen = []

    class Logged(Eliminator):
        def add_row(self, row):
            seen.append(row)
            return super().add_row(row)

    monkeypatch.setattr(spectral, "Eliminator", Logged)
    for argv in ("e1 --n 2 --k 3 --max-degree 4",
                 "e1 --part minus --n 2 --k 2 --max-degree 6"):
        seen.clear()
        assert cli.main(argv.split()) == 0, argv
        assert seen and all(type(x) is int for row in seen for x in row), \
            argv
    capsys.readouterr()


def test_pages_build_each_family_once(monkeypatch):
    # the direct route reads the store of the pages, so a pages call
    # builds and differentiates exactly what its SpectralComputer alone
    # does, one invariant_family call and one row_diff call per family
    # row, and the store is one dominant_rows call per level; each minor
    # is built once per ring, for Phi_J and *Phi_J alike
    calls, levels, minors = [], [], []
    rows, row_diff, minor = fock.dominant_rows, fock.row_diff, fock.minor

    def counted(n, k, row, bits):
        calls.append(row)
        return row_diff(n, k, row, bits)

    def counted_rows(ring, part, ell, degrees):
        levels.append(ell)
        return rows(ring, part, ell, degrees)

    def counted_minor(ring, I, J):
        minors.append((I, J))
        return minor(ring, I, J)

    monkeypatch.setattr(fock, "row_diff", counted)
    monkeypatch.setattr(fock, "minor", counted_minor)
    monkeypatch.setattr(fock, "dominant_rows", counted_rows)
    monkeypatch.setattr(spectral, "dominant_rows", counted_rows)
    built = count_family_builds(monkeypatch)
    SpectralComputer(FockRing(2, 2), "full", 2)
    alone = len(calls)
    assert alone and len(built) == 3
    assert sum(vectors for _, vectors in built) == alone
    calls.clear()
    built.clear()
    levels.clear()
    minors.clear()
    einf_and_converge(FockRing(2, 2), "full", 2)
    assert len(calls) == alone and levels == [0, 1, 2]
    # 3 calls and 22 vectors, the counts of the traced pages-full-n2k2
    assert [ell for ell, _ in built] == [0, 1, 2]
    assert sum(vectors for _, vectors in built) == alone == 22
    # the minors of Phi_{}, Phi_1, Phi_2 (two each) and Phi_12
    assert len(minors) == 6 and len(set(minors)) == 6


def test_cohom_builds_each_level_once(monkeypatch):
    # a cohom call builds the cocycle level and the level below it once
    # each, under the traced name: 2 calls and 12 vectors, the counts of
    # the traced cohom-minus-n3k2
    built = count_family_builds(monkeypatch)
    direct_cohomology_dims(FockRing(3, 2), "minus", 3, 3)
    assert [ell for ell, _ in built] == [3, 2]
    assert sum(vectors for _, vectors in built) == 12


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
        rep = direct_cohomology_dims(R, part, ell, D, store=comp.blocks)
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
        assert rep == alone, ell
    # the store holds domain cells that the route must skip
    assert unread


def test_nonzero_d4_dies_at_e5():
    # a hand-built filtered complex: x at level 0, degree 4, and y at
    # level 1, degree 2, with d x = y.  d lowers the degree by 2, so it
    # is a d_4 from the cell (0, 4) to the cell (1, 2) (E^{-4,4} to
    # E^{0,1}): both cells live through E_4 and die at E_5.  Shifting the B_r domain bound t - 3 + r either way
    # changes E_4.
    comp = object.__new__(SpectralComputer)
    comp.ring = FockRing(1, 1)
    comp.D = 4
    comp.degree = degree_reader(comp.ring, comp.D)
    # the labels bits * 2^(2B) + pack(e, B) of the pages' width rule
    b = row_bits(comp.D)
    x = {0 << 2 * b | pack((4, 0), b): 1}
    y = {1 << 2 * b | pack((2, 0), b): 1}
    comp.blocks = {0: {(0,): {4: [(x, y)]}}, 1: {(0,): {2: [(y, {})]}}}
    for r in range(1, 5):
        assert comp.page(r) == {(0, 4): 1, (1, 2): 1}, r
    for r in range(5, 8):
        assert comp.page(r) == {}, r
