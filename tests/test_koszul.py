"""Tests for Koszul complexes, regularity certificates and Hilbert series.

The Koszul complex K(f_1, ..., f_m) over a graded ring R is
Lambda(R^m) (x) R with d(e_S (x) g) = sum_alpha (e_alpha ^ e_S) (x)
f_alpha g.  Its cohomology, computed below as an oracle for the quotient
and regularity routines of the package, is sliced by the coefficient
degree (the degree of g in e_S (x) g).  The differential is homogeneous
for this slicing only when all sequence entries share one degree, so
koszul_cohomology_dims insists on that.
"""

import itertools
from math import comb
from operator import add

import pytest
from test_fock import monomial_weight

from weilcoh import cli, koszul, verify
from weilcoh.exterior import wedge_bits
from weilcoh.koszul import (
    KoszulSpec,
    RegularityCertificate,
    ci_hilbert,
    _symmetric,
    ideal_quotient_dims,
    regular_sequence_check,
)
from weilcoh.linalg import Eliminator
from weilcoh.polyring import (
    FockRing,
    Polynomial,
    Ring,
    SkRing,
    c_gen,
    ideal_piece,
    is_dominant,
    minor,
    monomials_of_degree,
    orbit_size,
    q_gen,
    r_gen,
    shifted_terms,
    sk_c_sequence,
)


def qx():
    return Ring(("x",))


def _monomial_count(ring, t):
    """dim R_t by enumerating the degree-t monomials."""
    return len(monomials_of_degree(ring, t))


@pytest.mark.parametrize("ring", [
    FockRing(3, 3), FockRing(1, 1), SkRing(1), SkRing(3),
    Ring(["x", "y"], [2, 3]),
], ids=["fock33", "fock11", "sk1", "sk3", "x2y3"])
def test_hilbert_series_counts_monomials(ring):
    # the prefix table reads dim R_t off 1 / prod(1 - t^w_v), which must
    # count the degree-t monomials
    assert ci_hilbert(ring.weights, (), 9) == [
        _monomial_count(ring, t) for t in range(10)]


def koszul_cohomology_dims(spec, ell, window):
    """{coefficient degree t <= window: dim H^ell(K)_t}.

    Requires all sequence degrees equal (see the module docstring).
    """
    degs = set(spec.degrees)
    if len(degs) > 1:
        raise ValueError(
            "mixed sequence degrees %s: cohomology is not graded by "
            "coefficient degree" % (spec.degrees,)
        )
    ring = spec.ring
    m = len(spec.sequence)
    df = spec.degrees[0] if spec.sequence else 0
    if ell < 0 or ell > m:
        return {t: 0 for t in range(window + 1)}

    def diff_rank(l, t):
        """rank of d : K^l_t -> K^{l+1}_{t+df}."""
        if l < 0 or l > m:
            return 0
        e = Eliminator()
        for S in itertools.combinations(range(m), l):
            sbits = 0
            for s in S:
                sbits |= 1 << s
            for expo in monomials_of_degree(ring, t):
                g = Polynomial(ring, {expo: 1})
                row = {}
                for a, f in enumerate(spec.sequence):
                    sgn, nb = wedge_bits(1 << a, sbits)
                    if not sgn:
                        continue
                    for te, tc in (f * g).terms.items():
                        key = (nb, te)
                        nv = row.get(key, 0) + sgn * tc
                        if nv:
                            row[key] = nv
                        elif key in row:
                            del row[key]
                e.add_row(row)
        return e.rank

    out = {}
    for t in range(window + 1):
        dim_cell = comb(m, ell) * _monomial_count(ring, t)
        out[t] = dim_cell - diff_rank(ell, t) - diff_rank(ell - 1, t - df)
    return out


def _ideal_rank(ring, gens, t):
    e = Eliminator()
    for p in ideal_piece(ring, gens, t):
        e.add_row(p.terms)
    return e.rank


def stepwise_regular_sequence_check(spec, window):
    """Certify, degree by degree through the window, that each f_alpha is
    injective by multiplication on R/(f_1, ..., f_{alpha-1}).

    A failure is reported with the degree of the offending target
    (deg g + deg f_alpha), not raised.
    """
    ring = spec.ring
    cert = RegularityCertificate()
    for a, f in enumerate(spec.sequence):
        prefix = spec.sequence[:a]
        df = f.degree()
        fail = None
        for t in range(0, window - df + 1):
            # {g in R_t : f g in I_{t+df}} modulo I_t must vanish
            dim_rt = _monomial_count(ring, t)
            ideal_hi = ideal_piece(ring, prefix, t + df)
            e = Eliminator()
            for p in ideal_hi:
                e.add_row(p.terms)
            rank_ideal_hi = e.rank
            for expo in monomials_of_degree(ring, t):
                prod = Polynomial(ring, {expo: 1}) * f
                e.add_row(dict(prod.terms))
            rank_total = e.rank
            ker = dim_rt - (rank_total - rank_ideal_hi)
            if ker - _ideal_rank(ring, prefix, t):
                fail = t + df
                break
        cert.failure_degree.append(fail)
    return cert


def test_spec_validation():
    R = qx()
    x = R.var(0)
    with pytest.raises(ValueError):
        KoszulSpec(R, [R.zero()])
    with pytest.raises(ValueError):
        KoszulSpec(R, [x + x * x])  # inhomogeneous
    spec = KoszulSpec(R, [x])
    assert spec.degrees == (1,)


def test_koszul_qx():
    R = qx()
    spec = KoszulSpec(R, [R.var(0)])
    h0 = koszul_cohomology_dims(spec, 0, 5)
    assert all(v == 0 for v in h0.values())
    h1 = koszul_cohomology_dims(spec, 1, 5)
    assert h1[0] == 1 and all(h1[t] == 0 for t in range(1, 6))


def test_koszul_kplus_k2():
    S = SkRing(2)
    spec = KoszulSpec(S, [S.what_var(1), S.what_var(2)])
    for ell in (0, 1):
        h = koszul_cohomology_dims(spec, ell, 6)
        assert all(v == 0 for v in h.values()), ell
    h2 = koszul_cohomology_dims(spec, 2, 6)
    assert [h2[t] for t in range(7)] == [1, 0, 3, 0, 6, 0, 10]


def test_koszul_mixed_degrees_rejected():
    S = SkRing(1)
    with pytest.raises(ValueError):
        koszul_cohomology_dims(
            KoszulSpec(S, [S.what_var(1), S.rhat_var(1, 1)]), 0, 3
        )


def test_koszul_vanishing_below_top_for_regular():
    # (q_1, ..., q_n) in P_k, small cases: H^ell = 0 for ell < n
    for n, k in [(1, 1), (1, 2), (2, 2)]:
        R = FockRing(n, k)
        spec = KoszulSpec(R, [q_gen(R, a) for a in range(1, n + 1)])
        for ell in range(n):
            h = koszul_cohomology_dims(spec, ell, 5)
            assert all(v == 0 for v in h.values()), (n, k, ell)
        top = koszul_cohomology_dims(spec, n, 5)
        quo = ideal_quotient_dims(spec, 5)[-1]
        assert top == quo


def test_regularity_trivial():
    S = SkRing(1)
    spec = KoszulSpec(S, [S.what_var(1)])
    cert = regular_sequence_check(spec, ideal_quotient_dims(spec, 8))
    assert cert.regular

    spec = KoszulSpec(S, [S.what_var(1), S.what_var(1)])
    cert = regular_sequence_check(spec, ideal_quotient_dims(spec, 6))
    assert cert.failure_degree == [None, 1]


def test_regularity_q_sequence():
    R = FockRing(2, 2)
    spec = KoszulSpec(R, [q_gen(R, 1), q_gen(R, 2)])
    assert regular_sequence_check(spec, ideal_quotient_dims(spec, 6)).regular


def test_regularity_c_sequence():
    for k in (1, 2):
        S, seq = sk_c_sequence(k)
        spec = KoszulSpec(S, seq)
        assert regular_sequence_check(spec,
                                      ideal_quotient_dims(spec, 6)).regular


def test_regularity_permutation_robustness():
    # off-diagonal z's followed by the q's, printed and permuted order
    R = FockRing(2, 2)
    offdiag = [R.z_var(1, 2), R.z_var(2, 1)]
    qs = [q_gen(R, 1), q_gen(R, 2)]
    for seq in (offdiag + qs, [qs[0], offdiag[1], offdiag[0], qs[1]]):
        spec = KoszulSpec(R, seq)
        assert regular_sequence_check(
            spec, ideal_quotient_dims(spec, 4)).regular, seq

    # super-diagonal r's followed by the c's in S_2, both orders
    S, cs = sk_c_sequence(2)
    rsup = [S.rhat_var(1, 2)]
    for seq in (rsup + cs, [cs[0], rsup[0], cs[1]]):
        spec = KoszulSpec(S, seq)
        assert regular_sequence_check(
            spec, ideal_quotient_dims(spec, 6)).regular, seq


def test_ci_hilbert():
    assert ci_hilbert((2, 1), (3,), 6) == [1, 1, 2, 1, 2, 1, 2]
    assert ci_hilbert((1, 1), (2,), 6) == [1, 2, 2, 2, 2, 2, 2]
    assert ci_hilbert((1, 1, 1), (), 4) == [1, 3, 6, 10, 15]
    assert ci_hilbert((1,), (), -1) == []
    with pytest.raises(ValueError):
        ci_hilbert((1,), (1, 1), 3)


def test_empty_window():
    # a negative window holds no degree: nothing to count or certify
    spec = KoszulSpec(qx(), [qx().var(0)])
    hilb = ideal_quotient_dims(spec, -1)
    assert hilb[-1] == {}
    assert regular_sequence_check(spec, hilb).failure_degree == [None]


def test_ideal_quotient_dims():
    R = FockRing(1, 1)
    spec = KoszulSpec(R, [q_gen(R, 1)])  # q_1 = z w
    got = ideal_quotient_dims(spec, 6)[-1]
    assert [got[t] for t in range(7)] == [1, 2, 2, 2, 2, 2, 2]

    S, cs = sk_c_sequence(2)
    got = ideal_quotient_dims(KoszulSpec(S, cs), 6)[-1]
    # (1-t^3)^2 / ((1-t^2)^3 (1-t)^2)
    expect = ci_hilbert((2, 2, 2, 1, 1), (3, 3), 6)
    assert [got[t] for t in range(7)] == expect

    R23 = FockRing(2, 3)
    spec = KoszulSpec(R23, [q_gen(R23, 1), q_gen(R23, 2)])
    got = ideal_quotient_dims(spec, 4)[-1]
    expect = ci_hilbert((1,) * 9, (2, 2), 4)
    assert [got[t] for t in range(5)] == expect


def test_empty_sequence_free_ring():
    S = SkRing(2)
    got = ideal_quotient_dims(KoszulSpec(S, ()), 5)[-1]
    expect = ci_hilbert(S.weights, (), 5)
    assert [got[t] for t in range(6)] == expect


def quotient_class_independence(spec, classes, degree):
    """Are the classes independent in (R/(sequence))_degree?

    Returns (independent, rank-of-classes-in-quotient).
    """
    ring = spec.ring
    for c in classes:
        if not c or not c.is_homogeneous() or c.degree() != degree:
            raise ValueError("classes must be homogeneous of the stated degree")
        if c.ring != ring:
            raise ValueError("class from the wrong ring")
    e = Eliminator()
    for p in ideal_piece(ring, spec.sequence, degree):
        e.add_row(p.terms)
    base = e.rank
    for c in classes:
        e.add_row(dict(c.terms))
    quotient_rank = e.rank - base
    return quotient_rank == len(classes), quotient_rank


def test_quotient_class_independence():
    S, (c1,) = sk_c_sequence(1)
    spec = KoszulSpec(S, [c1])
    for d in range(6):
        w = S.one()
        for _ in range(d):
            w = w * S.what_var(1)
        ok, rank = quotient_class_independence(spec, [w], d)
        assert ok and rank == 1, d

    dep = S.rhat_var(1, 1) * S.what_var(1)  # this IS c_1
    ok, rank = quotient_class_independence(spec, [dep], 3)
    assert not ok and rank == 0

    with pytest.raises(ValueError):
        quotient_class_independence(spec, [S.what_var(1)], 2)


def test_det_plus_injection():
    # f . det_+ classes independent in P_k/(q), (n,k) = (1,2), deg f <= 3
    R = FockRing(1, 2)
    spec = KoszulSpec(R, [q_gen(R, 1)])
    det_plus = minor(R, (1,), (1,))
    for a in range(4):
        classes = []
        w2 = R.w_var(2)
        f = R.one()
        for _ in range(a):
            f = f * w2
        classes.append(f * det_plus)
        ok, rank = quotient_class_independence(spec, classes, a + 1)
        assert ok, a


def test_sk_evaluated_c_matches_abstract():
    # the abstract cubics evaluate to the concrete c_j
    from weilcoh.polyring import sk_evaluate

    for n, k in [(2, 2), (3, 2)]:
        R = FockRing(n, k)
        S, cs = sk_c_sequence(k)
        for j, cabs in enumerate(cs, start=1):
            assert sk_evaluate(cabs, R) == c_gen(R, j)


def _q_seq(n, k):
    R = FockRing(n, k)
    return [q_gen(R, a) for a in range(1, n + 1)]


def _c_seq(k):
    return list(sk_c_sequence(k)[1])


def _offdiag_then_q():
    R = FockRing(2, 2)
    return [R.z_var(1, 2), R.z_var(2, 1), q_gen(R, 1), q_gen(R, 2)]


def _q_offdiag_interleaved():
    R = FockRing(2, 2)
    return [q_gen(R, 1), R.z_var(2, 1), R.z_var(1, 2), q_gen(R, 2)]


def _r_rw_q():
    R = FockRing(2, 1)
    r11 = r_gen(R, 1, 1)
    return [r11, r11 * R.w_var(1), q_gen(R, 1)]


def _what_seq(k):
    S = SkRing(k)
    return [S.what_var(i) for i in range(1, k + 1)]


def _w1_twice():
    S = SkRing(1)
    return [S.what_var(1), S.what_var(1)]


def _c_rhat_c_c():
    S, (c1, c2) = sk_c_sequence(2)
    return [c1, S.rhat_var(1, 2), c2, c1]


def _rhat_then_c():
    S, cs = sk_c_sequence(2)
    return [S.rhat_var(1, 2), *cs]


# (name, sequence builder, window, regular through the window)
ORACLE_SEQUENCES = [
    ("q11", lambda: _q_seq(1, 1), 5, True),
    ("q12", lambda: _q_seq(1, 2), 5, True),
    ("q21", lambda: _q_seq(2, 1), 5, False),
    ("q22", lambda: _q_seq(2, 2), 5, True),
    ("q23", lambda: _q_seq(2, 3), 4, True),
    ("q31", lambda: _q_seq(3, 1), 5, False),
    ("q32", lambda: _q_seq(3, 2), 5, False),
    ("q33", lambda: _q_seq(3, 3), 4, True),
    ("offdiag-q", _offdiag_then_q, 4, True),
    ("q-offdiag-q", _q_offdiag_interleaved, 4, True),
    ("r11-r11w1-q1", _r_rw_q, 5, False),
    ("c1", lambda: _c_seq(1), 5, True),
    ("c2", lambda: _c_seq(2), 5, True),
    ("c3", lambda: _c_seq(3), 5, True),
    ("w3", lambda: _what_seq(3), 5, True),
    ("w1-w1", _w1_twice, 5, False),
    ("c1-r12-c2-c1", _c_rhat_c_c, 5, False),
    ("r12-c", _rhat_then_c, 5, True),
]


@pytest.mark.parametrize("build,window,regular",
                         [case[1:] for case in ORACLE_SEQUENCES],
                         ids=[case[0] for case in ORACLE_SEQUENCES])
def test_certificate_matches_stepwise_oracle(build, window, regular):
    # the prefix-Hilbert-function certificate against the per-(a, t)
    # eliminations it replaced, and the quotient dims against a fresh
    # elimination of the whole ideal in each degree
    seq = build()
    spec = KoszulSpec(seq[0].ring, seq)
    hilb = ideal_quotient_dims(spec, window)
    cert = regular_sequence_check(spec, hilb)
    oracle = stepwise_regular_sequence_check(spec, window)
    assert cert.regular == regular
    assert cert.failure_degree == oracle.failure_degree
    ring = spec.ring
    assert hilb[-1] == {
        t: _monomial_count(ring, t) - _ideal_rank(ring, spec.sequence, t)
        for t in range(window + 1)
    }


def plain_ideal_quotient_dims(spec, window):
    """The prefix table with no symmetry: every row m * f, built as a
    product, in one Eliminator per degree."""
    ring = spec.ring
    # H_0(t) = dim R_t, the coefficients of 1 / prod(1 - t^w_v)
    hilb = [dict(enumerate(ci_hilbert(ring.weights, (), window)))]
    hilb += [{} for _ in spec.sequence]
    for t, dim_rt in hilb[0].items():
        e = Eliminator()
        for a, f in enumerate(spec.sequence, start=1):
            for p in ideal_piece(ring, (f,), t):
                e.add_row(p.terms)
            hilb[a][t] = dim_rt - e.rank
    return hilb


def _not_a_weight_vector():
    R = FockRing(1, 2)
    return [R.z_var(1, 1) + R.z_var(1, 2)]


def _regularity_robustness_sequences():
    S, cs = sk_c_sequence(2)
    return [_offdiag_then_q(), _q_offdiag_interleaved(),
            [S.rhat_var(1, 2), *cs], [cs[0], S.rhat_var(1, 2), cs[1]]]


# (name, sequence builder, window, symmetry lemma applies)
SYMMETRY_CASES = [
    ("q11", lambda: _q_seq(1, 1), 6, True),
    ("q22", lambda: _q_seq(2, 2), 6, True),
    ("q32", lambda: _q_seq(3, 2), 5, True),
    ("q23", lambda: _q_seq(2, 3), 5, True),
    ("q33", lambda: _q_seq(3, 3), 5, True),
    ("q42", lambda: _q_seq(4, 2), 5, True),
    *[("robustness-%d" % i,
       lambda i=i: _regularity_robustness_sequences()[i], 5, False)
      for i in range(4)],
    ("c2", lambda: _c_seq(2), 6, False),
    ("c3", lambda: _c_seq(3), 5, False),
    ("w2", lambda: _what_seq(2), 6, False),
    ("w3", lambda: _what_seq(3), 5, False),
    ("z11+z12", _not_a_weight_vector, 6, False),
    ("x", lambda: [qx().var(0)], 6, False),
]


def counting_rows(monkeypatch):
    """Patch koszul's Eliminator to count its add_row calls."""
    rows = []

    class CountingEliminator(Eliminator):
        def add_row(self, row):
            rows.append(1)
            return super().add_row(row)

    monkeypatch.setattr(koszul, "Eliminator", CountingEliminator)
    return rows


def plain_row_count(spec, window):
    return sum(len(monomials_of_degree(spec.ring, t - f.degree()))
               for t in range(window + 1) for f in spec.sequence)


def dominant_row_count(spec, window):
    """The rows m * q_alpha of dominant weight: q_alpha has weight 0, so
    those whose monomial m has dominant weight."""
    ring = spec.ring
    return sum(
        all(a >= b for a, b in zip(mu, mu[1:]))
        for t in range(window + 1) for f in spec.sequence
        for mu in (monomial_weight(ring, m)
                   for m in monomials_of_degree(ring, t - f.degree())))


@pytest.mark.parametrize("build,window,symmetric",
                         [case[1:] for case in SYMMETRY_CASES],
                         ids=[case[0] for case in SYMMETRY_CASES])
def test_symmetric_table_matches_the_plain_route(build, window, symmetric,
                                                 monkeypatch):
    # the dominant blocks weighted by orbit size give the plain table
    # entry by entry; where the lemma does not apply every row is kept
    seq = build()
    spec = KoszulSpec(seq[0].ring, seq)
    want = plain_ideal_quotient_dims(spec, window)
    rows = counting_rows(monkeypatch)
    assert ideal_quotient_dims(spec, window) == want
    plain = plain_row_count(spec, window)
    if symmetric:
        # one weight in each S_k-orbit: fewer rows as soon as k > 1
        assert len(rows) == dominant_row_count(spec, window)
        assert len(rows) < plain or spec.ring.k == 1
    else:
        assert len(rows) == plain


def test_prefix_table_builds_no_product(monkeypatch):
    # the rows are f's terms shifted by m, never a Polynomial product
    spec = KoszulSpec(FockRing(3, 3), _q_seq(3, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial product")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__rmul__", refuse)
    assert regular_sequence_check(spec, ideal_quotient_dims(spec, 6)).regular


def test_one_elimination_per_degree(monkeypatch, capsys):
    # the prefix table is eliminated once per call: the certificate reads
    # the table that ideal_quotient_dims built
    made = []

    class CountingEliminator(Eliminator):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(koszul, "Eliminator", CountingEliminator)
    assert cli.main(["koszul", "--model", "q", "--n", "2", "--k", "2",
                     "--max-degree", "4"]) == 0
    capsys.readouterr()
    assert len(made) == 5  # degrees 0..4
    made.clear()
    assert all(v["pass"] for v in verify.suite_koszul(2, 2, 0))
    assert len(made) == 5 + 7  # q through degree 4, c through degree 6


def tuple_key_ideal_quotient_dims(spec, window):
    """The prefix table with exponent-tuple column labels and every
    monomial enumerated and weighed, as ideal_quotient_dims built it
    before its labels were packed ints (kept verbatim but for the name)."""
    ring = spec.ring
    weight = ring.weight if all(map(_symmetric, spec.sequence)) \
        else _no_weight
    # H_0(t) = dim R_t, the coefficients of 1 / prod(1 - t^w_v)
    hilb = [dict(enumerate(ci_hilbert(ring.weights, (), window)))]
    hilb += [{} for _ in spec.sequence]
    for t, dim_rt in hilb[0].items():
        e = Eliminator()
        rank = 0
        by_weight = {}  # degree -> {weight: [monomial]}, for this t only
        for a, f in enumerate(spec.sequence, start=1):
            s = t - f.degree()
            if s not in by_weight:
                by_weight[s] = _monomials_by_weight(ring, s, weight)
            wf = weight(next(iter(f.terms)))
            for wm, mons in by_weight[s].items():
                mu = tuple(map(add, wm, wf))
                if not is_dominant(mu):
                    continue
                mult = orbit_size(mu)
                for m in mons:
                    if e.add_row(shifted_terms(f, m)):
                        rank += mult
            hilb[a][t] = dim_rt - rank
    return hilb


def _no_weight(expo):
    """The weight of the trivial grading: one block, counted once."""
    return ()


def _monomials_by_weight(ring, d, weight):
    """{weight: [monomial]} of the degree-d monomials, in monomial order."""
    out = {}
    for m in monomials_of_degree(ring, d):
        out.setdefault(weight(m), []).append(m)
    return out


def recording_eliminations(monkeypatch):
    """Patch Eliminator to log, for each elimination, the result of every
    add_row and the stored entries after it."""
    log = []
    init, add_row = Eliminator.__init__, Eliminator.add_row

    def recording_init(self):
        init(self)
        log.append([])

    def recording_add_row(self, row):
        raised = add_row(self, row)
        log[-1].append((raised, self._entries))
        return raised

    monkeypatch.setattr(Eliminator, "__init__", recording_init)
    monkeypatch.setattr(Eliminator, "add_row", recording_add_row)
    return log


@pytest.mark.parametrize("build,window", [
    (lambda: _q_seq(3, 3), 6), (lambda: _q_seq(4, 2), 5),
    (lambda: _c_seq(3), 5),
], ids=["q33", "q42", "c3"])
def test_packed_labels_give_the_same_elimination(build, window,
                                                 monkeypatch):
    # packed labels relabel the columns in order, so the Eliminator takes
    # the same steps as on exponent tuples: the same add_row results and
    # stored entries, row by row and degree by degree
    seq = build()
    spec = KoszulSpec(seq[0].ring, seq)
    log = recording_eliminations(monkeypatch)
    want = tuple_key_ideal_quotient_dims(spec, window)
    tuple_log = list(log)
    log.clear()
    assert ideal_quotient_dims(spec, window) == want
    assert log == tuple_log
    assert len(log) == window + 1 and any(raised for raised, _ in log[-1])


@pytest.mark.parametrize("n,k,window", [(2, 2, 4), (3, 3, 3)])
def test_packing_keeps_order_and_adds_without_carry(n, k, window):
    # pack is injective, orders as the tuples, and is additive on every
    # pair of monomials whose product stays inside the window
    R = FockRing(n, k)
    bits = koszul._label_bits(window)
    mons = [m for t in range(window + 1) for m in monomials_of_degree(R, t)]
    pack = {m: koszul._pack(m, bits) for m in mons}
    assert sorted(mons, key=pack.get) == sorted(mons)
    assert len(set(pack.values())) == len(mons)
    for a in mons:
        for b in mons:
            if sum(a) + sum(b) <= window:
                assert pack[a] + pack[b] == pack[tuple(map(add, a, b))]
