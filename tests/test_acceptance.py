"""End-to-end acceptance suite.

Each test checks one headline property of the build at the agreed sizes
and prints a single PASS/FAIL line.  Everything is exact integer
arithmetic; there are no tolerances anywhere.
"""

import itertools
import json
import random
from math import comb

import pytest

from weilcoh.cli import main as cli_main
from weilcoh.fock import (
    Phi_J,
    diff,
    direct_cohomology_dims,
    invariant_dims,
    invariant_quotient_dims,
    involution,
    outer_product,
    pm_basis_vectors,
    son_act_cochain,
)
from weilcoh.koszul import (
    KoszulSpec,
    ideal_quotient_dims,
    regular_sequence_check,
)
from weilcoh.linalg import Eliminator
from weilcoh.polyring import (
    FockRing,
    SkRing,
    laplacian,
    minor,
    q_gen,
    sk_c_sequence,
)
from weilcoh.spectral import e1_dims, einf_and_converge

# test-side helpers, kept with the tests of their modules: the random
# cochains in test_fock, the quotient class rank probe in test_koszul
from test_fock import random_cochain, random_invariant_cochain
from test_koszul import quotient_class_independence
from series import ci_series, sk_weights


def report(ok, line):
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def test_differential_identity_suite():
    # d^2 = 0, the two graded pieces square to zero and anticommute, the
    # outer-product Leibniz rule, and commutation of d with the
    # involution and the so(n) generators -- 50 seeded random cochains
    # for every (n, k) with n <= 4, k <= 3
    rng = random.Random(20240824)
    bad = 0
    for n in range(1, 5):
        for k in range(1, 4):
            R = FockRing(n, k)
            for _ in range(50):
                ell = rng.randint(0, max(0, n - 1))
                c = random_cochain(R, rng, ell)
                bad += bool(diff(diff(c, "d2"), "d2"))
                bad += bool(diff(diff(c, "dm2"), "dm2"))
                bad += involution(diff(c), "iota") != diff(
                    involution(c, "iota"))
                for a in range(1, n):
                    bad += diff(son_act_cochain(a, a + 1, c)) != \
                        son_act_cochain(a, a + 1, diff(c))
                if k >= 2:
                    ka = rng.randint(1, k - 1)
                    a1 = random_cochain(FockRing(n, ka), rng,
                                        rng.randint(0, max(0, n - 1)))
                    b1 = random_cochain(FockRing(n, k - ka), rng,
                                        rng.randint(0, max(0, n - 1)))
                    lhs = diff(outer_product(a1, b1))
                    rhs = outer_product(diff(a1), b1) + outer_product(
                        a1, diff(b1)).scale((-1) ** a1.ell)
                    bad += lhs != rhs
                ci = random_invariant_cochain(R, rng, ell, max_deg=2)
                bad += bool(diff(diff(ci)))
                anti = diff(diff(ci, "d2"), "dm2") + \
                    diff(diff(ci, "dm2"), "d2")
                bad += bool(anti)
    report(bad == 0,
           "differential identity suite, n <= 4, k <= 3, 50 random "
           "cochains each (%d violations)" % bad)


def test_minors_harmonic_and_cocycles_closed():
    bad = 0
    for n in range(1, 5):
        for k in range(1, 5):
            R = FockRing(n, k)
            for lsize in range(1, min(n, k) + 1):
                for I in itertools.combinations(range(1, n + 1), lsize):
                    for J in itertools.combinations(range(1, k + 1), lsize):
                        f = minor(R, I, J)
                        for i in range(1, k + 1):
                            for j in range(1, k + 1):
                                bad += bool(laplacian(f, i, j))
    closed_bad = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            R = FockRing(n, k)
            closed_bad += bool(diff(Phi_J(R, tuple(range(1, k + 1)))))
    report(bad == 0 and closed_bad == 0,
           "minors harmonic (n, k <= 4) and the determinantal cocycle "
           "closed (n <= 5, k <= n): %d + %d violations" % (bad, closed_bad))


def test_determinantal_families_are_bases():
    bad = []
    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        R = FockRing(n, k)
        for ell in range(n + 1):
            dims = invariant_dims(R, ell, 6)
            for d in range(7):
                plus = pm_basis_vectors(R, "plus", ell, d)
                minus = pm_basis_vectors(R, "minus", ell, d)
                ep, em, eb = Eliminator(), Eliminator(), Eliminator()
                for row in plus:
                    ep.add_row(row)
                    eb.add_row(row)
                for row in minus:
                    em.add_row(row)
                    eb.add_row(row)
                ok = (ep.rank == len(plus) and em.rank == len(minus)
                      and eb.rank == len(plus) + len(minus)
                      and eb.rank == dims[d])
                if not ok:
                    bad.append((n, k, ell, d))
    report(not bad,
           "determinantal families independent and spanning the "
           "invariants, degrees <= 6%s" % (
               " (failures: %s)" % bad if bad else ""))


def test_regular_sequences_and_hilbert_series():
    bad = []
    for k in range(1, 4):
        S = SkRing(k)
        ws = KoszulSpec(S, [S.what_var(i) for i in range(1, k + 1)])
        hilb = ideal_quotient_dims(ws, 6)
        if not regular_sequence_check(ws, hilb).regular:
            bad.append(("w", k))
        quo = hilb[-1]
        if [quo[t] for t in range(7)] != ci_series(
                sk_weights(k), (1,) * k, 6):
            bad.append(("w-quotient", k))

        S, cs = sk_c_sequence(k)
        cspec = KoszulSpec(S, cs)
        hilb = ideal_quotient_dims(cspec, 6)
        if not regular_sequence_check(cspec, hilb).regular:
            bad.append(("c", k))
        quo = hilb[-1]
        if [quo[t] for t in range(7)] != ci_series(
                sk_weights(k), (3,) * k, 6):
            bad.append(("c-quotient", k))

    for n, k in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        R = FockRing(n, k)
        qs = KoszulSpec(R, [q_gen(R, a) for a in range(1, n + 1)])
        hilb = ideal_quotient_dims(qs, 6)
        if not regular_sequence_check(qs, hilb).regular:
            bad.append(("q", n, k))
        quo = hilb[-1]
        if [quo[t] for t in range(7)] != ci_series(
                (1,) * R.nvars, (2,) * n, 6):
            bad.append(("q-quotient", n, k))

    S1, (c1,) = sk_c_sequence(1)
    quo = ideal_quotient_dims(KoszulSpec(S1, (c1,)), 6)[-1]
    if [quo[t] for t in range(7)] != [1, 1, 2, 1, 2, 1, 2]:
        bad.append(("concrete c", 1))
    R11 = FockRing(1, 1)
    quo = ideal_quotient_dims(KoszulSpec(R11, (q_gen(R11, 1),)), 6)[-1]
    if [quo[t] for t in range(7)] != [1, 2, 2, 2, 2, 2, 2]:
        bad.append(("concrete q", 1, 1))
    report(not bad,
           "regular sequences through degree 6 with Hilbert-series "
           "agreement%s" % (" (failures: %s)" % bad if bad else ""))


def test_split_cohomology_small_k():
    # k < n: the +1 part is concentrated at level k with binomial dims,
    # the -1 part at level n with the c-quotient dims; window 6
    bad = []
    for n, k in [(3, 1), (3, 2), (4, 2)]:
        R = FockRing(n, k)
        for ell in range(n + 1):
            rep = direct_cohomology_dims(R, "plus", ell, 6)
            if ell == k:
                expect = {t: (comb((t - k) // 2 + k * (k + 1) // 2 - 1,
                                   (t - k) // 2)
                              if t >= k and (t - k) % 2 == 0 else 0)
                          for t in range(7)}
            else:
                expect = {t: 0 for t in range(7)}
            if rep != expect:
                bad.append(("plus", n, k, ell, rep))

        S, cs = sk_c_sequence(k)
        cquo = ideal_quotient_dims(KoszulSpec(S, cs), 6)[-1]
        for ell in range(n + 1):
            rep = direct_cohomology_dims(R, "minus", ell, 6)
            expect = cquo if ell == n else {t: 0 for t in range(7)}
            if rep != dict(expect):
                bad.append(("minus", n, k, ell, rep))
    report(not bad,
           "split cohomology for k < n concentrated at levels k and n "
           "with the predicted dims, window 6%s" % (
               " (failures: %s)" % bad if bad else ""))


def test_top_cohomology_large_k():
    # k >= n: everything below the top level dies and the top level is
    # the invariant part of the quadric quotient; the constant class on
    # the volume form survives
    bad = []
    for n, k in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        R = FockRing(n, k)
        for ell in range(n):
            rep = direct_cohomology_dims(R, "full", ell, 4)
            if any(rep.values()):
                bad.append(("nonzero below top", n, k, ell, rep))
        top = direct_cohomology_dims(R, "full", n, 4)
        quo = invariant_quotient_dims(
            R, [q_gen(R, a) for a in range(1, n + 1)], 4)
        if top != quo:
            bad.append(("top", n, k, top, quo))
        if top.get(0) != 1 or quo.get(0) != 1:
            bad.append(("volume class", n, k))
    report(not bad,
           "k >= n cohomology vanishes below the top level and equals "
           "the invariant quadric quotient there, with the volume class "
           "surviving%s" % (" (failures: %s)" % bad if bad else ""))


def test_spectral_convergence():
    bad = []
    for n, k in [(3, 1), (2, 2)]:
        R = FockRing(n, k)
        rep = einf_and_converge(R, "full", 4)
        if rep.mismatches:
            bad.append(("mismatch", n, k, rep.mismatches))
        if k < n and e1_dims(R, "full", 4) != rep.einf:
            bad.append(("no degeneration at the first page", n, k))
    report(not bad,
           "spectral sequence converges to the graded cohomology, "
           "degenerating at the first page when k < n%s" % (
               " (failures: %s)" % bad if bad else ""))


def test_injection_probes():
    bad = []
    # the powers of the degree-one generators stay independent in the
    # c-quotient in every degree <= 5
    for k in (1, 2):
        S, cs = sk_c_sequence(k)
        spec = KoszulSpec(S, cs)
        for d in range(6):
            classes = []
            for expos in itertools.combinations_with_replacement(
                    range(1, k + 1), d):
                w = S.one()
                for i in expos:
                    w = w * S.what_var(i)
                classes.append(w)
            ok, rk = quotient_class_independence(spec, classes, d)
            if not ok:
                bad.append(("w-monomials", k, d, rk))
    # multiples of the determinant class inject into the quadric quotient
    R = FockRing(1, 2)
    spec = KoszulSpec(R, [q_gen(R, 1)])
    det_plus = minor(R, (1,), (1,))
    for a in range(4):
        f = R.one()
        for _ in range(a):
            f = f * R.w_var(2)
        ok, rk = quotient_class_independence(spec, [f * det_plus], a + 1)
        if not ok:
            bad.append(("det multiples", a))
    report(not bad,
           "quotient injection probes: monomial classes and determinant "
           "multiples stay independent%s" % (
               " (failures: %s)" % bad if bad else ""))


def test_deterministic_output(capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        body = "\n".join(line for line in out.splitlines()
                         if '"timing"' not in line)
        return code, body

    bad = []
    commands = [
        ["cohom", "--n", "3", "--k", "1", "--part", "plus", "--ell",
         "0..3", "--max-degree", "4"],
        ["hilbert", "--model", "cminus", "--k", "2", "--max-degree", "6"],
        ["verify", "--suite", "signs", "--seed", "7", "--n", "3",
         "--k", "2"],
        ["e1", "--n", "2", "--k", "2", "--max-degree", "3"],
        ["koszul", "--model", "q", "--n", "3", "--k", "1", "--max-degree",
         "4"],
    ]
    for argv in commands:
        c1, b1 = run(argv)
        c2, b2 = run(argv)
        if c1 != c2 or b1 != b2:
            bad.append(argv[0])
    report(not bad,
           "identical reruns are byte-identical apart from timing%s" % (
               " (failures: %s)" % bad if bad else ""))
