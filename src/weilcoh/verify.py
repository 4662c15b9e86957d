"""Bundled verification suites behind the `verify` subcommand.

Each suite runs a batch of exact checks at the requested (n, k) and
returns a list of verdicts {"name", "pass", "detail"}.  Randomized
checks draw integer coefficients uniformly from {-3..3} from a generator
that the suite seeds itself with the stated seed, so any failure is
replayable from the command line, and a suite gives the same verdicts
alone as within `--suite all`.

SUITES maps each suite name to its function, in the order `--suite all`
runs them.  The command line adds a suite's verdicts to the document as
soon as that suite returns, so a run stopped by the entry cap keeps the
verdicts of every suite that finished; the suite that hit the cap adds
none.
"""

from __future__ import annotations

import itertools
import random

from .exterior import bits_of, wedge_bits
from .fock import (
    Cochain,
    Phi_J,
    diff,
    invariant_dims,
    invariant_family,
    involution,
    outer_product,
    phi1,
    pm_basis_vectors,
    son_act_cochain,
)
from .koszul import (
    ci_hilbert,
    ideal_quotient_dims,
    named_sequence,
    regular_sequence_check,
)
from .linalg import rank_of_rows
from .polyring import FockRing, laplacian, minor
from .spectral import e1_dims, einf_and_converge

__all__ = ["SUITES"]

TRIALS = 10  # random draws per randomized check
WINDOW = 4   # degree window of the bases and koszul suites


def _random_cochain(ring, rng, ell):
    """Three random terms, each a monomial of degree <= 3."""
    terms = []
    for _ in range(3):
        bits = bits_of(sorted(rng.sample(range(1, ring.n + 1), ell)))
        coef = rng.randint(-3, 3)
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(ring.nvars)] += 1
        terms.append(((bits, tuple(e)), coef))
    return Cochain.from_terms(ring, ell, terms)


def _random_invariant_cochain(ring, rng, ell, rows):
    """A random combination of the invariant families of degree <= 3;
    rows keeps each level's family rows (invariant_family), built on its
    first draw."""
    if ell not in rows:
        rows[ell] = [row for pairs in invariant_family(
            ring, "full", ell, range(4)).values() for _, row in pairs]
    terms = []
    for row in rows[ell]:
        x = rng.randint(-3, 3)
        terms += [(key, x * c) for key, c in row.items()]
    return Cochain.from_terms(ring, ell, terms)


def _verdict(results, name, ok, detail=""):
    results.append({"name": name, "pass": bool(ok), "detail": detail})


def suite_signs(n, k, seed):
    """Sign discipline: wedge antisymmetry, the outer-product Leibniz
    rule, and commutation of d with the involutions."""
    rng = random.Random(seed)
    results = []

    bad = 0
    for _ in range(TRIALS):
        a = rng.randrange(1 << n)
        b = rng.randrange(1 << n)
        sa, ab = wedge_bits(a, b)
        sb, ba = wedge_bits(b, a)
        if sa == 0:
            ok = sb == 0
        else:
            pa = bin(a).count("1")
            pb = bin(b).count("1")
            ok = ab == ba and sa == sb * (-1) ** (pa * pb)
        bad += not ok
    _verdict(results, "wedge antisymmetry", bad == 0, "%d violations" % bad)

    bad = 0
    for _ in range(TRIALS):
        ka = rng.randint(1, max(1, k - 1)) if k > 1 else 1
        kb = max(1, k - ka)
        a = _random_cochain(FockRing(n, ka), rng, rng.randint(0, n - 1))
        b = _random_cochain(FockRing(n, kb), rng, rng.randint(0, n - 1))
        lhs = diff(outer_product(a, b))
        rhs = outer_product(diff(a), b) + \
            outer_product(a, diff(b)).scale((-1) ** a.ell)
        bad += lhs != rhs
    _verdict(results, "outer-product Leibniz rule", bad == 0,
             "%d violations" % bad)

    R = FockRing(n, k)
    bad = 0
    for _ in range(TRIALS):
        c = _random_cochain(R, rng, rng.randint(0, n))
        for which in ("iota", "iota_prime"):
            if involution(diff(c), which) != diff(involution(c, which)):
                bad += 1
    _verdict(results, "d commutes with the involutions", bad == 0,
             "%d violations" % bad)
    return results


def suite_closedness(n, k, seed):
    """d phi_k = 0; d^2 = 0 and the anticommutator identity on the
    invariant complex; d2^2 = dm2^2 = 0 everywhere."""
    rng = random.Random(seed)
    results = []
    R = FockRing(n, k)

    if k <= n:
        _verdict(results, "phi_k is closed",
                 not diff(Phi_J(R, tuple(range(1, k + 1)))),
                 "(n,k)=(%d,%d)" % (n, k))

    bad2 = badm2 = 0
    for _ in range(TRIALS):
        c = _random_cochain(R, rng, rng.randint(0, n - 1))
        bad2 += bool(diff(diff(c, "d2"), "d2"))
        badm2 += bool(diff(diff(c, "dm2"), "dm2"))
    _verdict(results, "degree +2 piece squares to zero", bad2 == 0,
             "%d violations" % bad2)
    _verdict(results, "degree -2 piece squares to zero", badm2 == 0,
             "%d violations" % badm2)

    badf, bada, rows = 0, 0, {}
    for _ in range(TRIALS):
        c = _random_invariant_cochain(R, rng, rng.randint(0, n - 1), rows)
        badf += bool(diff(diff(c)))
        anti = diff(diff(c, "d2"), "dm2") + diff(diff(c, "dm2"), "d2")
        bada += bool(anti)
    _verdict(results, "d squares to zero on invariants", badf == 0,
             "%d violations" % badf)
    _verdict(results, "pieces anticommute on invariants", bada == 0,
             "%d violations" % bada)
    return results


def suite_invariance(n, k, seed):
    """The so(n) generators kill the named cochains and commute with d."""
    rng = random.Random(seed)
    results = []
    R = FockRing(n, k)
    gens = [(a, a + 1) for a in range(1, n)]

    bad = 0
    for a, b in gens:
        if son_act_cochain(a, b, phi1(R)):
            bad += 1
        if k <= n and son_act_cochain(
                a, b, Phi_J(R, tuple(range(1, k + 1)))):
            bad += 1
    _verdict(results, "named cochains are so(n)-invariant", bad == 0,
             "%d violations" % bad)

    bad = 0
    for _ in range(TRIALS):
        c = _random_cochain(R, rng, rng.randint(0, n - 1))
        for a, b in gens:
            if diff(son_act_cochain(a, b, c)) != son_act_cochain(
                    a, b, diff(c)):
                bad += 1
    _verdict(results, "d commutes with so(n)", bad == 0,
             "%d violations" % bad)
    return results


def suite_bases(n, k, seed):
    """The Phi / *Phi families are independent and jointly span the
    invariants in every (ell, degree) cell of the window (k < n only);
    the minors are harmonic."""
    results = []
    R = FockRing(n, k)

    bad = 0
    for lsize in range(1, min(n, k) + 1):
        for I in itertools.combinations(range(1, n + 1), lsize):
            for J in itertools.combinations(range(1, k + 1), lsize):
                f = minor(R, I, J)
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        if laplacian(f, i, j):
                            bad += 1
    _verdict(results, "minors are harmonic", bad == 0, "%d violations" % bad)

    if k < n:
        bad = []
        for ell in range(n + 1):
            dims = invariant_dims(R, ell, WINDOW)
            for d in range(WINDOW + 1):
                # the plus family, then the minus family: both free and
                # jointly free, and spanning; a subset of a free family
                # is free, so one rank decides
                rows = pm_basis_vectors(R, "full", ell, d)
                if not rank_of_rows(rows) == len(rows) == dims[d]:
                    bad.append((ell, d))
        _verdict(results, "determinantal families are a basis", not bad,
                 "failing cells: %s" % bad if bad else
                 "all cells to degree %d" % WINDOW)
    return results


def suite_koszul(n, k, seed):
    """Regularity of the q-sequence (k >= n only: for k < n the q's have
    evident syzygies) and of the abstract c-sequence, with
    Hilbert-series agreement for the quotients."""
    results = []
    if k >= n:
        spec = named_sequence("q", n, k)
        hilb = ideal_quotient_dims(spec, WINDOW)
        cert = regular_sequence_check(spec, hilb)
        _verdict(results, "q-sequence is regular through the window",
                 cert.regular, "failures at %s" % cert.failure_degree
                 if not cert.regular else "degree %d" % WINDOW)
        quo = hilb[-1]
        expect = ci_hilbert(spec.ring.weights, spec.degrees, WINDOW)
        _verdict(results, "quotient dims match the Hilbert series",
                 [quo[t] for t in range(WINDOW + 1)] == expect)

    kk = min(k, 2)
    cspec = named_sequence("c", n, kk)
    cert = regular_sequence_check(
        cspec, ideal_quotient_dims(cspec, WINDOW + 2))
    _verdict(results, "c-sequence is regular through the window",
             cert.regular, "k=%d" % kk)
    return results


def suite_spectral(n, k, seed):
    """E_infinity agrees with the graded direct cohomology on a small
    window; in the k < n case E_1 already equals E_infinity.

    The window is 2 for n <= 2 and 1 above; it is kept fixed so that the
    verdicts for a given (n, k) and seed do not change between versions.
    """
    results = []
    max_degree = 2 if n <= 2 else 1
    R = FockRing(n, k)
    # iota splits the complex for every k (the Phi_J families are
    # iota-even, the *Phi_J families iota-odd); the parts are run apart
    # for k < n, where E_1 degenerates part by part and each is smaller
    parts = ("plus", "minus") if k < n else ("full",)
    for part in parts:
        rep = einf_and_converge(R, part, max_degree)
        _verdict(results,
                 "E_infinity matches graded cohomology (%s)" % part,
                 rep.ok, "mismatches %s" % (rep.mismatches,))
        if k < n:
            e1 = e1_dims(R, part, max_degree)
            _verdict(results, "degeneration at E_1 (%s)" % part,
                     e1 == rep.einf,
                     "E_1 %s vs E_inf %s" % (sorted(e1.items()),
                                             sorted(rep.einf.items())))
    return results


SUITES = {
    "signs": suite_signs,
    "closedness": suite_closedness,
    "invariance": suite_invariance,
    "bases": suite_bases,
    "koszul": suite_koszul,
    "spectral": suite_spectral,
}
