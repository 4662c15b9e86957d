"""The relative cochain complex C = Lambda(p*) (x) P_k and its differential.

A cochain of degree l is a map from l-element index sets (bitmasks over
{1..n}, see exterior) to polynomials in the Fock ring.  The differential is

    d = sum_j sum_alpha omega_alpha ^ . (x) (d^2/dz_{alpha j} dw_j
                                             - z_{alpha j} w_j),

split as d = d2 + dm2 with d2 the multiplication term (polynomial degree
+2) and dm2 the second-derivative term (-2).  The graded differential d'
(the one induced on the associated graded of the polynomial-degree
filtration) is the negative of the degree-raising piece, d' = -d2:

    d' = sum_alpha omega_alpha ^ . (x) q_alpha,   q_alpha = sum_i z_{alpha i} w_i.

Rows.  The routes eliminate {label: int} rows, omega_I (x) x^e labelled
bits * 2^(B N) + polyring.pack(e, B) (N = ring.nvars, bits the index set
I), in the order of the pairs (bits, e).  A call of top degree D takes
B = row_bits(D), for the degree D + 2 of its images (polyring.pack).  On
a basis element d has a closed form:

    d(omega_I (x) x^e) = sum_{alpha not in I} sum_j s(alpha, I)
        [e_z e_w x^{e - z - w} - x^{e + z + w}] omega_{I + alpha},

z = z_{alpha j} and w = w_j (as exponent unit vectors), e_z and e_w
their exponents in e, and s(alpha, I) the sign of wedge_bits(1 <<
(alpha - 1), I).  Each term is one monomial: for each (alpha, j) both
pieces act on the two variables z_{alpha j} and w_j alone, d2
multiplying by them (the exponent up by one in each) and dm2
differentiating once by each (down by one in each, times the two
exponents, zero when either is zero), and omega_alpha wedged onto
omega_I is one index set with a sign, or zero.  row_diff is this
formula on the labels, d on the rows of the direct route and the pages;
diff stays on cochains, with its pieces d2 and dm2, for the Fock route
of E_1 and the checks, which cross over by Cochain.from_row and to_row.

Invariant families.  By Weyl's first fundamental theorem for SO(n), the
invariants of vectors are generated by inner products and n x n
determinants.  Read with the form indices as extra vectors, every
invariant cochain is therefore an S_k-combination of the Phi_J and the
*Phi_J (r(i,j) for rhat(i,j), w(i) for what(i)): the families of
invariant_family span the invariants for every k.  They are a basis for
k < n, as the paper proves, and the tests find them free at k = n too;
for k > n the relations among inner products and determinants make them
dependent, which the consumers, all rank-based, do not mind.  So the
families are the S_k model pairs (J, m) evaluated in the Fock ring, as
m . Phi_J or m . *Phi_J (*Phi_J the Hodge star of Phi_J), and they come
from one enumeration, sk_model_pairs, whose pairs invariant_family
evaluates into rows; pm_basis_vectors reads the rows of one degree.

Invariant dimensions come from an independent route, the joint kernel
of the so(n) generators X_{i,i+1}, and serve as the oracle of the
families.  Since the w variables are untouched by so(n) the computation
factors through the z-part.  SO(n) keeps every column degree, and a
column permutation sigma in S_k (inside the GL(k) below) commutes with
SO(n) and leaves the form indices alone, so it maps the invariants of
column degrees c isomorphically onto those of sigma c: only the dominant
c (polyring.dominant_monomials) are computed, each counted orbit_size(c)
times.  Each c-part is cut into small blocks preserved by the "torus"
generators X_{12}, X_{34}, ...: such a rotation preserves, for every
column, the total degree in its two rows, the exact exponents of all
other rows, and the number of its two form indices present.  The
invariants are then the kernel of the remaining consecutive generators
restricted to the torus kernel.  (A vector killed by a generating set of
a Lie algebra is killed by the whole algebra, so this joint kernel is
exactly the space of SO(n)-invariants.)  Every generator acts on a basis
element omega_I (x) z^e through _gen_act_basis: the exponent shifts of
polyring.son_act_monomial, then the rotation of the form indices of
_rotate_forms, the same two pieces that son_act_cochain merges over a
cochain.  Its terms come in that order, and that order numbers the rows
of the torus matrices.

Weight grading.  The differential commutes with the GL(k) of the Howe
dual pair, z |-> z g and w |-> g^-1 w, and so does SO(n) and iota.  A
monomial z^a w^b has torus weight mu in Z^k, mu_j = (z-degree in column
j) - (degree in w_j) (FockRing.weight, and SkRing.weight for the S_k
monomial that evaluates to it); d2 multiplies by z_{alpha j} w_j and dm2
differentiates by the same pair, so both preserve mu, and SO(n) and iota
preserve every column degree.  The invariant complex is therefore the
direct sum of its weight blocks, each a coordinate subspace of the
monomial basis, and every rank it needs (cocycles, coboundaries inside a
degree window) is the sum of the block ranks.  The permutations of the
columns lie in GL(k): a permutation sigma maps the mu-block onto the
(sigma mu)-block, respecting d, iota, SO(n) and polynomial degree, so
the two blocks have equal ranks in every degree.  Hence only the
dominant blocks (mu_1 >= ... >= mu_k) are built and eliminated, and each
is counted orbit_size(mu) = |S_k mu| times.  The family builder knows a
vector's weight from the data that builds it, before any product, and
refuses to emit a vector that is not a weight vector of that weight.

Descent lemma.  Let y be an invariant cochain at level l-1 whose
coboundary dy has polynomial degree <= t, and let m >= t - 1 be the top
degree of y.  The degree-(m+2) part of dy is d2 y_m, so d2 y_m = 0.  If
E_1 = H(d2) vanishes at level l-1 in degree m, then y_m = d2 u for an
invariant u at level l-2 (y_m = 0 if l = 1), and y - du has the same
coboundary and top degree below m, since du = d2 u + dm2 u with dm2 u of
degree m - 4.  Repeating, every coboundary inside degree <= t is d of a
cochain of degree <= t - 2.  The weight blocks are direct summands
preserved by d, d2 and the degree, so the lemma holds block by block.

Its hypothesis, E_1 = 0 at every level that is ever a domain, holds for
every (n, k) and part:
  - k >= n: on Lambda(C^n) (x) P_k, d2 is +-sum_alpha omega_alpha ^ q_alpha,
    the Koszul complex of q_1..q_n.  Under lex order with z_11 > ... >
    z_nn above all other variables, LT(q_alpha) = z_alpha,alpha w_alpha,
    and these are pairwise coprime; so the q_alpha are a Groebner basis
    (Buchberger's first criterion; Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2, section 9) with a monomial
    complete-intersection initial ideal, hence a regular sequence.  The
    Koszul complex is exact below level n, taking SO(n)-invariants keeps
    it exact (SO(n) is reductive), and iota splits each part off as a
    summand.  So E_1 sits on level n, which is never a domain.
  - k < n: E_1 of the +1 part is the Koszul homology over S_k of the
    variables what_1..what_k, and of the -1 part that of c_1..c_k (d2 on
    the basis of the m . Phi_J and m . *Phi_J, in the closed form of the
    spectral docstring), whose leading terms under lex with rhat_11 >
    ... > rhat_kk first are rhat_jj what_j, pairwise coprime.  So E_1
    sits on level k (+1 part) and level n (-1 part); level k of the +1
    part is no domain either, because C_+^{k+1} = 0.  The full complex
    is the direct sum of its two parts (iota splits it), so there the
    lemma holds part by part.
The tests check the leading terms on the polynomials themselves, and
E_1 = 0 at every domain level: with e1_dims for k >= n, and for k < n,
where e1_dims reads only the ends of the two Koszul complexes, with the
model oracle of the tests (the d2 rows of each cell on the model basis)
and on the Fock route (the evaluated families and their diff).
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add

from .exterior import bits_of, contract_bits, star_bits, tuple_of, wedge_bits
from .linalg import (
    Eliminator,
    SparseRationalMatrix,
    combination,
    kernel_basis,
    rank_of_rows,
    span_intersect_window,
)
from .polyring import (
    FockRing,
    Polynomial,
    SkRing,
    dominant_monomials,
    ideal_piece,
    is_dominant,
    label_bits,
    minor,
    monomials_of_degree,
    orbit_size,
    pack,
    sk_evaluate,
    son_act,
    son_act_monomial,
    unpack,
    z_index,
)

__all__ = [
    "Cochain",
    "diff",
    "outer_product",
    "phi1",
    "Phi_J",
    "involution",
    "son_act_cochain",
    "invariant_dims",
    "pm_basis_vectors",
    "invariant_family",
    "row_bits",
    "degree_reader",
    "row_diff",
    "sk_model_pairs",
    "dominant_rows",
    "direct_cohomology_dims",
    "invariant_quotient_dims",
]


class Cochain:
    """parts: bitmask of a length-ell index set -> nonzero Polynomial."""

    __slots__ = ("ring", "ell", "parts")

    def __init__(self, ring, ell, parts=None):
        self.ring = ring
        self.ell = ell
        self.parts = {}
        if parts:
            for bits, p in parts.items():
                if p:
                    if bits.bit_count() != ell or bits >> ring.n:
                        raise ValueError("bad index set %r for ell=%d" % (bits, ell))
                    self.parts[bits] = p

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.ring == other.ring
            and self.ell == other.ell
            and self.parts == other.parts
        )

    def __add__(self, other):
        if self.ring != other.ring or self.ell != other.ell:
            raise ValueError("cochain mismatch")
        parts = dict(self.parts)
        for bits, p in other.parts.items():
            parts[bits] = parts.get(bits, self.ring.zero()) + p
        return Cochain(self.ring, self.ell, parts)

    def __neg__(self):
        return Cochain(self.ring, self.ell, {b: -p for b, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Cochain(self.ring, self.ell,
                       {b: p.scale(c) for b, p in self.parts.items()})

    def to_row(self, max_degree):
        """The row on the labels of a call of top degree max_degree (module
        docstring), part by part; a term of degree above max_degree + 2,
        whose digits could carry, raises ValueError."""
        bits = row_bits(max_degree)
        shift = bits * self.ring.nvars
        row = {}
        for fb, p in self.parts.items():
            for e, c in p.terms.items():
                if sum(e) > max_degree + 2:
                    raise ValueError("degree %d above a row of top degree %d"
                                     % (sum(e), max_degree))
                row[fb << shift | pack(e, bits)] = c
        return row

    @classmethod
    def from_row(cls, ring, ell, row, max_degree):
        """The inverse of to_row: each label decoded to (bits, exponent
        tuple), and the terms read by from_terms."""
        bits, nvars = row_bits(max_degree), ring.nvars
        return cls.from_terms(ring, ell, [
            ((x >> bits * nvars, unpack(x, bits, nvars)), c)
            for x, c in row.items()])

    @classmethod
    def from_terms(cls, ring, ell, terms):
        """The ((bits, exponent tuple), coef) terms as a cochain, grouped by
        index set (first appearance first), each group merged once by
        Polynomial._merge, so repeated keys add and zeros drop."""
        groups = {}
        for (bits, e), c in terms:
            groups.setdefault(bits, []).append((e, c))
        return cls(ring, ell, {bits: Polynomial._merge(ring, items)
                               for bits, items in groups.items()})

    def __repr__(self):
        if not self.parts:
            return "0"
        return " + ".join(
            "[%s](%r)" % (",".join(map(str, tuple_of(b))), p)
            for b, p in sorted(self.parts.items())
        )


def diff(c, mode="full"):
    """The differential (or one of its pieces) applied to a cochain, term
    by term: each term lands on one index set, and Cochain.from_terms
    merges the row terms once.  mode: full = d2 + dm2; d2 = the
    -z_{alpha j} w_j term; dm2 = the second-derivative term.  The graded
    differential d' is -d2, and its consumers take ranks only, which
    ignore the sign, so it has no mode of its own.
    """
    if mode not in ("full", "d2", "dm2"):
        raise ValueError("unknown mode %r" % mode)
    ring = c.ring
    terms = []
    for bits, f in c.parts.items():
        for alpha in range(1, ring.n + 1):
            s, nb = wedge_bits(1 << (alpha - 1), bits)
            if not s:
                continue
            for j in range(1, ring.k + 1):
                if mode in ("full", "dm2"):
                    g = f.partial(ring.z(alpha, j)).partial(ring.w(j))
                    terms += [((nb, e), s * v) for e, v in g.terms.items()]
                if mode in ("full", "d2"):
                    g = ring.z_var(alpha, j) * ring.w_var(j) * f
                    terms += [((nb, e), -s * v) for e, v in g.terms.items()]
    return Cochain.from_terms(ring, c.ell + 1, terms)


def row_bits(max_degree):
    """The label width B of a call of top degree max_degree: its rows and
    images have degree <= max_degree + 2 < 2^B - 1."""
    return label_bits(max_degree + 3)


def degree_reader(ring, max_degree):
    """The degree of a row label of a call of top degree max_degree: its
    exponent part mod 2^B - 1 (polyring.pack), B = row_bits(max_degree)."""
    bits = row_bits(max_degree)
    low, radix = (1 << bits * ring.nvars) - 1, (1 << bits) - 1
    return lambda x: (x & low) % radix


def row_diff(n, k, row, bits):
    """d = d2 + dm2 of a row of FockRing(n, k) on labels of width bits, in
    closed form (module docstring): per (alpha, j), d2 moves the form
    bits and adds 2^(B pos z) + 2^(B pos w), and dm2 subtracts it, times
    the product of those two digits.  Its terms are emitted and merged in
    the order of diff's, so it is diff(...).to_row(D) key for key."""
    nz, nvars, digit = n * k, n * k + k, (1 << bits) - 1
    groups = {}
    for x, c in row.items():
        groups.setdefault(x >> bits * nvars, []).append((x, c))
    out = {}  # target bits -> {label: coef}
    for fb, terms in groups.items():
        for alpha in range(1, n + 1):
            s, nb = wedge_bits(1 << (alpha - 1), fb)
            if not s:
                continue
            tgt = out.setdefault(nb, {})
            move = (nb - fb) << bits * nvars
            for zi, wi in zip(range(alpha - 1, nz, n), range(nz, nvars)):
                zs, ws = bits * (nvars - 1 - zi), bits * (nvars - 1 - wi)
                step = (1 << zs) + (1 << ws)
                # dm2: d^2/dz dw lowers both exponents, times their product
                for x, c in terms:
                    v = (x >> zs & digit) * (x >> ws & digit)
                    if v:
                        y = x + move - step
                        v = tgt.get(y, 0) + s * c * v
                        if v:
                            tgt[y] = v
                        elif y in tgt:
                            del tgt[y]
                # d2: times -z w raises both
                for x, c in terms:
                    y = x + move + step
                    v = tgt.get(y, 0) - s * c
                    if v:
                        tgt[y] = v
                    elif y in tgt:
                        del tgt[y]
    return {y: c for tgt in out.values() for y, c in tgt.items()}


def _embed_poly(p, big, col_offset):
    """Reindex a FockRing(n, k) polynomial into FockRing(n, k1+k2),
    shifting vector labels by col_offset: the z-part and the w-part of each
    exponent tuple padded by the columns around them (polyring.z_index)."""
    small = p.ring
    n, nz = small.n, small.n * small.k
    after = big.k - small.k - col_offset
    left, mid = (0,) * (n * col_offset), (0,) * (n * after + col_offset)
    return Polynomial(big, {left + e[:nz] + mid + e[nz:] + (0,) * after: coef
                            for e, coef in p.terms.items()})


def outer_product(a, b):
    """(omega_I (x) f) ^ (omega_J (x) g) = (omega_I ^ omega_J) (x) f g',
    with g' the polynomial g relabeled to the fresh vector slots; the
    terms of all pairs of parts are merged once (Cochain.from_terms)."""
    if a.ring.n != b.ring.n:
        raise ValueError("mismatched n")
    k1 = a.ring.k
    big = FockRing(a.ring.n, k1 + b.ring.k)
    left = [(bi, _embed_poly(f, big, 0)) for bi, f in a.parts.items()]
    right = [(bj, _embed_poly(g, big, k1)) for bj, g in b.parts.items()]
    terms = []
    for (bi, fe), (bj, ge) in itertools.product(left, right):
        s, nb = wedge_bits(bi, bj)
        if s:
            terms += [((nb, e), s * v) for e, v in (fe * ge).terms.items()]
    return Cochain.from_terms(big, a.ell + b.ell, terms)


def phi1(ring):
    """phi_1 = sum_alpha omega_alpha (x) z(alpha, 1), the Phi_J of
    J = (1,)."""
    return Phi_J(ring, (1,))


def Phi_J(ring, J):
    """sum over I of omega_I (x) f_{I,J}, I the |J|-subsets of {1..n}.
    Raises ValueError when |J| > k ("|J| exceeds k") and when |J| > n
    ("|J| exceeds n"), where the sum over I would be empty."""
    J = tuple(J)
    l = len(J)
    if l > ring.k:
        raise ValueError("|J| exceeds k")
    if l > ring.n:
        raise ValueError("|J| exceeds n")
    parts = {}
    for I in itertools.combinations(range(1, ring.n + 1), l):
        parts[bits_of(I)] = minor(ring, I, J)
    return Cochain(ring, l, parts)


def involution(c, which):
    """iota flips e_1: omega_1 and the variables z(1,i) change sign.
    iota_prime flips e_{n+1}: every omega_alpha and the variables w(i)
    change sign, so an ell-form picks up (-1)^ell.  A term's sign is the
    parity of its flipped degrees plus the form bit of omega_1 (iota) or
    ell (iota_prime); the terms are merged by Cochain.from_terms."""
    ring = c.ring
    cols = range(1, ring.k + 1)
    if which == "iota":
        flipped = [ring.z(1, i) for i in cols]
    elif which == "iota_prime":
        flipped = [ring.w(i) for i in cols]
    else:
        raise ValueError("unknown involution %r" % which)
    terms = []
    for bits, f in c.parts.items():
        for e, v in f.terms.items():
            odd = (bits & 1 if which == "iota" else c.ell) + \
                sum(e[i] for i in flipped)
            terms.append(((bits, e), -v if odd % 2 else v))
    return Cochain.from_terms(ring, c.ell, terms)


def son_act_cochain(a, b, c):
    """The generator X_ab acting as a derivation: the rotation of the form
    indices (X.omega_a = omega_b, X.omega_b = -omega_a) plus the polyring
    action on coefficients.  Normalized so that X.phi_1 = 0.  The merge of
    _gen_act_basis over the terms of c (Cochain.from_terms)."""
    if not a < b:
        raise ValueError("need a < b")
    ring = c.ring
    return Cochain.from_terms(ring, c.ell, [
        (key, v * x) for fb, f in c.parts.items() for e, v in f.terms.items()
        for key, x in _gen_act_basis(ring.n, ring.k, a, b, fb, e).items()])


def _rotate_forms(a, b, bits):
    """X_ab on the form omega_I, I the index set of bits: X.omega_a =
    omega_b and X.omega_b = -omega_a, yielding (bits', sign).  At most one
    term survives: with both a and b in I each rotation wedges onto an
    index already there."""
    for src, dst, sgn in ((a, b, 1), (b, a, -1)):
        s1, rem = contract_bits(src, bits)
        s2, nb = wedge_bits(1 << (dst - 1), rem)
        if s1 and s2:
            yield nb, sgn * s1 * s2


def _gen_act_basis(n, k, a, b, bits, e):
    """X_ab applied to the basis element omega_I (x) z^e, as a
    {(bits, expo): int} row: per column the two shifts of
    son_act_monomial, then the rotation of _rotate_forms.  The keys are
    pairwise distinct (the shifts keep bits and change e, the rotation
    keeps e and changes bits), so nothing is merged."""
    row = {(bits, ne): x
           for ne, x in son_act_monomial(n, k, a, b, e).items()}
    for nb, s in _rotate_forms(a, b, bits):
        row[nb, e] = s
    return row


# ---------------------------------------------------------------------------
# invariants


def _torus_block_key(n, k, bits, ze):
    parts = []
    for j in range(n // 2):
        a, b = 2 * j + 1, 2 * j + 2
        fcount = ((bits >> (a - 1)) & 1) + ((bits >> (b - 1)) & 1)
        degs = tuple(
            ze[z_index(n, a, i)] + ze[z_index(n, b, i)] for i in range(1, k + 1)
        )
        parts.append((fcount, degs))
    if n % 2:
        parts.append((
            (bits >> (n - 1)) & 1,
            tuple(ze[z_index(n, n, i)] for i in range(1, k + 1)),
        ))
    return tuple(parts)


def _images(n, k, gens, be):
    """{(g, bits, ze): v}: X_g of the basis element be = (bits, ze) for
    each generator g = (a, b) of gens."""
    return {(g, *tgt): v for g, (a, b) in enumerate(gens)
            for tgt, v in _gen_act_basis(n, k, a, b, *be).items()}


def _zform_invariant_rows(n, k, ell, dz):
    """{c: basis rows {(bits, z-expo): int}} of the SO(n)-invariants of
    Lambda^ell (x) Pol_z(dz) of column degrees c, for each dominant c;
    those of sigma c are as many (module docstring)."""
    out = {}
    if not 0 <= ell <= n:
        return out
    nz = n * k
    forms = [bits_of(I) for I in itertools.combinations(range(1, n + 1), ell)]
    torus = [(2 * j + 1, 2 * j + 2) for j in range(n // 2)]
    remaining = [(i, i + 1) for i in range(2, n, 2)]
    for c, mons in dominant_monomials(FockRing(n, k), dz, range(nz)).items():
        blocks = {}
        for bits in forms:
            for e in mons:
                be = (bits, e[:nz])
                blocks.setdefault(_torus_block_key(n, k, *be), []).append(be)
        # the torus kernel of each block, then the part of its span that
        # X_{2,3}, X_{4,5}, ... kill: the rows (v | X_g v) span the graph
        # of the generators on it, read off in the (bits, ze) labels.
        # Column t of the torus map is the images of member t; the row
        # (e_t | X_g e_t) of a member is built for each kernel vector
        # that uses it
        graph = []
        for members in blocks.values():
            m = SparseRationalMatrix([_images(n, k, torus, be)
                                      for be in members])
            for vec in kernel_basis(m):
                graph.append(combination(vec, {
                    t: {members[t]: 1, **_images(n, k, remaining, members[t])}
                    for t in vec}))
        out[c] = span_intersect_window(graph, lambda key: len(key) == 2)
    return out


def invariant_dims(ring, ell, window):
    """[dim of the SO(n)-invariants of Lambda^ell (x) P_k(d) for d <= window].

    The w variables are inert, so each entry is a sum over the z-degree dz
    of the z-form invariant dimension, computed once per dz, times the
    count of w-monomials of degree d - dz; each z-form dimension counts
    the dominant column-degree blocks with their orbit sizes.
    """
    n, k = ring.n, ring.k
    zdims = [sum(orbit_size(c) * len(rows) for c, rows in
                 _zform_invariant_rows(n, k, ell, dz).items())
             for dz in range(window + 1)]
    return [sum(zi * comb(d - dz + k - 1, k - 1)
                for dz, zi in enumerate(zdims[:d + 1]))
            for d in range(window + 1)]


# ---------------------------------------------------------------------------
# torus weights (see the module docstring; the weight of a monomial is
# its ring's weight, and is_dominant and orbit_size come from polyring)


def _check_weight(polys, mu):
    """Raise unless every monomial of the polynomials has weight mu."""
    for p in polys:
        for e in p.terms:
            if p.ring.weight(e) != mu:
                raise ValueError("not a weight vector of weight %r" % (mu,))


def sk_model_pairs(sk, n, part, ell, d, dominant):
    """The pairs (J, m) of the part at bidegree (ell, d) as triples
    (weight, J, m): m an S_k exponent tuple and J increasing, standing for
    m . Phi_J (plus, |J| = ell) or m . *Phi_J (minus, |J| = n - ell), with
    deg m = d - |J| and weight weight(m) + e_J; only the dominant weights
    if dominant is set.  m runs in monomial order and, for each m, J in
    combination order.  The one enumeration of the families, which the
    Fock builder evaluates."""
    if part not in ("plus", "minus"):
        raise ValueError("part must be plus or minus")
    jsize = ell if part == "plus" else n - ell
    if ell < 0 or ell > n or not 0 <= jsize <= sk.k:
        return
    Js = [(J, [int(j in J) for j in range(1, sk.k + 1)])
          for J in itertools.combinations(range(1, sk.k + 1), jsize)]
    for expo in monomials_of_degree(sk, d - jsize):
        mw = sk.weight(expo)
        for J, eJ in Js:
            mu = tuple(map(add, mw, eJ))
            if not dominant or is_dominant(mu):
                yield mu, J, expo


def _family_base(ring, part, J):
    """The base of the family (part, J) as [(bits, [(exponent, coef)])],
    built once per ring and kept on it: the terms of Phi_J for plus,
    checked to have the weight e_J, and for minus their Hodge star (*Phi_J),
    each index set sent to its complement by star_bits and its terms
    multiplied by the sign, so every minor is built once per ring."""
    memo = ring._family_bases
    key = part, J
    if key not in memo:
        if part == "plus":
            c = Phi_J(ring, J)
            _check_weight(c.parts.values(),
                          tuple(int(j in J) for j in range(1, ring.k + 1)))
            memo[key] = [(bits, list(f.terms.items()))
                         for bits, f in c.parts.items()]
        else:
            base = []
            for bits, terms in _family_base(ring, "plus", J):
                s, comp = star_bits(bits, ring.n)
                base.append((comp, [(e, s * c) for e, c in terms]))
            memo[key] = base
    return memo[key]


def invariant_family(ring, part, ell, degrees, dominant=False):
    """{degree: [(weight, row)]}: the spanning families of the invariant
    cochains at level ell as rows on labels of width row_bits(max degree),
    each with its weight, for each degree in degrees; the pairs of
    sk_model_pairs evaluated, in degree order, then part order (plus
    before minus for full), then the order of the pairs.

    They span for every k (see the module docstring), so they serve every
    consumer that needs ranks only.  With dominant set, only the vectors
    of dominant weight are built: they span the dominant weight blocks,
    which is all the cohomology routes need.

    The one family builder.  SkRing(k) is made once per call, the base of
    each Phi_J / *Phi_J once per ring (_family_base), and each S_k
    monomial m is evaluated once (sk_evaluate); both are checked to be
    weight vectors of the weight their data give, e_J and weight(m), and
    packed once per call.  The labels of m . Phi_J are the sums of a Phi_J
    label and a label of m, merged in the order of Polynomial.__mul__, so
    the row is m . Phi_J flattened (Cochain.to_row) term for term.  part
    is plus, minus or full, checked first: every Fock route starts here.
    """
    if part not in ("plus", "minus", "full"):
        raise ValueError("part must be plus, minus or full")
    parts = ("plus", "minus") if part == "full" else (part,)
    bits = row_bits(max(degrees, default=0))
    shift = bits * ring.nvars
    sk = SkRing(ring.k)
    bases = {}  # (part, J) -> [(label, coef)] of its base
    images = {}  # S_k exponent -> [(label, coef)] of its image
    out = {}
    for d in degrees:
        rows = out[d] = []
        for p in parts:
            for mu, J, expo in sk_model_pairs(sk, ring.n, p, ell, d,
                                              dominant):
                base = bases.get((p, J))
                if base is None:
                    base = bases[p, J] = [
                        (fb << shift | pack(e, bits), c)
                        for fb, terms in _family_base(ring, p, J)
                        for e, c in terms]
                m = images.get(expo)
                if m is None:
                    poly = sk_evaluate(Polynomial(sk, {expo: 1}), ring)
                    _check_weight((poly,), sk.weight(expo))
                    m = images[expo] = [(pack(e, bits), c)
                                        for e, c in poly.terms.items()]
                row = {}
                for x1, c1 in base:
                    for x2, c2 in m:
                        x = x1 + x2
                        v = row.get(x, 0) + c1 * c2
                        if v:
                            row[x] = v
                        elif x in row:
                            del row[x]
                rows.append((mu, row))
    return out


def pm_basis_vectors(ring, part, ell, d):
    """The rows of invariant_family at bidegree (ell, d), in their order:
    the spanning family of C_+ (m . Phi_J), of C_- (m . *Phi_J), or of
    both (full, plus first).  The family spans for every k and is
    dependent for k > n (see the module docstring)."""
    return [row for _, row in invariant_family(ring, part, ell, (d,))[d]]


# ---------------------------------------------------------------------------
# rows of the dominant families


def dominant_rows(ring, part, ell, degrees):
    """{weight: {degree: iterator of (row, full-d image row)}} of the
    dominant invariant family at level ell, in family order: the rows
    that the direct route and the spectral pages eliminate.  The rows
    come from invariant_family, grouped by the weight each is built with;
    each image is row_diff of its row at their width, made as it is read."""
    n, k = ring.n, ring.k
    bits = row_bits(max(degrees, default=0))

    def read(rows):
        for row in rows:
            yield row, row_diff(n, k, row, bits)

    blocks = {}
    for d, rows in invariant_family(ring, part, ell, degrees,
                                    dominant=True).items():
        for mu, row in rows:
            blocks.setdefault(mu, {}).setdefault(d, []).append(row)
    return {mu: {d: read(rows) for d, rows in block.items()}
            for mu, block in blocks.items()}


# ---------------------------------------------------------------------------
# direct graded cohomology (the truncation is the descent lemma of the
# module docstring)


def _block_filtration(coc, dom, D):
    """The filtration counts [F_t for t <= D] of one weight block.

    coc and dom are {degree: iterable of (row, image row)} for the
    cocycle level and the level below; dom is read for its image rows
    through degree D - 2 only; each iterable is read at most once.
    F_t = rank(family, deg <= t) - rank(d of it) - rank(d(domain, deg <=
    t - 2)), the last term being the coboundaries inside degree <= t by
    the descent lemma.
    """
    ev, edv, eb = Eliminator(), Eliminator(), Eliminator()
    F = []
    for t in range(D + 1):
        for row, img in coc.get(t, ()):
            ev.add_row(row)
            edv.add_row(img)
        for _, img in dom.get(t - 2, ()):
            eb.add_row(img)
        F.append(ev.rank - edv.rank - eb.rank)
    return F


def direct_cohomology_dims(ring, part, ell, max_degree, store=None):
    """Graded dimensions {degree: dim} of H^ell of the invariant complex.

    The cohomology is filtered (not graded) by polynomial degree; the
    reported cell at degree t is gr_t = F_t - F_{t-1} where
    F_t = dim{cocycles of degree <= t} - dim(coboundaries inside degree
    <= t).  Both terms are exact on the window: the cocycle level is read
    through degree max_degree, and the domain level through max_degree -
    2 only, because by the descent lemma (module docstring) every
    coboundary inside degree <= t is d of a cochain of degree <= t - 2.
    Its hypothesis, E_1 = 0 at the domain level, holds for every (n, k)
    and part by the leading-term certificate stated there.

    Every F_t is a sum over the weight blocks, so only the dominant
    blocks are eliminated, each counted with its orbit size.  A domain
    block with no cocycle-level rows has zero images, so the blocks of
    the cocycle level are all there is to count.

    The rows are those of dominant_rows.  store, if given, is {level:
    {weight: {degree: [(row, image row)]}}}, each level dominant_rows of
    it with its pairs read into lists, through degree max_degree at
    least; a pages call passes its store, so it builds each family once.
    Without a store each level is one dominant_rows call, whose one
    invariant_family call builds every row of the level before the first
    pair is read; only the image rows are made as they are read, each
    row_diff of its row and dropped after it, and of the domain level
    only the image rows are eliminated.
    """
    D = max_degree
    if store is not None:
        coc, dom = store[ell], store.get(ell - 1, {})
    else:
        coc = dominant_rows(ring, part, ell, range(D + 1))
        dom = dominant_rows(ring, part, ell - 1, range(D - 1))
    F = [0] * (D + 1)
    for mu, block in coc.items():
        mult = orbit_size(mu)
        for t, f in enumerate(_block_filtration(block, dom.get(mu, {}), D)):
            F[t] += mult * f

    return {t: F[t] - (F[t - 1] if t else 0) for t in range(D + 1)}


def invariant_quotient_dims(ring, gens, window):
    """{t <= window: dim of the SO(n)-invariants of (P / (gens))_t}.

    The quotient is K-stable whenever the ideal is (as it is for the
    q-sequence), and then its invariant dimension is the difference of
    the invariant dimensions of the ambient graded piece and of the
    ideal piece.  The latter is computed on a spanning family: for a
    K-stable subspace W spanned by {f_j}, the invariants have dimension
    rank{f_j} minus the rank of the stacked generator images
    {(X_g f_j)_g}.
    """
    n = ring.n
    pairs = [(a, a + 1) for a in range(1, n)]

    def inv_span_dim(polys):
        return rank_of_rows(p.terms for p in polys) - rank_of_rows(
            {(gi, e): c for gi, (a, b) in enumerate(pairs)
             for e, c in son_act(a, b, p).terms.items()}
            for p in polys)

    inv = invariant_dims(ring, 0, window)
    return {t: inv[t] - inv_span_dim(ideal_piece(ring, gens, t))
            for t in range(window + 1)}
