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

Invariant families.  By Weyl's first fundamental theorem for SO(n), the
invariants of vectors are generated by inner products and n x n
determinants.  Read with the form indices as extra vectors, every
invariant cochain is therefore an S_k-combination of the Phi_J and the
*Phi_J (r(i,j) for rhat(i,j), w(i) for what(i)): the families of
pm_basis_vectors span the invariants for every k.  They are a basis for
k < n, as the paper proves, and the tests find them free at k = n too;
for k > n the relations among inner products and determinants make them
dependent, which the consumers, all rank-based, do not mind.  So the
families are the S_k model pairs (J, m) evaluated in the Fock ring, as
m . Phi_J or m . *Phi_J (*Phi_J the Hodge star of Phi_J), and they come
from one enumeration, sk_model_pairs: pm_basis_vectors evaluates its
pairs, and the model's table (sk_model_table) groups the same pairs,
made by the same loop, by weight.

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
exactly the space of SO(n)-invariants.)

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
    variables what_1..what_k, and of the -1 part that of c_1..c_k (the
    d2 rows of sk_model_d2_row on the basis of sk_model_table), whose
    leading terms under lex with rhat_11 > ... > rhat_kk first are
    rhat_jj what_j, pairwise coprime.  So E_1 sits on level k (+1 part)
    and level n (-1 part); level k of the +1 part is no domain either,
    because C_+^{k+1} = 0.  The full complex is the direct sum of its
    two parts (iota splits it), so there the lemma holds part by part.
The tests check the leading terms on the polynomials themselves, and
E_1 = 0 at every domain level with e1_dims, and for k < n also on the
evaluated families and their diff.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add

from .exterior import bits_of, contract_bits, star_bits, tuple_of, wedge_bits
from .linalg import (
    Eliminator,
    SparseRationalMatrix,
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
    minor,
    monomials_of_degree,
    orbit_size,
    sk_evaluate,
    son_act,
)

__all__ = [
    "Cochain",
    "diff",
    "outer_product",
    "phi1",
    "Phi_J",
    "star_Phi_J",
    "involution",
    "son_act_cochain",
    "invariant_dims",
    "pm_basis_vectors",
    "invariant_family",
    "sk_model_pairs",
    "sk_model_table",
    "sk_model_d2_row",
    "cochain_weight",
    "is_dominant",
    "orbit_size",
    "weight_blocks",
    "dominant_rows",
    "direct_cohomology_dims",
    "CohomologyReport",
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
            s = parts.get(bits, self.ring.zero()) + p
            if s:
                parts[bits] = s
            elif bits in parts:
                del parts[bits]
        return Cochain(self.ring, self.ell, parts)

    def __neg__(self):
        return Cochain(self.ring, self.ell, {b: -p for b, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return Cochain(self.ring, self.ell)
        return Cochain(self.ring, self.ell,
                       {b: p.scale(c) for b, p in self.parts.items()})

    def mul_poly(self, p):
        return Cochain(self.ring, self.ell,
                       {b: f * p for b, f in self.parts.items()})

    def to_row(self):
        """Flatten to a sparse vector keyed by (bits, exponent tuple)."""
        row = {}
        for bits, p in self.parts.items():
            for e, c in p.terms.items():
                row[(bits, e)] = c
        return row

    def __repr__(self):
        if not self.parts:
            return "0"
        return " + ".join(
            "[%s](%r)" % (",".join(map(str, tuple_of(b))), p)
            for b, p in sorted(self.parts.items())
        )


def diff(c, mode="full"):
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
            s, nb = wedge_bits(1 << (alpha - 1), bits)
            if not s:
                continue
            for j in range(1, k + 1):
                if mode in ("full", "dm2"):
                    bump(nb, f.partial(ring.z(alpha, j)).partial(ring.w(j)), s)
                if mode in ("full", "d2"):
                    bump(nb, ring.z_var(alpha, j) * ring.w_var(j) * f, -s)

    parts = {b: Polynomial(ring, t) for b, t in acc.items() if t}
    return Cochain(ring, c.ell + 1, parts)


def _embed_poly(p, big, col_offset):
    """Reindex a FockRing(n, k) polynomial into FockRing(n, k1+k2),
    shifting vector labels by col_offset."""
    small = p.ring
    n = small.n
    terms = {}
    for e, coef in p.terms.items():
        ne = [0] * big.nvars
        for i in range(1, small.k + 1):
            for a in range(1, n + 1):
                x = e[small.z(a, i)]
                if x:
                    ne[big.z(a, i + col_offset)] = x
            x = e[small.w(i)]
            if x:
                ne[big.w(i + col_offset)] = x
        terms[tuple(ne)] = coef
    return Polynomial(big, terms)


def outer_product(a, b):
    """(omega_I (x) f) ^ (omega_J (x) g) = (omega_I ^ omega_J) (x) f g',
    with g' the polynomial g relabeled to the fresh vector slots."""
    if a.ring.n != b.ring.n:
        raise ValueError("mismatched n")
    n = a.ring.n
    k1, k2 = a.ring.k, b.ring.k
    big = FockRing(n, k1 + k2)
    out = Cochain(big, a.ell + b.ell)
    for bi, f in a.parts.items():
        fe = _embed_poly(f, big, 0)
        for bj, g in b.parts.items():
            s, nb = wedge_bits(bi, bj)
            if not s:
                continue
            ge = _embed_poly(g, big, k1)
            out = out + Cochain(big, a.ell + b.ell, {nb: (fe * ge).scale(s)})
    return out


def phi1(ring, slot=1):
    """phi_1 in slot j: sum_alpha omega_alpha (x) z(alpha, j)."""
    return Cochain(ring, 1,
                   {1 << (a - 1): ring.z_var(a, slot) for a in range(1, ring.n + 1)})


def Phi_J(ring, J):
    """sum over I of omega_I (x) f_{I,J}; zero when |J| > n."""
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


def star_Phi_J(ring, J):
    """Hodge dual family: sum over I of f_{I,J} (x) *(omega_I)."""
    c = Phi_J(ring, J)
    parts = {}
    for bits, f in c.parts.items():
        s, comp = star_bits(bits, ring.n)
        parts[comp] = f.scale(s)
    return Cochain(ring, ring.n - c.ell, parts)


def involution(c, which):
    """iota flips e_1: omega_1 and the variables z(1,i) change sign.
    iota_prime flips e_{n+1}: every omega_alpha and the variables w(i)
    change sign, so an ell-form picks up (-1)^ell."""
    ring = c.ring
    if which == "iota":
        zvars = [ring.z(1, i) for i in range(1, ring.k + 1)]
        parts = {}
        for bits, p in c.parts.items():
            s = -1 if bits & 1 else 1
            parts[bits] = p.sign_flip(zvars).scale(s)
        return Cochain(ring, c.ell, parts)
    if which == "iota_prime":
        wvars = [ring.w(i) for i in range(1, ring.k + 1)]
        s = (-1) ** c.ell
        return Cochain(ring, c.ell,
                       {b: p.sign_flip(wvars).scale(s) for b, p in c.parts.items()})
    raise ValueError("unknown involution %r" % which)


def son_act_cochain(a, b, c):
    """The generator X_ab acting as a derivation: the rotation of the form
    indices (X.omega_a = omega_b, X.omega_b = -omega_a) plus the polyring
    action on coefficients.  Normalized so that X.phi_1 = 0."""
    if not a < b:
        raise ValueError("need a < b")
    ring = c.ring
    out = Cochain(ring, c.ell)
    for bits, f in c.parts.items():
        pf = son_act(a, b, f)
        if pf:
            out = out + Cochain(ring, c.ell, {bits: pf})
        for src, dst, sgn in ((a, b, 1), (b, a, -1)):
            if bits & (1 << (src - 1)):
                s1, rem = contract_bits(src, bits)
                s2, nb = wedge_bits(1 << (dst - 1), rem)
                if s2:
                    out = out + Cochain(ring, c.ell, {nb: f.scale(sgn * s1 * s2)})
    return out


# ---------------------------------------------------------------------------
# invariants


def _z_index(n, alpha, i):
    return (i - 1) * n + (alpha - 1)


def _gen_act_basis(n, k, a, b, bits, ze):
    """X_ab applied to the basis element omega_I (x) z-monomial, as a
    {(bits, expo): int} row."""
    out = {}

    def bump(key, v):
        nv = out.get(key, 0) + v
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]

    for i in range(1, k + 1):
        ia, ib = _z_index(n, a, i), _z_index(n, b, i)
        e = ze[ia]
        if e:
            ne = list(ze)
            ne[ia] -= 1
            ne[ib] += 1
            bump((bits, tuple(ne)), e)
        e = ze[ib]
        if e:
            ne = list(ze)
            ne[ib] -= 1
            ne[ia] += 1
            bump((bits, tuple(ne)), -e)
    for src, dst, sgn in ((a, b, 1), (b, a, -1)):
        if bits & (1 << (src - 1)):
            s1, rem = contract_bits(src, bits)
            s2, nb = wedge_bits(1 << (dst - 1), rem)
            if s2:
                bump((nb, ze), sgn * s1 * s2)
    return out


def _torus_block_key(n, k, bits, ze):
    parts = []
    for j in range(n // 2):
        a, b = 2 * j + 1, 2 * j + 2
        fcount = ((bits >> (a - 1)) & 1) + ((bits >> (b - 1)) & 1)
        degs = tuple(
            ze[_z_index(n, a, i)] + ze[_z_index(n, b, i)] for i in range(1, k + 1)
        )
        parts.append((fcount, degs))
    if n % 2:
        parts.append((
            (bits >> (n - 1)) & 1,
            tuple(ze[_z_index(n, n, i)] for i in range(1, k + 1)),
        ))
    return tuple(parts)


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
        # of the generators on it, read off in the (bits, ze) labels
        graph = []
        for members in blocks.values():
            rows_by_target = {}
            for t, (bits, ze) in enumerate(members):
                for g, (a, b) in enumerate(torus):
                    for tgt, v in _gen_act_basis(n, k, a, b, bits,
                                                 ze).items():
                        rows_by_target.setdefault((g, tgt), {})[t] = v
            m = SparseRationalMatrix(len(rows_by_target), len(members))
            for ri, row in enumerate(rows_by_target.values()):
                for t, v in row.items():
                    m.set(ri, t, v)
            for vec in kernel_basis(m):
                row = {members[t]: v for t, v in vec.items()}
                for g, (a, b) in enumerate(remaining):
                    for t, coef in vec.items():
                        for tgt, v in _gen_act_basis(n, k, a, b,
                                                     *members[t]).items():
                            key = (g, *tgt)
                            nv = row.get(key, 0) + coef * v
                            if nv:
                                row[key] = nv
                            elif key in row:
                                del row[key]
                graph.append(row)
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


def cochain_weight(c):
    """The weight of a nonzero weight vector, read off one monomial;
    None for the zero cochain."""
    for p in c.parts.values():
        for e in p.terms:
            return c.ring.weight(e)
    return None


def weight_blocks(families):
    """{degree: [weight vector]} -> {weight: {degree: [weight vector]}},
    keeping the order within each degree."""
    out = {}
    for d, vecs in families.items():
        for v in vecs:
            mu = cochain_weight(v)
            if mu is not None:
                out.setdefault(mu, {}).setdefault(d, []).append(v)
    return out


def sk_model_pairs(sk, n, part, ell, d, dominant):
    """The pairs (J, m) of the part at bidegree (ell, d) as triples
    (weight, J, m): m an S_k exponent tuple and J increasing, standing for
    m . Phi_J (plus, |J| = ell) or m . *Phi_J (minus, |J| = n - ell), with
    deg m = d - |J| and weight weight(m) + e_J; only the dominant weights
    if dominant is set.  m runs in monomial order and, for each m, J in
    combination order.  The one enumeration of the families: the Fock
    builder evaluates these pairs, and sk_model_table groups the same
    pairs of every cell of a window, made by the same loop."""
    if part not in ("plus", "minus"):
        raise ValueError("part must be plus or minus")
    jsize = ell if part == "plus" else n - ell
    if ell < 0 or ell > n or not 0 <= jsize <= sk.k or d < jsize:
        return
    yield from _sized_pairs(sk.k, jsize, (
        (expo, sk.weight(expo)) for expo in monomials_of_degree(sk, d - jsize)
    ), dominant)


def _sized_pairs(k, jsize, monomials, dominant):
    """The triples (weight, J, m) of sk_model_pairs with |J| = jsize,
    monomials the pairs (m, weight(m)) in monomial order."""
    Js = [(J, [int(j in J) for j in range(1, k + 1)])
          for J in itertools.combinations(range(1, k + 1), jsize)]
    for expo, mw in monomials:
        for J, eJ in Js:
            mu = tuple(map(add, mw, eJ))
            if not dominant or is_dominant(mu):
                yield mu, J, expo


def pm_basis_vectors(ring, part, ell, d, dominant=False):
    """The spanning family of C_+ (m . Phi_J) or C_- (m . *Phi_J) at
    bidegree (ell, d): the pairs of sk_model_pairs evaluated, in their
    order; only the vectors of dominant weight if dominant is set.  The
    family spans for every k and is dependent for k > n (see the module
    docstring).  Each Phi_J / *Phi_J is built once per call, on first
    use, and each m is evaluated once."""
    sk = SkRing(ring.k)
    build = Phi_J if part == "plus" else star_Phi_J
    gens = {}
    out = []
    last = m = None
    for _, J, expo in sk_model_pairs(sk, ring.n, part, ell, d, dominant):
        c = gens.get(J)
        if c is None:
            c = gens[J] = build(ring, J)
            _check_weight(c.parts.values(),
                          tuple(int(j in J) for j in range(1, ring.k + 1)))
        if expo != last:
            last = expo
            m = sk_evaluate(Polynomial(sk, {expo: 1}), ring)
            _check_weight((m,), sk.weight(expo))
        out.append(c.mul_poly(m))
    return out


def invariant_family(ring, part, ell, degrees, dominant=False):
    """Per-degree spanning families of the invariant cochains: the
    pm_basis_vectors of the part, and of both parts for full.

    They span for every k (see the module docstring), so they serve every
    consumer that needs ranks only.  Every vector is a weight vector.
    With dominant set, only the vectors of dominant weight are built:
    they span the dominant weight blocks, which is all the cohomology
    routes need.  Returns {degree: list of Cochain}.
    """
    parts = ("plus", "minus") if part == "full" else (part,)
    return {d: [v for p in parts
                for v in pm_basis_vectors(ring, p, ell, d, dominant)]
            for d in degrees}


# ---------------------------------------------------------------------------
# the S_k model of the invariant cochains, for k < n


def sk_model_table(sk, max_degree):
    """{(|J|, s): [(orbit size, [(J, m)])]} of the dominant pairs with
    |J| <= k and deg m = s <= max_degree - |J|, one block per weight:
    the blocks in the order of their first pair and each block in the
    order of sk_model_pairs (m in monomial order, then J in combination
    order).  For k < n these vectors are a basis of the dominant
    invariant cochains (the paper's theorem), so nothing is evaluated.
    The pairs of the plus part at level |J| and of the minus part at
    level n - |J| are the same, so one entry serves both.  Each degree
    is enumerated once, each monomial's weight computed once and each
    orbit size once per weight."""
    sizes = {}  # weight -> orbit size
    table = {}
    for s in range(max_degree + 1):
        monomials = [(expo, sk.weight(expo))
                     for expo in monomials_of_degree(sk, s)]
        for jsize in range(min(sk.k, max_degree - s) + 1):
            blocks = {}
            for mu, J, expo in _sized_pairs(sk.k, jsize, monomials, True):
                blocks.setdefault(mu, []).append((J, expo))
            for mu in blocks:
                if mu not in sizes:
                    sizes[mu] = orbit_size(mu)
            table[jsize, s] = [(sizes[mu], pairs)
                               for mu, pairs in blocks.items()]
    return table


def sk_model_d2_row(sk, part, J, expo):
    """The d2 row {(J', m'): coef} of m . Phi_J (plus) or m . *Phi_J
    (minus), m the S_k monomial expo, in the pairs of sk_model_table:

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


# ---------------------------------------------------------------------------
# rows of the dominant families


def dominant_rows(ring, part, ell, degrees, images):
    """{weight: {degree: iterator of (row, full-d image row)}} of the
    dominant invariant family at level ell, in family order: the rows
    that the direct route and the spectral pages eliminate.  Each pair is
    computed as it is read; with images set its row slot is None and no
    row is built."""
    def read(vecs):
        for v in vecs:
            yield None if images else v.to_row(), diff(v, "full").to_row()

    return {mu: {d: read(vecs) for d, vecs in block.items()}
            for mu, block in weight_blocks(invariant_family(
                ring, part, ell, degrees, dominant=True)).items()}


# ---------------------------------------------------------------------------
# direct graded cohomology (the truncation is the descent lemma of the
# module docstring)


class CohomologyReport:
    def __init__(self):
        self.dims = {}  # degree -> dim of gr_d H


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
            if img:
                edv.add_row(img)
        for _, img in dom.get(t - 2, ()):
            if img:
                eb.add_row(img)
        F.append(ev.rank - edv.rank - eb.rank)
    return F


def direct_cohomology_dims(ring, part, ell, max_degree, store=None):
    """Graded dimensions of H^ell of the invariant complex.

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

    The rows are those of dominant_rows.  store, if given, is a
    spectral.SpectralComputer of the same ring and part through degree
    max_degree at least, and its blocks[ell] and blocks[ell - 1] are read
    as they stand, so a pages call builds each family once.  Without a
    store dominant_rows streams them: each row is computed as it is read
    and then dropped, the domain level yields its image rows only, and
    one weight block's rows are alive at a time.
    """
    D = max_degree
    if store is not None:
        coc, dom = store.blocks[ell], store.blocks.get(ell - 1, {})
    else:
        coc = dominant_rows(ring, part, ell, range(D + 1), False)
        dom = dominant_rows(ring, part, ell - 1, range(D - 1), True) \
            if ell >= 1 else {}
    F = [0] * (D + 1)
    for mu, block in coc.items():
        mult = orbit_size(mu)
        for t, f in enumerate(_block_filtration(block, dom.get(mu, {}), D)):
            F[t] += mult * f

    rep = CohomologyReport()
    for t in range(D + 1):
        rep.dims[t] = F[t] - (F[t - 1] if t else 0)
    return rep


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
