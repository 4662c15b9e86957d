"""Sparse multivariate polynomials with integer coefficients.

Every polynomial of the complex (generators, minors, S_k evaluations, the
so(n) action) has integer coefficients, and ints are the only scalars
accepted: scale raises TypeError for any other.

Two concrete rings matter here.  The Fock ring has variables z(alpha,i)
for 1 <= alpha <= n, 1 <= i <= k and w(i) for 1 <= i <= k, all of degree 1;
its polynomials form P_k.  The abstract invariant ring S_k has variables
rhat(i,j) for i <= j of degree 2 and what(i) of degree 1, and evaluates
into the Fock ring via rhat(i,j) |-> sum_alpha z(alpha,i) z(alpha,j),
what(i) |-> w(i).  A generic weighted ring covers one-off cases such as
Q[x] in the Koszul tests.

Monomials are dense exponent tuples; the term order is graded
lexicographic with z(1,1) < z(2,1) < ... < z(n,k) < w(1) < ... < w(k).

Torus weights.  Both concrete rings carry the diagonal torus of the GL(k)
of the Howe dual pair and its Weyl group S_k, which permutes the k
columns.  A monomial of the Fock ring has weight mu in Z^k, mu_j =
(z-degree in column j) - (degree in w_j); an S_k monomial has the weight
of its image, rhat(i,j) giving e_i + e_j and what(i) giving -e_i.  A
column permutation sigma maps the mu-monomials onto the (sigma mu)-
monomials, so one dominant weight (mu_1 >= ... >= mu_k) stands for the
orbit_size(mu) weights of its orbit.  Ring.weight and Ring.column_swaps
hold the weight and the adjacent transpositions of each ring; a generic
ring has no columns, the weight () and no transpositions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial
from operator import add

__all__ = [
    "Ring",
    "FockRing",
    "SkRing",
    "Polynomial",
    "monomials_of_degree",
    "dominant_monomials",
    "shifted_terms",
    "ideal_piece",
    "is_dominant",
    "orbit_size",
    "r_gen",
    "q_gen",
    "sk_c_sequence",
    "minor",
    "laplacian",
    "sk_evaluate",
    "z_index",
    "son_act_monomial",
    "son_act",
]


class Ring:
    """A polynomial ring described by variable names and their weights:
    one positive int per name, all 1 by default, or ValueError."""

    def __init__(self, names, weights=None):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.weights = (1,) * self.nvars if weights is None else tuple(weights)
        if len(self.weights) != self.nvars or not all(
                isinstance(w, int) and w > 0 for w in self.weights):
            raise ValueError("need one positive int weight per name")

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.names == other.names
            and self.weights == other.weights
        )

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: 1})

    def var(self, idx):
        e = [0] * self.nvars
        e[idx] = 1
        return Polynomial(self, {tuple(e): 1})

    def monomial_degree(self, expo):
        return sum(e * w for e, w in zip(expo, self.weights))

    # the adjacent column transpositions (j j+1) of S_k, each an
    # involution of the variable indices, so that it sends the exponent
    # tuple e to tuple(e[v] for v in swap); a ring without columns has none
    column_swaps = ()

    def weight(self, expo):
        """The torus weight of a monomial: () on a ring without columns."""
        return ()


class FockRing(Ring):
    """P_k: variables z(alpha,i) and w(i), all of degree 1.

    Index layout (also the term order): z(1,1), z(2,1), ..., z(n,1),
    z(1,2), ..., z(n,k), w(1), ..., w(k).
    """

    def __init__(self, n, k):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self.n = n
        self.k = k
        names = ["z(%d,%d)" % (a, i) for i in range(1, k + 1) for a in range(1, n + 1)]
        names += ["w(%d)" % i for i in range(1, k + 1)]
        super().__init__(names)
        self.column_swaps = tuple(
            tuple(self.z(a, _swap(j, i)) for i in range(1, k + 1)
                  for a in range(1, n + 1))
            + tuple(self.w(_swap(j, i)) for i in range(1, k + 1))
            for j in range(1, k))
        # rhat-exponent -> terms of its sk_evaluate image, and (part, J) ->
        # the base of the Phi_J / *Phi_J family (fock._family_base), filled
        # on demand; plain dicts, so the ring stays out of reference cycles
        self._rhat_images = {}
        self._family_bases = {}

    def z(self, alpha, i):
        if not (1 <= alpha <= self.n and 1 <= i <= self.k):
            raise ValueError("z(%d,%d) out of range" % (alpha, i))
        return z_index(self.n, alpha, i)

    def w(self, i):
        if not (1 <= i <= self.k):
            raise ValueError("w(%d) out of range" % i)
        return self.n * self.k + (i - 1)

    def weight(self, expo):
        """(z-degree in column j) - (degree in w_j), for j = 1..k."""
        n, nz = self.n, self.n * self.k
        return tuple(sum(expo[j * n:(j + 1) * n]) - expo[nz + j]
                     for j in range(self.k))

    def z_var(self, alpha, i):
        return self.var(self.z(alpha, i))

    def w_var(self, i):
        return self.var(self.w(i))


class SkRing(Ring):
    """S_k: abstract variables rhat(i,j) (i <= j, degree 2) and what(i)
    (degree 1)."""

    def __init__(self, k):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        # (i, j) of each rhat variable, in variable order
        self.pairs = pairs = [(i, j) for i in range(1, k + 1)
                              for j in range(i, k + 1)]
        self._pair_index = {p: t for t, p in enumerate(pairs)}
        names = ["rhat(%d,%d)" % p for p in pairs]
        names += ["what(%d)" % i for i in range(1, k + 1)]
        weights = [2] * len(pairs) + [1] * k
        super().__init__(names, weights)
        self.column_swaps = tuple(
            tuple(self.rhat(_swap(j, i), _swap(j, l)) for i, l in pairs)
            + tuple(self.what(_swap(j, i)) for i in range(1, k + 1))
            for j in range(1, k))

    def rhat(self, i, j):
        if i > j:
            i, j = j, i
        if not (1 <= i <= self.k and j <= self.k):
            raise ValueError("rhat(%d,%d) out of range" % (i, j))
        return self._pair_index[(i, j)]

    def what(self, i):
        if not (1 <= i <= self.k):
            raise ValueError("what(%d) out of range" % i)
        return len(self._pair_index) + (i - 1)

    def weight(self, expo):
        """The weight of the image in the Fock ring: rhat(i,j) gives
        e_i + e_j and what(i) gives -e_i."""
        mu = [-x for x in expo[len(self.pairs):]]
        for (i, j), x in zip(self.pairs, expo):
            mu[i - 1] += x
            mu[j - 1] += x
        return tuple(mu)

    def rhat_var(self, i, j):
        return self.var(self.rhat(i, j))

    def what_var(self, i):
        return self.var(self.what(i))


def _swap(j, i):
    """The image of the column i under the transposition (j j+1)."""
    return j + 1 if i == j else j if i == j + 1 else i


class Polynomial:
    """terms: exponent tuple -> nonzero int coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @staticmethod
    def _merge(ring, items):
        terms = {}
        for expo, coef in items:
            c = terms.get(expo, 0) + coef
            if c:
                terms[expo] = c
            elif expo in terms:
                del terms[expo]
        return Polynomial(ring, terms)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check(other)
        return Polynomial._merge(
            self.ring, itertools.chain(self.terms.items(), other.terms.items())
        )

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """c times self, for an int c; any other scalar is a TypeError."""
        if not isinstance(c, int):
            raise TypeError("scalar must be an int, not %s" % type(c).__name__)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = terms.get(e, 0) + c1 * c2
                if c:
                    terms[e] = c
                elif e in terms:
                    del terms[e]
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def partial(self, vidx):
        """Formal partial derivative with respect to variable vidx.  e |->
        e - unit(vidx) is injective, so there is nothing to merge."""
        terms = {}
        for e, c in self.terms.items():
            if e[vidx]:
                ne = list(e)
                ne[vidx] -= 1
                terms[tuple(ne)] = c * e[vidx]
        return Polynomial(self.ring, terms)

    def degree(self):
        """Weighted total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.monomial_degree(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mon = "*".join(
                self.ring.names[i] + ("^%d" % x if x > 1 else "")
                for i, x in enumerate(e) if x
            )
            parts.append(("%s" % c) + ("*" + mon if mon else ""))
        return " + ".join(parts)


def monomials_of_degree(ring, d, varset=None):
    """All exponent tuples of weighted degree d supported on varset
    (default: every variable), in a fixed deterministic (lex) order."""
    if varset is None:
        varset = range(ring.nvars)
    out = []
    _extend_monomials(ring.weights, sorted(varset), 0, d, [0] * ring.nvars,
                      out)
    return out


def dominant_monomials(ring, d, varset=None, pack=None):
    """{mu: [monomial]} of the degree-d monomials supported on varset
    (default: every variable) of dominant weight mu: the blocks of
    monomials_of_degree(ring, d, varset) whose weight is dominant, each
    in its order there, the weights in the order of their first monomial
    there.  With pack, a map from exponent tuples to ints that preserves
    their order and is additive, each monomial m comes as pack(m).

    The variables fall into classes of equal degree and weight (on the
    Fock ring the n z's of one column, and each w_j).  Ring.weight is
    linear in the exponents, so a monomial has the weight of its vector
    of class degrees: the vectors of non-dominant weight are dropped
    before any monomial is made.  The classes are in the order of their
    first variables and the vectors in descending lex order; the largest
    monomial of a vector puts each class degree on the class's first
    variable, so the vectors, and with them the weights, come in the
    order of their largest monomials.  A vector's monomials are the sums
    of one monomial of each class part, the monomials of the class's
    degree on its variables; each part is made, and packed, once per
    call, and a packed monomial is the int sum of its packed parts.
    """
    nvars = ring.nvars
    classes = {}  # (degree, weight) -> [variable]
    for v in sorted(range(nvars) if varset is None else varset):
        unit = (0,) * v + (1,) + (0,) * (nvars - v - 1)
        classes.setdefault((ring.weights[v], ring.weight(unit)), []).append(v)
    keys = list(classes)
    vectors = []  # class degrees, as the exponents of one variable a class
    _extend_monomials([deg for deg, _ in keys], range(len(keys)), 0, d,
                      [0] * len(keys), vectors)
    made = {}  # (class, class degree) -> its part
    out = {}
    for vec in vectors:
        rep = [0] * nvars  # a monomial with these class degrees
        for key, c in zip(keys, vec):
            rep[classes[key][0]] = c
        mu = ring.weight(tuple(rep))
        if not is_dominant(mu):
            continue
        parts = []
        for key, c in zip(keys, vec):
            part = made.get((key, c))
            if part is None:
                part = monomials_of_degree(ring, c * key[0], classes[key])
                if pack is not None:
                    part = list(map(pack, part))
                made[key, c] = part
            parts.append(part)
        combos = itertools.product(*parts)
        out.setdefault(mu, []).extend(
            map(sum, combos) if pack is not None
            else (tuple(map(sum, zip(*combo))) for combo in combos))
    for mons in out.values():
        mons.sort(reverse=True)
    return out


def shifted_terms(f, m):
    """The terms of the product of the monomial with exponent tuple m and
    f: each exponent tuple of f shifted by m, with its coefficient.
    Distinct exponents stay distinct, so nothing is merged."""
    return {tuple(map(add, e, m)): c for e, c in f.terms.items()}


def ideal_piece(ring, gens, t):
    """The products m * f spanning the degree-t piece of the ideal (gens),
    m running over the monomials of degree t - deg f, generator by
    generator in order."""
    return [Polynomial(ring, shifted_terms(f, e)) for f in gens
            for e in monomials_of_degree(ring, t - f.degree())]


def is_dominant(mu):
    """mu_1 >= mu_2 >= ... >= mu_k: one weight in each S_k-orbit."""
    return all(a >= b for a, b in zip(mu, mu[1:]))


def orbit_size(mu):
    """|S_k . mu|: the number of weights in the orbit of mu."""
    out = factorial(len(mu))
    for m in Counter(mu).values():
        out //= factorial(m)
    return out


def _extend_monomials(weights, vs, pos, remaining, expo, out):
    """Append to out every completion of expo by weighted degree remaining
    on the variables vs[pos:], largest exponent of vs[pos] first.

    A module-level function, not a closure: a closure that calls itself
    sits in a reference cycle that keeps out alive until the cyclic
    collector runs.
    """
    if remaining == 0:
        out.append(tuple(expo))
        return
    if pos == len(vs):
        return
    v = vs[pos]
    w = weights[v]
    for e in range(remaining // w, -1, -1):
        expo[v] = e
        _extend_monomials(weights, vs, pos + 1, remaining - e * w, expo, out)
    expo[v] = 0


def r_gen(ring, i, j):
    """r(i,j) = sum_alpha z(alpha,i) z(alpha,j), degree 2."""
    out = ring.zero()
    for a in range(1, ring.n + 1):
        out = out + ring.z_var(a, i) * ring.z_var(a, j)
    return out


def q_gen(ring, alpha):
    """q(alpha) = sum_i z(alpha,i) w(i), degree 2."""
    out = ring.zero()
    for i in range(1, ring.k + 1):
        out = out + ring.z_var(alpha, i) * ring.w_var(i)
    return out


def sk_c_sequence(k):
    """(S_k, [c_1, ..., c_k]) with c_j = sum_i rhat(i,j) what(i), the
    abstract cubics that sk_evaluate sends to the Fock cubics
    c(j) = sum_i r(i,j) w(i)."""
    S = SkRing(k)
    seq = []
    for j in range(1, k + 1):
        f = S.zero()
        for i in range(1, k + 1):
            f = f + S.rhat_var(i, j) * S.what_var(i)
        seq.append(f)
    return S, seq


def minor(ring, I, J):
    """Determinant of the submatrix of (z(alpha,i)) with rows I, columns J.

    I is strictly increasing in 1..n, J strictly increasing in 1..k,
    |I| = |J|.  The empty minor is 1.
    """
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise ValueError("|I| != |J|")
    if any(I[t] >= I[t + 1] for t in range(len(I) - 1)) or any(
        J[t] >= J[t + 1] for t in range(len(J) - 1)
    ):
        raise ValueError("index tuples must be strictly increasing")
    if I and not (1 <= I[0] and I[-1] <= ring.n):
        raise ValueError("row indices out of range")
    if J and not (1 <= J[0] and J[-1] <= ring.k):
        raise ValueError("column indices out of range")
    out = ring.zero()
    for perm in itertools.permutations(range(len(I))):
        sign = _perm_sign(perm)
        term = ring.one()
        for t, pt in enumerate(perm):
            term = term * ring.z_var(I[t], J[pt])
        out = out + term.scale(sign)
    return out


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def laplacian(p, i, j):
    """Delta_{ij} p = sum_alpha d^2 p / dz(alpha,i) dz(alpha,j)."""
    ring = p.ring
    out = ring.zero()
    for a in range(1, ring.n + 1):
        out = out + p.partial(ring.z(a, i)).partial(ring.z(a, j))
    return out


def sk_evaluate(p, ring):
    """Evaluate an S_k polynomial in a FockRing with matching k:
    rhat(i,j) |-> r(i,j), what(i) |-> w(i).

    The image of each rhat-monomial is built once per ring, by one product
    of a smaller one's image with an r(i,j), and kept on the ring.  The
    rhat-images carry no w, so the what-part of a monomial is applied as a
    shift of the w-exponents.
    """
    sk = p.ring
    if not isinstance(sk, SkRing) or sk.k != ring.k:
        raise ValueError("k mismatch between S_k polynomial and target ring")
    npairs = len(sk.pairs)
    nz = ring.n * ring.k
    items = []
    for expo, c in p.terms.items():
        wpart = expo[npairs:]
        for e, v in _rhat_image(ring, sk, expo[:npairs]).items():
            items.append((e[:nz] + wpart, c * v))
    return Polynomial._merge(ring, items)


def _rhat_image(ring, sk, rexpo):
    """Terms of the image of the rhat-monomial with exponent rexpo,
    memoized on the ring."""
    memo = ring._rhat_images
    if rexpo not in memo:
        t = next((t for t, x in enumerate(rexpo) if x), None)
        if t is None:
            memo[rexpo] = {(0,) * ring.nvars: 1}
        else:
            smaller = list(rexpo)
            smaller[t] -= 1
            prev = Polynomial(ring, _rhat_image(ring, sk, tuple(smaller)))
            memo[rexpo] = (prev * r_gen(ring, *sk.pairs[t])).terms
    return memo[rexpo]


def z_index(n, alpha, i):
    """The index of z(alpha, i) in the exponent tuples of FockRing(n, k),
    unchecked: the columns are contiguous and the n k z's come first."""
    return (i - 1) * n + (alpha - 1)


def son_act_monomial(n, k, a, b, e):
    """{exponent tuple: int}: X_ab of son_act on the monomial with exponent
    tuple e, whose first n k entries are the z's (z_index).  Per column i
    the shift z(a,i) -> z(b,i), then z(b,i) -> z(a,i); the two shifts of a
    column differ because a != b, and shifts of different columns move
    different entries, so the terms are distinct and nothing is merged."""
    out = {}
    for i in range(1, k + 1):
        ia, ib = z_index(n, a, i), z_index(n, b, i)
        for src, dst, sign in ((ia, ib, 1), (ib, ia, -1)):
            x = e[src]
            if x:
                ne = list(e)
                ne[src] -= 1
                ne[dst] += 1
                out[tuple(ne)] = sign * x
    return out


def son_act(a, b, p):
    """The so(n) generator X_ab acting as the derivation
    sum_i ( z(b,i) d/dz(a,i) - z(a,i) d/dz(b,i) ); w variables fixed.
    The merge of son_act_monomial over the terms of p."""
    if not a < b:
        raise ValueError("need a < b")
    ring = p.ring
    return Polynomial._merge(ring, (
        (ne, c * x) for e, c in p.terms.items()
        for ne, x in son_act_monomial(ring.n, ring.k, a, b, e).items()))
