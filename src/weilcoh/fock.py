"""The relative cochain complex C = Lambda(p*) (x) P_k and its differential.

A cochain of degree l is a map from l-element index sets (bitmasks over
{1..n}, see exterior) to polynomials in the Fock ring.  The differential is

    d = sum_j sum_alpha omega_alpha ^ . (x) (d^2/dz_{alpha j} dw_j
                                             - z_{alpha j} w_j),

split as d = d2 + dm2 with d2 the multiplication term (polynomial degree
+2) and dm2 the second-derivative term (-2).  The graded differential d'
(the one induced on the associated graded of the polynomial-degree
filtration, the negative of the degree-raising piece) is

    d' = sum_alpha omega_alpha ^ . (x) q_alpha,   q_alpha = sum_i z_{alpha i} w_i.

Invariant dimensions are joint kernels of the so(n) generators X_{i,i+1}.
Since the w variables are untouched by so(n) the computation factors
through the z-part, and the z-part is further cut into small blocks
preserved by the "torus" generators X_{12}, X_{34}, ...: such a rotation
preserves, for every column, the total degree in its two rows, the exact
exponents of all other rows, and the number of its two form indices
present.  The invariants are then the kernel of the remaining consecutive
generators restricted to the torus kernel.  (A vector killed by a
generating set of a Lie algebra is killed by the whole algebra, so this
joint kernel is exactly the space of SO(n)-invariants.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .exterior import bits_of, contract_bits, star_bits, tuple_of, wedge_bits
from .linalg import (
    Eliminator,
    SparseRationalMatrix,
    kernel_basis,
    span_intersect_window,
)
from .polyring import (
    FockRing,
    Polynomial,
    SkRing,
    minor,
    monomials_of_degree,
    sk_evaluate,
    son_act,
)

__all__ = [
    "Cochain",
    "diff",
    "outer_product",
    "named_cochain",
    "phi1",
    "phik",
    "Phi_J",
    "star_Phi_J",
    "involution",
    "split_pm",
    "son_act_cochain",
    "invariant_dim",
    "invariant_zform_dim",
    "pm_basis_vectors",
    "invariant_family",
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

    @staticmethod
    def from_row(ring, ell, row):
        parts = {}
        for (bits, e), c in row.items():
            parts.setdefault(bits, {})[e] = c
        return Cochain(ring, ell,
                       {b: Polynomial(ring, t) for b, t in parts.items()})

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
    second-derivative term; graded = d' = + sum omega_alpha (x) q_alpha.
    """
    if mode not in ("full", "d2", "dm2", "graded"):
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
                if mode == "graded":
                    bump(nb, ring.z_var(alpha, j) * ring.w_var(j) * f, s)

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


def phik(ring):
    """The k-fold outer exterior product of phi_1 (equals Phi_{(1..k)})."""
    c = phi1(FockRing(ring.n, 1))
    for _ in range(ring.k - 1):
        c = outer_product(c, phi1(FockRing(ring.n, 1)))
    return c


def named_cochain(which, ring, J=None, slot=1):
    if which == "phi1":
        return phi1(ring, slot)
    if which == "phik":
        return Phi_J(ring, tuple(range(1, ring.k + 1)))
    if which == "PhiJ":
        return Phi_J(ring, J)
    if which == "starPhiJ":
        return star_Phi_J(ring, J)
    raise ValueError("unknown cochain %r" % which)


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


def split_pm(c):
    """c = plus + minus with iota (x) iota eigenvalues +1 and -1."""
    ic = involution(c, "iota")
    half = Fraction(1, 2)
    return (c + ic).scale(half), (c - ic).scale(half)


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


_ZINV_ROWS = {}


def _zform_invariant_rows(n, k, ell, dz):
    """Basis rows {(bits, z-expo): int} of the SO(n)-invariants of
    Lambda^ell (x) Pol_z(dz)."""
    key = (n, k, ell, dz)
    if key in _ZINV_ROWS:
        return _ZINV_ROWS[key]
    if ell < 0 or ell > n or dz < 0:
        _ZINV_ROWS[key] = []
        return []
    if 2 * ell > n:
        # Hodge duality: * is SO(n)-equivariant, so mirror the small side
        mirrored = []
        for row in _zform_invariant_rows(n, k, n - ell, dz):
            nr = {}
            for (bits, ze), v in row.items():
                s, comp = star_bits(bits, n)
                nr[(comp, ze)] = s * v
            mirrored.append(nr)
        _ZINV_ROWS[key] = mirrored
        return mirrored

    nz = n * k
    zmons = [e[:nz] for e in monomials_of_degree(FockRing(n, k), dz,
                                                  range(nz))]
    basis = [
        (bits_of(I), ze)
        for I in itertools.combinations(range(1, n + 1), ell)
        for ze in zmons
    ]
    if n == 1:
        rows = [{be: 1} for be in basis]
        _ZINV_ROWS[key] = rows
        return rows

    torus = [(2 * j + 1, 2 * j + 2) for j in range(n // 2)]
    remaining = [(i, i + 1) for i in range(2, n) if i % 2 == 0]

    blocks = {}
    for be in basis:
        blocks.setdefault(_torus_block_key(n, k, *be), []).append(be)

    W = []  # list of {(bits, ze): int}
    for members in blocks.values():
        rows_by_target = {}
        for t, (bits, ze) in enumerate(members):
            for g, (a, b) in enumerate(torus):
                for tgt, v in _gen_act_basis(n, k, a, b, bits, ze).items():
                    rows_by_target.setdefault((g, tgt), {})[t] = v
        if not rows_by_target:
            for be in members:
                W.append({be: 1})
            continue
        m = SparseRationalMatrix(len(rows_by_target), len(members))
        for ri, row in enumerate(rows_by_target.values()):
            for t, v in row.items():
                m.set(ri, t, v)
        for vec in kernel_basis(m):
            W.append({members[t]: v for t, v in vec.items()})

    if not remaining or not W:
        _ZINV_ROWS[key] = W
        return W

    rows_by_target = {}
    for t, wvec in enumerate(W):
        for g, (a, b) in enumerate(remaining):
            img = {}
            for (bits, ze), coef in wvec.items():
                for tgt, v in _gen_act_basis(n, k, a, b, bits, ze).items():
                    nv = img.get(tgt, 0) + coef * v
                    if nv:
                        img[tgt] = nv
                    elif tgt in img:
                        del img[tgt]
            for tgt, v in img.items():
                rows_by_target.setdefault((g, tgt), {})[t] = v
    m = SparseRationalMatrix(len(rows_by_target), len(W))
    for ri, row in enumerate(rows_by_target.values()):
        for t, v in row.items():
            m.set(ri, t, v)
    out = []
    for vec in kernel_basis(m):
        combined = {}
        for t, coef in vec.items():
            for be, v in W[t].items():
                nv = combined.get(be, 0) + coef * v
                if nv:
                    combined[be] = nv
                elif be in combined:
                    del combined[be]
        out.append(combined)
    _ZINV_ROWS[key] = out
    return out


def invariant_zform_dim(n, k, ell, dz):
    return len(_zform_invariant_rows(n, k, ell, dz))


def invariant_dim(ring, ell, d):
    """dim of the SO(n)-invariants of Lambda^ell (x) P_k(d).

    The w variables are inert, so this is a sum over the z-degree of the
    z-form invariant dimension times the count of w-monomials.
    """
    if ell < 0 or ell > ring.n or d < 0:
        return 0
    n, k = ring.n, ring.k
    total = 0
    for dz in range(d + 1):
        zi = invariant_zform_dim(n, k, ell, dz)
        if zi:
            total += zi * comb(d - dz + k - 1, k - 1)
    return total


_ZINV_PART = {}


def _zform_invariant_rows_part(n, k, ell, dz, part):
    """The iota (x) iota eigen-split of the z-form invariants.  The
    involution is diagonal on the monomial basis, so each eigenspace is a
    coordinate subspace and the split is a windowed span."""
    if part == "full":
        return _zform_invariant_rows(n, k, ell, dz)
    key = (n, k, ell, dz, part)
    if key in _ZINV_PART:
        return _ZINV_PART[key]
    want = 1 if part == "plus" else -1

    def sign_of(bkey):
        bits, ze = bkey
        s = -1 if bits & 1 else 1
        z1 = sum(ze[_z_index(n, 1, i)] for i in range(1, k + 1))
        return -s if z1 % 2 else s

    rows = _zform_invariant_rows(n, k, ell, dz)
    out = span_intersect_window(rows, lambda c: sign_of(c) == want)
    _ZINV_PART[key] = out
    return out


def _joint_kernel_cochains(ring, part, ell, d):
    """Explicit invariant cochains of bidegree (ell, d) via the joint
    kernel route, one per basis vector."""
    n, k = ring.n, ring.k
    out = []
    for dz in range(d + 1):
        zrows = _zform_invariant_rows_part(n, k, ell, dz, part)
        if not zrows:
            continue
        for wexpo in monomials_of_degree(ring, d - dz,
                                         range(n * k, ring.nvars)):
            wpart = wexpo[n * k:]
            for zr in zrows:
                row = {}
                for (bits, ze), v in zr.items():
                    row[(bits, ze + wpart)] = v
                out.append(Cochain.from_row(ring, ell, row))
    return out


def pm_basis_vectors(ring, part, ell, d):
    """The spanning family of C_+ (m . Phi_J) or C_- (m . *Phi_J) at
    bidegree (ell, d), with m running over S_k-monomials of the
    complementary degree."""
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
    sk = SkRing(k)
    out = []
    for expo in monomials_of_degree(sk, base):
        m = sk_evaluate(Polynomial(sk, {expo: 1}), ring)
        for J in itertools.combinations(range(1, k + 1), jsize):
            c = Phi_J(ring, J) if part == "plus" else star_Phi_J(ring, J)
            if c:
                out.append(c.mul_poly(m))
    return out


def invariant_family(ring, part, ell, degrees):
    """Per-degree spanning families of the invariant cochains.

    For k < n the explicit Phi / *Phi families span C_+ / C_- and their
    union spans the invariants; otherwise the joint-kernel route is used.
    Returns {degree: list of Cochain}.
    """
    out = {}
    for d in degrees:
        if ell < 0 or ell > ring.n or d < 0:
            out[d] = []
        elif ring.k < ring.n:
            if part == "full":
                out[d] = pm_basis_vectors(ring, "plus", ell, d) + \
                    pm_basis_vectors(ring, "minus", ell, d)
            else:
                out[d] = pm_basis_vectors(ring, part, ell, d)
        else:
            out[d] = _joint_kernel_cochains(ring, part, ell, d)
    return out


# ---------------------------------------------------------------------------
# direct graded cohomology with a truncation buffer


@dataclass
class CohomologyReport:
    part: str
    ell: int
    max_degree: int
    buffer: int
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


def direct_cohomology_dims(ring, part, ell, max_degree, buffer=4):
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
        for v in coc[d]:
            s = skey(v)
            if s is not None:
                coc_s.setdefault(s, {}).setdefault(d, []).append(v)
    dom_s = {}
    for d in range(maxdom + 1):
        for v in dom[d]:
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

    rep = CohomologyReport(part, ell, D, buffer)
    for t in range(D + 1):
        grs = [F[b][t] - (F[b][t - 1] if t else 0) for b in snapshots]
        rep.dims[t] = grs[0]
        rep.filtration[t] = F[buffer][t]
        rep.stabilized[t] = grs[0] == grs[1] == grs[2]
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
        ev, ei = Eliminator(), Eliminator()
        for p in polys:
            ev.add_row(dict(p.terms))
            row = {}
            for gi, (a, b) in enumerate(pairs):
                for e, c in son_act(a, b, p).terms.items():
                    row[(gi, e)] = c
            ei.add_row(row)
        return ev.rank - ei.rank

    out = {}
    for t in range(window + 1):
        ideal = []
        for f in gens:
            df = f.degree()
            if df > t:
                continue
            for e in monomials_of_degree(ring, t - df):
                ideal.append(Polynomial(ring, {e: 1}) * f)
        out[t] = invariant_dim(ring, 0, t) - inv_span_dim(ideal)
    return out
