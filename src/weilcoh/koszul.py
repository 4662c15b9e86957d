"""Regular-sequence certificates, ideal quotients, Hilbert series.

For a graded ring R and an ordered sequence of homogeneous elements
f_1, ..., f_m, everything here is windowed: quotient dimensions and
regularity are computed degree by degree up to a stated bound by exact
linear algebra, and the certificates say so rather than claiming anything
beyond the window.  The sequence entries may have mixed degrees.

Both results rest on one table, the Hilbert functions of the prefix
quotients: H_a(t) = dim (R / I_a)_t with I_a = (f_1, ..., f_a).
ideal_quotient_dims builds it: for each degree t one Eliminator takes the
ideal rows of f_1, ..., f_m in sequence order, and its rank after f_a is
dim (I_a)_t.  The quotient dims are H_m, the table's last entry.
regular_sequence_check reads the certificate off the same table, with no
elimination of its own: with A = R / I_{a-1} and d = deg f_a, the exact
sequence

    0 -> K_t -> A_t --f_a--> A_{t+d} -> (A / f_a A)_{t+d} -> 0

gives dim K_t = H_{a-1}(t) - H_{a-1}(t+d) + H_a(t+d), so f_a is injective
on A_t exactly when that integer is 0.

Symmetry lemma.  Let every f_a be a torus weight vector (all its
monomials share one Ring.weight) fixed by the column permutations S_k
of its ring, as the q_alpha = sum_i z_{alpha i} w_i of the Fock ring
are (weight 0; S_k lies in the GL(k) of the Howe dual pair).  A row
m f_a has weight wt(m) + wt(f_a), so (I_a)_t is the direct sum of its
intersections with the weight spaces R_mu, and a permutation sigma, which
maps each m f_b to sigma(m) f_b, maps the mu-block of every prefix ideal
onto its (sigma mu)-block.  Hence

    H_a(t) = dim R_t - sum_{mu dominant} orbit_size(mu) rank((I_a)_t ∩ R_mu),

and only the rows of dominant weight are eliminated.  The test is made on
the sequence: an entry with two weights or moved by one of the ring's
adjacent column transpositions (Ring.column_swaps) makes the group
trivial, and then every row is kept and counts once.  The c_j and what_i
of S_k are such entries, since sigma permutes them, and so is every
entry of a ring without columns.  Both cases are the same loop, with
one Eliminator per degree: blocks have disjoint columns, so their rows
never interact, and a row that raises the rank adds the orbit size of
its block.

Rows.  A symmetric f_a has a weight fixed by S_k, so one with equal
entries, and m f_a is dominant exactly when m is, with the same orbit
size: the monomials m are polyring.dominant_monomials, which never makes
a non-dominant one.  Ring.weight is linear in the exponents and constant
on each class of variables of equal degree and weight (the n z's of a
column, each w_j), so dominant_monomials reads the weight off the
vector of class degrees and expands only the dominant vectors.  The
column labels of the rows are packed ints: with B the bit length of the
window, pack(e) is e in base 2^B, variable 0 the most significant digit.
Every exponent of a row of degree t <= window is at most t < 2^B, so
pack is injective, orders the labels as the tuples (lex), and is
additive with no carry, pack(e) + pack(m) = pack(e + m).  The row m f
is then f's packed terms each plus pack(m), and a packed monomial is
the sum of its packed class parts, so no exponent tuple of a row is
made.  As pack keeps the order and adds with no carry, the least label
of m f is pack(m) + lead(f), lead(f) the least packed label of f, and
the shift of a primitive f is primitive (each f is divided by its
content once, and the content of q, c and what is 1).  So when that
label is no pivot, the first pass of Eliminator.reduce would return the
row unchanged, and Eliminator.add_shifted stores it with no reduce;
every pivot, every stored row, its place in the pivots' insertion
order, the stored entries and the point of any cap abort are those of
add_row.  Under this order-preserving relabelling the Eliminator, whose
pivot is the least label of a row, gets the same rows in the same order
but for the ones the signature criterion skips, each a row that reduced
to zero and stored nothing: it does the same elimination step for step,
with the same ranks and stored entries.  A cap abort can only come
later, since a skipped row makes no transient rows.

Signature criterion (J.-C. Faugere, F5, ISSAC 2002).  Each degree s
keeps {pivot label: a}, a the prefix at which the pivot was made, while
a later degree s + deg f reads it.  The row
m f_a of degree t, s = t - deg f_a, is skipped when pack(m) is a degree-s
pivot made at a prefix below a.  That pivot row is some g in (I_{a-1})_s
with g = c m + (terms of larger labels), so

    c m f_a = g f_a - (g - c m) f_a.

g f_a is a sum of rows m' f_b, b < a, of degree t in the block
wt(m) + wt(f_a) (dominant when wt(m) is, as wt(f_a) has equal
entries): all of them came before m f_a, or were skipped by this same
argument.  (g - c m) f_a is a sum of rows m' f_a with m' > m in m's
block, and the blocks list their monomials in descending label order,
so those came before it too.  Hence m f_a lies in the span of the rows
before it and reduces to zero: the skip changes no pivot, stored entry
or rank, whether or not the sequence is regular.  On a regular sequence
no row that is added reduces to zero: in each block the rows m f_a kept
at degree t are as many as the degree-s monomials that are no pivot of
(I_{a-1})_s, that is dim (R / I_{a-1})_s in the block below, and as f_a
is injective on R / I_{a-1} that is the rank they add.  The q's with
n > k are not regular and keep some reductions to zero.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from math import gcd

from .linalg import Eliminator
from .polyring import FockRing, SkRing, dominant_monomials, \
    monomials_of_degree, orbit_size, q_gen, sk_c_sequence

__all__ = [
    "KoszulSpec",
    "named_sequence",
    "regular_sequence_check",
    "RegularityCertificate",
    "ci_hilbert",
    "ideal_quotient_dims",
]


class KoszulSpec:
    """A graded ring plus an ordered sequence of homogeneous elements."""

    def __init__(self, ring, sequence):
        seq = tuple(sequence)
        for f in seq:
            if not f:
                raise ValueError("sequence entries must be nonzero")
            if f.ring != ring:
                raise ValueError("sequence entry from the wrong ring")
            if not f.is_homogeneous():
                raise ValueError("sequence entries must be homogeneous")
        self.ring = ring
        self.sequence = seq

    @property
    def degrees(self):
        return tuple(f.degree() for f in self.sequence)


def named_sequence(model, n, k):
    """The named sequences: q, the q_alpha = sum_i z_{alpha i} w_i
    (alpha <= n) in P_k; c, the c_1..c_k in S_k; w, the what_1..what_k
    in S_k (n is read by q only)."""
    if model == "q":
        R = FockRing(n, k)
        return KoszulSpec(R, [q_gen(R, a) for a in range(1, n + 1)])
    if model == "c":
        return KoszulSpec(*sk_c_sequence(k))
    if model == "w":
        S = SkRing(k)
        return KoszulSpec(S, [S.what_var(i) for i in range(1, k + 1)])
    raise ValueError("unknown koszul model %r" % model)


class RegularityCertificate:
    """Per-element degreewise injectivity report, valid through the window
    of the prefix table it was read off."""

    def __init__(self):
        self.failure_degree = []  # per element, or None

    @property
    def regular(self):
        return all(fail is None for fail in self.failure_degree)


def regular_sequence_check(spec, hilb):
    """Certify, degree by degree through the window, that each f_alpha is
    injective by multiplication on R/(f_1, ..., f_{alpha-1}).

    hilb is the prefix table that ideal_quotient_dims returns for spec;
    the window is that of the table, len(hilb[0]) - 1.  A failure is
    reported with the degree of the offending target (deg g + deg
    f_alpha), not raised.
    """
    window = len(hilb[0]) - 1
    cert = RegularityCertificate()
    for a, f in enumerate(spec.sequence, start=1):
        df = f.degree()
        prev, cur = hilb[a - 1], hilb[a]
        # dim ker(f_a : A_t -> A_{t+df}), A = R / I_{a-1}
        fail = next((t + df for t in range(window - df + 1)
                     if prev[t] - prev[t + df] + cur[t + df]), None)
        cert.failure_degree.append(fail)
    return cert


def ci_hilbert(var_degrees, seq_degrees, window):
    """Truncated coefficients of prod(1 - t^df) / prod(1 - t^dv).

    The oracle for a complete-intersection quotient; a negative
    coefficient means the input could not have been a regular sequence
    and is reported as an error.
    """
    coeffs = [int(t == 0) for t in range(window + 1)]
    for df in seq_degrees:
        nxt = list(coeffs)
        for t in range(df, window + 1):
            nxt[t] -= coeffs[t - df]
        coeffs = nxt
    for dv in var_degrees:
        # divide by (1 - t^dv): running sum with stride dv
        for t in range(dv, window + 1):
            coeffs[t] += coeffs[t - dv]
    if any(c < 0 for c in coeffs):
        raise ValueError("negative Hilbert coefficient: not a regular "
                         "configuration")
    return coeffs


def ideal_quotient_dims(spec, window):
    """The prefix table [H_0, ..., H_m] of the module docstring: H_a is
    {t: dim (R / (f_1, ..., f_a))_t} for t <= window, so the last entry
    holds the quotient dims of the whole sequence.  One elimination per
    degree, of the dominant rows only when the symmetry lemma applies;
    each row m f is f's packed terms shifted by the packed m, added by
    Eliminator.add_shifted, and a row that the signature criterion
    proves dependent is not added."""
    ring = spec.ring
    blocks = dominant_monomials if all(map(_symmetric, spec.sequence)) \
        else _one_block
    bits = _label_bits(window)
    pack = partial(_pack, bits=bits)
    packed = []  # (f packed and divided by its content, its least label)
    for f in spec.sequence:
        pf = {pack(e): c for e, c in f.terms.items()}
        g = gcd(*pf.values())
        packed.append(({y: c // g for y, c in pf.items()}, min(pf)))
    # H_0(t) = dim R_t, the coefficients of 1 / prod(1 - t^w_v)
    hilb = [dict(enumerate(ci_hilbert(ring.weights, (), window)))]
    hilb += [{} for _ in spec.sequence]
    signatures = {}  # degree -> {pivot label: prefix it was made at}
    low, top = min(spec.degrees, default=0), max(spec.degrees, default=0)
    for t, dim_rt in hilb[0].items():
        e = Eliminator()
        rank = 0
        made = {}
        by_degree = {}  # degree -> [(orbit size, [packed monomial])]
        for a, (f, (pf, lead)) in enumerate(zip(spec.sequence, packed),
                                            start=1):
            s = t - f.degree()
            if s not in by_degree:
                by_degree[s] = [(orbit_size(mu), labels) for mu, labels
                                in blocks(ring, s, pack=pack).items()]
            earlier = signatures.get(s, {})
            for mult, labels in by_degree[s]:
                for x in labels:
                    if earlier.get(x, a) < a:
                        continue  # m f_a reduces to zero: see the docstring
                    if e.add_shifted(pf, lead, x):
                        rank += mult
            # the pivots are stored in the order they were made
            made.update(dict.fromkeys(islice(e.pivots, len(made), None), a))
            hilb[a][t] = dim_rt - rank
        # keep the degrees that a later degree reads, t - deg f for some f
        signatures.pop(t - top, None)
        if t + low <= window:
            signatures[t] = made
    return hilb


def _symmetric(f):
    """Is f a weight vector fixed by its ring's column transpositions?"""
    ring = f.ring
    return len({ring.weight(e) for e in f.terms}) == 1 and all(
        {tuple(e[v] for v in swap): c for e, c in f.terms.items()}
        == f.terms for swap in ring.column_swaps)


def _one_block(ring, d, pack):
    """The packed degree-d monomials as one block of the trivial grading,
    counted once."""
    return {(): list(map(pack, monomials_of_degree(ring, d)))}


def _label_bits(window):
    """The digit width B of the packed labels: every exponent of a row of
    degree <= window is < 2^B."""
    return max(window, 1).bit_length()


def _pack(expo, bits):
    """The exponent tuple as one int, in base 2^bits with variable 0 the
    most significant digit; each exponent must be < 2^bits."""
    x = 0
    for v in expo:
        x = x << bits | v
    return x
