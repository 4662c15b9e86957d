"""The spectral sequence of the polynomial-degree filtration.

After the regrading p = 2*ell - polydeg, q = polydeg - ell, the filtration
F^p C^ell = {polynomial degree <= 2*ell - p} is decreasing, preserved by
d, and bounded above (each F^p C^ell is finite dimensional once the
invariant complex is used).  The differential splits into bidegrees (0,1)
and (4,-3).

Pages are computed from the subspace formulas

    Z_r^{p,q} = ker( d : F^p C^{p+q} -> F^p C^{p+q+1} / F^{p+r} )
    B_r^{p,q} = d( F^{p-r+1} C^{p+q-1} ) cap F^p
    E_r^{p,q} ~ Z_r / (B_r + Z_{r-1}^{p+1,q-1})

with explicit spanning rows over the ambient coordinates: B_r and
Z_{r-1}^{p+1,q-1} both lie in Z_r, so dim E_r is the rank Z_r adds over
B_r + Z_{r-1}, rank(Z_r rows) - rank(B_r rows + Z_{r-1} rows).

e1_dims reads E_1 off the graded differential d' instead, independently
of the Z/B formulas: d' = -d2 (d2 the degree-raising piece of d), so
its ranks are those of d2.  For k < n it runs on the S_k model of fock:
the m . Phi_J and m . *Phi_J (m an S_k monomial, J increasing) are a
basis of the invariant cochains (the paper's theorem), and d2 has the
closed form

    d2(m Phi_J)  = -sum_{i not in J} (-1)^#{j in J : j < i}
                       (what_i m) Phi_{J + i},
    d2(m *Phi_J) = -sum_{j in J} (-1)^(p_j + |J| + 1) (c_j m) *Phi_{J - j},

c_j = sum_i rhat(i,j) what(i) and p_j the 0-based position of j in J,
so E_1 is the Koszul homology over S_k of what_1..what_k (+1 part) and
of c_1..c_k (-1 part), computed with no Fock polynomial.  One call
enumerates each S_k degree once and groups the dominant pairs of each
(|J|, deg m) once (fock.sk_model_table); the +1 part at level |J| and
the -1 part at level n - |J| read the same pairs.  For k >= n the
families are evaluated and differentiated in the Fock ring: they are
dependent for k > n, and the theorem does not cover k = n.

Truncation.  In polynomial degree, the cell (ell, t) is E_r^{p,q} with
p = 2 ell - t; Z_r asks deg(dx) <= t + 2 - r, and the domain of B_r is
level ell - 1 through degree t - 3 + r.  The descent lemma of fock
(every coboundary inside degree <= t is d of a cochain of degree
<= t - 2, because E_1 vanishes at every domain level, by the
leading-term certificate stated there) gives B_r = B_1 for every
r >= 1, and Z_r is the full cocycle space of the cell once r > t + 2.
So the pages of a window through degree D need the cells through
degree D only, and E_r for r > D + 2 is E_infinity.

Every space above is the direct sum of its parts in the torus weight
blocks of the complex (see fock), because d, the filtration and the
degree windows preserve the weight and the Z/B formulas are built from
spans and kernels of block-diagonal maps.  So each page dimension is a
sum over the weight blocks; column permutations make blocks in one
S_k-orbit isomorphic as filtered complexes, so only the dominant blocks
are computed, each counted orbit_size(mu) times.  The same holds for
E_1 and d2; there the rows of a cell's blocks have disjoint columns, so
e1_dims eliminates all the blocks of a cell in one Eliminator and counts
each row that raises the rank with its block's orbit size.

A pages call (einf_and_converge) keeps one store of rows, its
SpectralComputer: the (row, image row) pairs of every dominant family,
built one cell (ell, degree) at a time through degree D by
fock.dominant_rows, the builder that also streams the rows of cohom.
The direct filtered cohomology it is compared with reads the same store,
so each family and its image are built once per call.
"""

from __future__ import annotations

from .fock import diff, direct_cohomology_dims, dominant_rows, \
    invariant_family, sk_model_d2_row, sk_model_table, weight_blocks
from .linalg import MAX_ENTRIES, Eliminator, ResourceCapError, \
    SparseRationalMatrix, kernel_basis, rank_of_rows, span_intersect_window
from .polyring import SkRing, orbit_size

__all__ = [
    "regrade",
    "unregrade",
    "PageData",
    "SpectralComputer",
    "e1_dims",
    "einf_and_converge",
    "ConvergenceReport",
]


def regrade(ell, polydeg):
    """(ell, polynomial degree) -> (p, q) in the filtration bigrading."""
    return 2 * ell - polydeg, polydeg - ell


def unregrade(p, q):
    """(p, q) -> (ell, polynomial degree)."""
    return p + q, p + 2 * q


class PageData:
    def __init__(self):
        self.dims = {}  # (p, q) -> dim


def _row_degree(key):
    bits, e = key
    return sum(e)


class SpectralComputer:
    """The store of one pages call: blocks[ell][weight][degree], the
    (row, image row) pairs of the dominant invariant families through
    degree max_degree, each cell built once by fock.dominant_rows.  It
    serves page dimensions for any r, and the direct route of the same
    call reads its blocks as they stand."""

    def __init__(self, ring, part, max_degree):
        self.ring = ring
        self.part = part
        self.D = max_degree
        # the stored rows alone can exhaust memory long before any single
        # elimination does, so they share the entry cap
        cap = MAX_ENTRIES.get()
        stored = 0
        self.blocks = {}
        for ell in range(ring.n + 1):
            level = self.blocks[ell] = {}
            for d in range(max_degree + 1):
                cell = dominant_rows(ring, part, ell, (d,), False)
                for mu, block in cell.items():
                    pairs = level.setdefault(mu, {})[d] = list(block[d])
                    stored += sum(len(row) + len(img) for row, img in pairs)
                    if stored > cap:
                        raise ResourceCapError(stored, cap)

    def _pairs_upto(self, ell, mu, t):
        """(row, image-row) pairs of the weight-mu family at level ell,
        degree <= t."""
        if ell < 0 or ell > self.ring.n:
            return []
        block = self.blocks[ell].get(mu, {})
        out = []
        for d in range(min(t, self.D) + 1):
            out.extend(block.get(d, ()))
        return out

    def z_rows(self, ell, mu, t, dx_bound):
        """Spanning rows of { x in span(weight-mu family at ell, deg <= t) :
        deg(dx) <= dx_bound }, the combinations of the family by a kernel
        basis of the out-of-bound part of d; they span the space also
        when the family is dependent (k > n)."""
        pairs = self._pairs_upto(ell, mu, t)
        if not pairs:
            return []
        # coefficient-space kernel of the out-of-bound projection of d
        coords = {}
        for j, (_, img) in enumerate(pairs):
            for k, v in img.items():
                if _row_degree(k) > dx_bound:
                    coords.setdefault(k, {})[j] = v
        m = SparseRationalMatrix(len(coords), len(pairs))
        for ri, row in enumerate(coords.values()):
            for j, v in row.items():
                m.set(ri, j, v)
        out = []
        for c in kernel_basis(m):
            combined = {}
            for j, coef in c.items():
                for k, v in pairs[j][0].items():
                    nv = combined.get(k, 0) + coef * v
                    if nv:
                        combined[k] = nv
                    elif k in combined:
                        del combined[k]
            if combined:
                out.append(combined)
        return out

    def b_rows(self, ell, mu, t, dom_bound):
        """Basis rows of d(weight-mu family at ell-1, deg <= dom_bound)
        cap {deg <= t}."""
        if ell < 1:
            return []
        imgs = [img for _, img in self._pairs_upto(ell - 1, mu, dom_bound)
                if img]
        return span_intersect_window(imgs, lambda k: _row_degree(k) <= t)

    def cell_dim(self, p, q, r):
        """dim E_r^{p,q} by the Z/B formula, summed over the dominant
        weight blocks with their orbit sizes."""
        ell, t = unregrade(p, q)
        if ell < 0 or ell > self.ring.n or t < 0:
            return 0
        total = 0
        for mu in self.blocks[ell]:
            z = self.z_rows(ell, mu, t, t + 2 - r)
            if not z:
                continue
            # B_r and Z_{r-1} of the cell (p+1, q-1) (degree <= t-1, same
            # dx bound) both lie in Z_r
            denom = self.b_rows(ell, mu, t, t - 3 + r) \
                + self.z_rows(ell, mu, t - 1, t + 2 - r)
            total += orbit_size(mu) * (rank_of_rows(z) - rank_of_rows(denom))
        return total

    def page(self, r):
        data = PageData()
        for ell in range(self.ring.n + 1):
            for t in range(self.D + 1):
                p, q = regrade(ell, t)
                dim = self.cell_dim(p, q, r)
                if dim:
                    data.dims[(p, q)] = dim
        return data


def e1_dims(ring, part, max_degree):
    """The E_1 page: cohomology of the graded differential d' = -d2 per
    cell, from the dominant weight blocks counted with their orbit sizes.

    For k < n the cells are computed on the S_k model: the pairs (J, m)
    of fock.sk_model_table, built once per call for the whole window,
    are a basis of the invariant cochains (the paper's theorem), so the
    rank of a cell is their count, and the d2 rows of
    fock.sk_model_d2_row, one monomial per term, give its image rank
    with no Fock polynomial.  For k >= n the families are evaluated and
    differentiated in the Fock ring (_e1_fock): they are dependent for
    k > n, and the basis theorem does not cover k = n.

    Each cell and part eliminates the rows of all its dominant blocks in
    one Eliminator, and a row that raises the rank adds its block's
    orbit size.  This is the sum of the block ranks: d2 preserves the
    torus weight, so the rows of different blocks, and their images,
    have disjoint columns, and a row of one block is only ever reduced
    against pivot rows of the same block.
    """
    if ring.k >= ring.n:
        return _e1_fock(ring, part, max_degree)
    n = ring.n
    sk = SkRing(ring.k)
    parts = ("plus", "minus") if part == "full" else (part,)
    table = sk_model_table(sk, max_degree)

    def level_ranks(ell):
        for t in range(max_degree + 1):
            rv = ri = 0
            for p in parts:
                jsize = ell if p == "plus" else n - ell
                e = Eliminator()
                for mult, pairs in table.get((jsize, t - jsize), ()):
                    rv += mult * len(pairs)
                    for J, m in pairs:
                        if e.add_row(sk_model_d2_row(sk, p, J, m)):
                            ri += mult
            yield rv, ri

    return _e1_page(n, max_degree, level_ranks)


def _e1_fock(ring, part, max_degree):
    """e1_dims on the Fock route, for every (n, k): the ranks of the rows
    of the dominant families and of their d2 images, one Eliminator each
    per cell (see e1_dims).  One level is built at a time."""
    def level_ranks(ell):
        blocks = weight_blocks(invariant_family(
            ring, part, ell, range(max_degree + 1), dominant=True))
        for t in range(max_degree + 1):
            rv = ri = 0
            ev, ei = Eliminator(), Eliminator()
            for mu, block in blocks.items():
                mult = orbit_size(mu)
                for v in block.get(t, ()):
                    if ev.add_row(v.to_row()):
                        rv += mult
                    if ei.add_row(diff(v, "d2").to_row()):
                        ri += mult
            yield rv, ri

    return _e1_page(ring.n, max_degree, level_ranks)


def _e1_page(n, max_degree, level_ranks):
    """The E_1 page from level_ranks(ell), which yields the orbit-weighted
    (rank, d2-image rank) of each cell (ell, t), t <= max_degree: the
    cell (ell, t) loses the image of the cell (ell - 1, t - 2) below it,
    which is kept."""
    img_rank = {}  # (ell, t) -> orbit-weighted rank of the d2-image
    data = PageData()
    for ell in range(n + 1):
        for t, (rv, ri) in enumerate(level_ranks(ell)):
            img_rank[ell, t] = ri
            dim = rv - ri - img_rank.get((ell - 1, t - 2), 0)
            if dim:
                data.dims[regrade(ell, t)] = dim
    return data


class ConvergenceReport:
    def __init__(self, r_max, einf, gr_dims):
        self.r_max = r_max
        self.einf = einf
        self.gr_dims = gr_dims  # (p, q) -> dim
        self.agreements = 0  # the number of agreeing cells
        self.mismatches = []

    @property
    def ok(self):
        return not self.mismatches


def einf_and_converge(ring, part, max_degree):
    """Compute E_infinity on the window, compare with the filtration-graded
    direct cohomology, and report agreement cell by cell.

    One page is computed, E_r at r = r_max = 2n + max_degree + 1.  Z_r is
    the full cocycle space of every cell once r > t + 2, and B_r = B_1
    for every r >= 1 by the descent lemma of fock (every coboundary
    inside degree <= t is d of a cochain of degree <= t - 2; its
    hypothesis, E_1 = 0 at every domain level, holds by the leading-term
    certificate stated there).  So E_{r_max} is E_infinity, and the
    store holds the cells through max_degree only.  The direct route
    reads its rows from the pages' store, so each family is built once.
    """
    n, D = ring.n, max_degree
    comp = SpectralComputer(ring, part, D)
    gr = {}
    for ell in range(n + 1):
        dc = direct_cohomology_dims(ring, part, ell, D, store=comp)
        for t in range(D + 1):
            if dc.dims[t]:
                gr[regrade(ell, t)] = dc.dims[t]

    p_min = regrade(0, D)[0]
    r_max = max(2, 2 * n - p_min + 1)
    rep = ConvergenceReport(r_max, einf=comp.page(r_max), gr_dims=gr)
    for ell in range(n + 1):
        for t in range(D + 1):
            cell = regrade(ell, t)
            e, g = rep.einf.dims.get(cell, 0), gr.get(cell, 0)
            if e == g:
                rep.agreements += 1
            else:
                rep.mismatches.append((cell, e, g))
    return rep
